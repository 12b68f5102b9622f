"""Computational universal-algebra workbench: the word problem for the free
algebra of a ternary cancellation operation, free groups and heaps on
reduced words, and congruence analysis of finite algebras."""

from .terms import (
    MALTSEV_SIGNATURE,
    App,
    Signature,
    Term,
    Var,
    count_W,
    format_term,
    mu,
    parse_term,
    substitute,
    term_depth,
)
from .rewriting import (
    MALTSEV_SYSTEM,
    check_confluence,
    count_M,
    equal_in_free,
    level,
    normalize,
    rewrite_once,
)
from .words import (
    HeapWord,
    Letter,
    ReducedWord,
    fg_inv,
    fg_mul,
    heap_group_ops,
    heap_mu,
    in_F_k,
    is_heap_word,
    reduce,
)
from .homomorphisms import (
    check_injectivity_on_M1,
    eval_term,
    hom_to_group,
    separating_hom,
)
from .algebras import (
    FiniteAlgebra,
    Identity,
    OperationTable,
    check_identity,
    is_maltsev_operation,
    load_algebra,
    maltsev_from_group,
    maltsev_from_left_loop,
    maltsev_from_quasigroup,
    maltsev_from_retraction,
)
from .congruences import (
    Congruence,
    Partition,
    all_congruences,
    first_iso_check,
    is_congruence,
    kernel,
    permute,
    principal_congruence,
    quotient,
)
from .termsearch import find_maltsev_term, verify_maltsev_term

__all__ = [name for name in dir() if not name.startswith("_")]
