"""Computational universal-algebra workbench: the word problem for the free
algebra of a ternary cancellation operation, free groups and heaps on
reduced words, and congruence analysis of finite algebras.

The public names are served lazily (PEP 562): ``import maltsev`` loads no
submodule, and the first use of a name imports the module that defines it.
"""

from importlib import import_module

_EXPORTS = {
    "terms": (
        "MALTSEV_SIGNATURE", "App", "Signature", "Term", "Var", "count_W",
        "format_term", "mu", "parse_term", "substitute", "term_depth",
    ),
    "rewriting": (
        "MALTSEV_SYSTEM", "check_confluence", "count_M", "equal_in_free",
        "level", "normalize", "rewrite_once",
    ),
    "words": (
        "HeapWord", "Letter", "ReducedWord", "fg_inv", "fg_mul",
        "heap_group_ops", "heap_mu", "is_heap_word", "reduce",
    ),
    "homomorphisms": (
        "check_injectivity_on_M1", "eval_term", "hom_to_group", "separating_hom",
    ),
    "algebras": (
        "FiniteAlgebra", "Identity", "OperationTable", "check_identity",
        "is_maltsev_operation", "load_algebra", "maltsev_from_group",
        "maltsev_from_left_loop", "maltsev_from_quasigroup", "maltsev_from_retraction",
    ),
    "congruences": (
        "Congruence", "Partition", "all_congruences", "first_iso_check",
        "is_congruence", "kernel", "permute", "principal_congruence", "quotient",
    ),
    "termsearch": ("find_maltsev_term", "verify_maltsev_term"),
    "errors": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
