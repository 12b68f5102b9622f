"""Evaluation homomorphisms out of the free algebra.

By the universal property, any assignment of generators into a carrier with
a ternary operation extends uniquely to the whole free algebra; evaluation
is structural recursion, and it factors through normalization exactly when
the carrier operation satisfies the two defining cancellation equations.
"""

from __future__ import annotations

from typing import Callable, Mapping, TypeVar

from .errors import BudgetExceededError, EvaluationError
from .rewriting import enumerate_normal_forms, normalize
from .terms import Term, Var, default_generators, term_depth, variables
from .words import Letter, ReducedWord, fg_inv, fg_mul, is_heap_word

T = TypeVar("T")

MAX_EVAL_DEPTH = 64


def eval_term(
    t: Term,
    assignment: Mapping[str, T],
    mu_impl: Callable[[T, T, T], T],
) -> T:
    """Interpret t in an arbitrary carrier, reading mu as mu_impl."""
    if term_depth(t) > MAX_EVAL_DEPTH:
        raise EvaluationError(f"term depth exceeds the {MAX_EVAL_DEPTH} limit")
    return _eval(t, assignment, mu_impl)


def _eval(t, assignment, mu_impl):
    if isinstance(t, Var):
        if t.name not in assignment:
            raise EvaluationError(f"unassigned variable {t.name!r}")
        return assignment[t.name]
    a, b, c = (_eval(s, assignment, mu_impl) for s in t.args)
    return mu_impl(a, b, c)


def hom_to_group(t: Term, gen_map: Mapping[str, str] | None = None) -> ReducedWord:
    """The canonical homomorphism into the free group: variables go to
    generators and mu(a,b,c) to a b^-1 c.  Computed compositionally on the
    raw term; invariance under normalization is a consequence, not an input.
    The image of any term is a heap word."""
    if isinstance(t, Var):
        gen = t.name if gen_map is None else gen_map.get(t.name)
        if gen is None:
            raise EvaluationError(f"unmapped variable {t.name!r}")
        return ReducedWord((Letter(gen, 1),))
    a, b, c = (hom_to_group(s, gen_map) for s in t.args)
    return fg_mul(a, fg_mul(fg_inv(b), c))


def separating_hom(t: Term, witness: str) -> int:
    """Evaluate t in the two-element group (mu = xor of the three arguments)
    under the indicator assignment of the witness variable.  Distinguishes
    the witness generator from every other generator."""
    names = set(variables(t))
    assignment = {name: 1 if name == witness else 0 for name in names}
    assignment.setdefault(witness, 1)
    return eval_term(t, assignment, lambda a, b, c: a ^ b ^ c)


def check_injectivity_on_M1(m: int) -> bool:
    """Exhaustive check that the canonical homomorphism restricted to the
    depth <= 1 normal forms is a bijection onto the heap words of length
    <= 3 over m generators."""
    if m > 4:
        raise BudgetExceededError("injectivity check limited to m <= 4")
    gens = default_generators(m)
    forms = enumerate_normal_forms(gens, 1)
    images = [hom_to_group(t) for t in forms]
    if len(set(images)) != len(images):
        return False
    targets = {
        w
        for length in (1, 3)
        for w in _all_reduced_words(gens, length)
        if is_heap_word(w)
    }
    return set(images) == targets


def _all_reduced_words(gens: tuple[str, ...], length: int) -> list[ReducedWord]:
    words: list[tuple[Letter, ...]] = [()]
    alphabet = [Letter(g, s) for g in gens for s in (1, -1)]
    for _ in range(length):
        words = [
            w + (l,)
            for w in words
            for l in alphabet
            if not (w and w[-1].gen == l.gen and w[-1].sign == -l.sign)
        ]
    return [ReducedWord(w) for w in words]


def distinguish_in_small_groups(t: Term, s: Term) -> bool:
    """Search the evaluation homomorphisms into the two- and three-element
    cyclic groups for one separating t from s (all assignments tried)."""
    names = sorted(set(variables(t)) | set(variables(s)))
    for modulus, op in ((2, lambda a, b, c: (a - b + c) % 2), (3, lambda a, b, c: (a - b + c) % 3)):
        total = modulus ** len(names)
        for code in range(total):
            assignment = {}
            v = code
            for name in names:
                assignment[name] = v % modulus
                v //= modulus
            if eval_term(t, assignment, op) != eval_term(s, assignment, op):
                return True
    return False


def factors_through_normalization(
    t: Term,
    assignment: Mapping[str, T],
    mu_impl: Callable[[T, T, T], T],
) -> bool:
    """Well-definedness of the universal extension for this carrier."""
    return eval_term(t, assignment, mu_impl) == eval_term(
        normalize(t), assignment, mu_impl
    )
