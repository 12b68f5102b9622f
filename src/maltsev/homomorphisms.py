"""Evaluation homomorphisms out of the free algebra.

By the universal property, any assignment of generators into a carrier with
a ternary operation extends uniquely to the whole free algebra; evaluation
folds the term bottom-up on an explicit stack, so a term of any depth works,
and it factors through normalization exactly when the carrier operation
satisfies the two defining cancellation equations.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, TypeVar

from .errors import BudgetExceededError, EvaluationError
from .terms import MU, Term, Var, _trusted, default_generators, interpret, variables
from .words import Letter, ReducedWord, is_heap_word, reduce

T = TypeVar("T")


def eval_term(
    t: Term,
    assignment: Mapping[str, T],
    mu_impl: Callable[[T, T, T], T],
) -> T:
    """Interpret t in an arbitrary carrier, reading mu as mu_impl."""
    return interpret(t, assignment, lambda _, *args: mu_impl(*args))


def hom_to_group(t: Term, gen_map: Mapping[str, str] | None = None) -> ReducedWord:
    """The canonical homomorphism into the free group: variables go to
    generators and mu(a,b,c) to a b^-1 c, hence to c^-1 b a^-1 under an
    inverse.  One signed pass over the raw term lists the letters and
    cancels each against the one before it, so the word comes out reduced;
    invariance under normalization is a consequence, not an input.  The
    image of any term is a heap word.  Each generator name is checked once,
    when its letters are built."""
    by_gen: dict[str, tuple] = {}  # generator -> ((letter, inverse), (inverse, letter))
    letters: dict[str, tuple] = {}  # variable name -> its generator's entry
    out: list[Letter] = []
    stack = [(t, 0)]  # a subterm, and 1 when its image is inverted
    while stack:
        s, inverted = stack.pop()
        if isinstance(s, Var):
            signs = letters.get(s.name)
            if signs is None:
                signs = letters[s.name] = _generator_letters(t, s.name, gen_map, by_gen)
            letter, inverse = signs[inverted]
            # One Letter object per generator and sign, so identity is equality.
            if out and out[-1] is inverse:
                out.pop()
            else:
                out.append(letter)
        else:
            a, b, c = s.args
            stack += ((a, 1), (b, 0), (c, 1)) if inverted else ((c, 0), (b, 1), (a, 0))
    return _trusted(ReducedWord, tuple(out))


def _generator_letters(t: Term, name: str, gen_map, by_gen: dict) -> tuple:
    gen = name if gen_map is None else gen_map.get(name)
    if gen not in by_gen:
        try:
            letter = _letter(name, gen_map)
        except (EvaluationError, ValueError):
            # The walk visits inverted subterms right to left, so fail on the
            # leftmost variable that fails, whether unmapped or invalid.
            for v in variables(t):
                _letter(v, gen_map)
            raise
        inverse = letter.inverse()
        by_gen[gen] = ((letter, inverse), (inverse, letter))
    return by_gen[gen]


def _letter(name: str, gen_map) -> Letter:
    gen = name if gen_map is None else gen_map.get(name)
    if gen is None:
        raise EvaluationError(f"unmapped variable {name!r}")
    return Letter(gen, 1)


def separating_hom(t: Term, witness: str) -> int:
    """Evaluate t in the two-element group (mu = xor of the three arguments)
    under the indicator assignment of the witness variable.  Distinguishes
    the witness generator from every other generator."""
    assignment = {name: int(name == witness) for name in variables(t)}
    return eval_term(t, assignment, lambda a, b, c: a ^ b ^ c)


def check_injectivity_on_M1(m: int) -> bool:
    """Exhaustive check that the canonical homomorphism restricted to the
    depth <= 1 normal forms is a bijection onto the heap words of length
    <= 3 over m generators."""
    if m > 4:
        raise BudgetExceededError("injectivity check limited to m <= 4")
    from .rewriting import enumerate_normal_forms

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
    alphabet = [Letter(g, s) for g in gens for s in (1, -1)]
    words = (reduce(w) for w in itertools.product(alphabet, repeat=length))
    return [w for w in words if len(w) == length]


def distinguish_in_small_groups(t: Term, s: Term) -> bool:
    """Search the evaluation homomorphisms into the two- and three-element
    cyclic groups, with mu(a,b,c) = a - b + c, for one separating t from s
    (all assignments tried, as vectors)."""
    from .algebras import Identity, check_identity, make_algebra, table_from_function

    ident = Identity(t, s, tuple(sorted(set(variables(t)) | set(variables(s)))))
    for m in (2, 3):
        heap = table_from_function(m, 3, lambda a, b, c: (a - b + c) % m)
        if check_identity(make_algebra(f"Z{m}", m, {MU: heap}), ident) is not None:
            return True
    return False
