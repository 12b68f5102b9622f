"""Evaluation homomorphisms out of the free algebra.

By the universal property, any assignment of generators into a carrier with
a ternary operation extends uniquely to the whole free algebra.  Evaluation
is a ``terms.fold``; the free-group image, ``hom_to_group``, is a walk of
its own.  Evaluation factors through normalization exactly when the
carrier operation satisfies the two defining cancellation equations.
"""

from __future__ import annotations

import itertools
from sys import getrefcount
from typing import Callable, Mapping, TypeVar

from .errors import BudgetExceededError, EvaluationError
from .terms import Term, Var, _trusted, default_generators, fold, interpret, variables
from .words import CODES, Letter, ReducedWord, _splice, is_heap_word, reduce

T = TypeVar("T")


def eval_term(
    t: Term,
    assignment: Mapping[str, T],
    mu_impl: Callable[[T, T, T], T],
) -> T:
    """Interpret t in an arbitrary carrier, reading mu as mu_impl."""
    return interpret(t, assignment, lambda _, *args: mu_impl(*args))


# hom_to_group tests for sharing only after this many applications, so a
# small term pays nothing for the test.
_PLAIN = 64


def hom_to_group(t: Term, gen_map: Mapping[str, str] | None = None) -> ReducedWord:
    """The canonical homomorphism into the free group: variables go to
    generators and mu(a,b,c) to a b^-1 c, hence to c^-1 b a^-1 under an
    inverse.  One signed pass over the raw term lists the codes and cancels
    each against the one before it, so the word comes out reduced;
    invariance under normalization is a consequence, not an input.  The
    image of any term is a heap word.  Each generator name is checked once
    per process, when words.CODES first gives it a code.

    An unshared node's letters go straight into the word, so a chain costs
    no copy per level.  After the first _PLAIN applications, a shared
    application (by terms.fold's rule) is mapped once, in a fresh buffer,
    for the sign it is first met with; each occurrence splices that image,
    inverted where its sign differs, into the enclosing buffer."""
    var_codes: dict[str, tuple] = {}  # variable -> ((code, inverse), (inverse, code))
    images: dict[int, tuple[str, int]] = {}  # id of a shared application -> its image, inverted
    out = [""]  # "" below the first code, so out[-1] always exists
    stack: list = [(t, 0)]  # a subterm, and 1 when its image is inverted
    plain = _PLAIN
    while stack:
        s, inverted = stack.pop()
        if s.__class__ is Var:
            codes = var_codes.get(s.name)
            if codes is None:
                try:
                    codes = var_codes[s.name] = CODES[_generator(s.name, gen_map)]
                except (EvaluationError, ValueError):
                    # Inverted subterms are walked right to left: fail on the leftmost.
                    for v in variables(t):
                        CODES[_generator(v, gen_map)]
                    raise
            code, inverse = codes[inverted]
            # A spliced code past 255 is not CODES' object: compare by value.
            if out[-1] == inverse:
                out.pop()
            else:
                out.append(code)
        elif s.__class__ is tuple:  # a shared image is complete: back to the enclosing buffer
            (out, key), image = s, "".join(out)
            images[key] = image, inverted
            _splice(out, image, 0)
        else:
            # Unpacking first unbinds the previous application's arguments,
            # which would count as references to s.
            a, b, c = s.args
            if plain:
                plain -= 1
            elif getrefcount(s) > 3:  # s, the call's argument and one parent slot
                kept = images.get(id(s))
                if kept is not None:
                    _splice(out, kept[0], kept[1] ^ inverted)
                    continue
                stack.append(((out, id(s)), inverted))
                out = [""]
            stack += ((a, 1), (b, 0), (c, 1)) if inverted else ((c, 0), (b, 1), (a, 0))
    return _trusted(ReducedWord, "".join(out))


def _generator(name: str, gen_map) -> str:
    gen = name if gen_map is None else gen_map.get(name)
    if gen is None:
        raise EvaluationError(f"unmapped variable {name!r}")
    return gen


def separating_hom(t: Term, witness: str) -> int:
    """Evaluate t in the two-element group (mu = xor of the three arguments)
    under the indicator assignment of the witness variable.  Distinguishes
    the witness generator from every other generator."""
    return fold(t, lambda v: int(v.name == witness), lambda _, a, b, c: a ^ b ^ c)


def check_injectivity_on_M1(m: int) -> bool:
    """Exhaustive check that the canonical homomorphism restricted to the
    depth <= 1 normal forms is a bijection onto the heap words of length
    <= 3 over m generators."""
    if m > 4:
        raise BudgetExceededError("injectivity check limited to m <= 4")
    from .rewriting import enumerate_normal_forms

    gens = default_generators(m)
    images = [hom_to_group(t) for t in enumerate_normal_forms(gens, 1)]
    targets = {w for n in (1, 3) for w in _all_reduced_words(gens, n) if is_heap_word(w)}
    return len(set(images)) == len(images) and set(images) == targets


def _all_reduced_words(gens: tuple[str, ...], length: int) -> list[ReducedWord]:
    alphabet = [Letter(g, s) for g in gens for s in (1, -1)]
    words = (reduce(w) for w in itertools.product(alphabet, repeat=length))
    return [w for w in words if len(w) == length]

