"""Seeded random generators for terms, words and axiom walks, and the
randomized property checks of the CLI selftest.

Shared by the CLI selftest and the test suite so that every randomized
check is reproducible from an explicit seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .homomorphisms import hom_to_group
from .rewriting import _root_step, equal_in_free, normalize, rewrite_once, rewrite_once_outermost
from .terms import App, MU, Term, Var, positions, replace_at
from .words import HeapWord, Letter, ReducedWord, heap_mu, reduce


def random_term(rng: random.Random, gens: Sequence[str], max_depth: int) -> Term:
    if max_depth == 0 or rng.random() > 0.6:
        return Var(rng.choice(gens))
    return App(MU, tuple(random_term(rng, gens, max_depth - 1) for _ in range(3)))


def axiom_walk(
    rng: random.Random,
    t: Term,
    steps: int,
    gens: Sequence[str],
) -> Term:
    """Apply the cancellation equations forward (contract a redex) or
    backward (expand a subterm s into mu(s,w,w) or mu(w,w,s)) at random
    positions.  The result always denotes the same free-algebra element."""
    for _ in range(steps):
        spots = list(positions(t))
        contractions = [
            (p, r) for p, s in spots if isinstance(s, App) and (r := _root_step(s)) is not None
        ]
        if contractions and rng.random() < 0.5:
            t = replace_at(t, *rng.choice(contractions))
        else:
            p, s = rng.choice(spots)
            w = random_term(rng, gens, 2)
            wrapped = App(MU, (s, w, w)) if rng.random() < 0.5 else App(MU, (w, w, s))
            t = replace_at(t, p, wrapped)
    return t


def random_letters(
    rng: random.Random, gens: Sequence[str], length: int
) -> tuple[Letter, ...]:
    return tuple(
        Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)
    )


def random_heap_word(
    rng: random.Random, gens: Sequence[str], max_stratum: int
) -> HeapWord:
    """Random element of the heap: reduction of a random alternating word;
    it may land in a lower stratum but is always a heap word."""
    n = rng.randrange(max_stratum + 1)
    letters = [
        Letter(rng.choice(gens), 1 if i % 2 == 0 else -1) for i in range(2 * n + 1)
    ]
    return HeapWord(reduce(letters))


# ---------------------------------------------------------------------------
# The selftest: randomized invariants at a quick desk scale.


def selftest(rng: random.Random, iterations: int) -> list[tuple[str, bool]]:
    """(name, passed) per check.  The checks run in this order on one rng;
    each runs ``iterations`` trials and stops at its first failing one."""
    gens = ("x", "y", "z")

    def strategy_independence():
        t = random_term(rng, gens, 6)
        inner = fixpoint(t, rewrite_once)
        outer = fixpoint(t, rewrite_once_outermost)
        return inner == outer == normalize(t)

    def axiom_walk_equivalence():
        t = random_term(rng, gens, 4)
        return equal_in_free(t, axiom_walk(rng, t, 8, gens))

    def reduction_order_independence():
        raw = list(random_letters(rng, gens, 12))
        expected = reduce(raw)
        # A list, not a generator: all three deletions draw from rng.
        return all([random_order_reduction(rng, raw) == expected for _ in range(3)])

    def heap_para_associativity():
        a, b, c, d, e = (random_heap_word(rng, gens, 3) for _ in range(5))
        lhs = heap_mu(heap_mu(a, b, c), d, e)
        mid = heap_mu(a, heap_mu(d, c, b), e)
        rhs = heap_mu(a, b, heap_mu(c, d, e))
        return lhs == mid == rhs

    def hom_normalization_invariance():
        t = random_term(rng, gens, 5)
        return hom_to_group(t) == hom_to_group(normalize(t))

    return [
        (name, all(trial() for _ in range(iterations)))
        for name, trial in (
            ("strategy-independence", strategy_independence),
            ("axiom-walk-equivalence", axiom_walk_equivalence),
            ("reduction-order-independence", reduction_order_independence),
            ("heap-para-associativity", heap_para_associativity),
            ("hom-normalization-invariance", hom_normalization_invariance),
        )
    ]


def fixpoint(t: Term, step) -> Term:
    """step applied until it returns None."""
    while (r := step(t)) is not None:
        t = r
    return t


def random_order_reduction(rng: random.Random, raw: Sequence[Letter]) -> ReducedWord:
    """Oracle for reduce: delete cancelling pairs in random order until none remain."""
    letters = list(raw)
    while True:
        sites = [
            i
            for i in range(len(letters) - 1)
            if letters[i].gen == letters[i + 1].gen
            and letters[i].sign == -letters[i + 1].sign
        ]
        if not sites:
            return ReducedWord(tuple(letters))
        i = rng.choice(sites)
        del letters[i : i + 2]
