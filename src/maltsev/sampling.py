"""Seeded random generators for terms, words and axiom walks.

Shared by the CLI selftest and the test suite so that every randomized
check is reproducible from an explicit seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .terms import App, MU, Term, Var, positions, replace_at
from .words import HeapWord, Letter, reduce


def random_term(
    rng: random.Random,
    gens: Sequence[str],
    max_depth: int,
    branch: float = 0.6,
) -> Term:
    if max_depth == 0 or rng.random() > branch:
        return Var(rng.choice(gens))
    return App(
        MU,
        tuple(random_term(rng, gens, max_depth - 1, branch) for _ in range(3)),
    )


def random_normal_form(rng: random.Random, gens: Sequence[str], max_depth: int) -> Term:
    from .rewriting import normalize

    return normalize(random_term(rng, gens, max_depth))


def _redexes(t: Term) -> list[tuple[tuple[int, ...], App]]:
    out = []
    for p, s in positions(t):
        if isinstance(s, App):
            a, b, c = s.args
            if b == c or a == b:
                out.append((p, s))
    return out


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
        redexes = _redexes(t)
        if redexes and rng.random() < 0.5:
            p, s = rng.choice(redexes)
            a, b, c = s.args
            t = replace_at(t, p, a if b == c else c)
        else:
            p, s = rng.choice(list(positions(t)))
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
