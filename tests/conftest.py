import json
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from maltsev.algebras import OperationTable, dump_algebra, make_algebra
from maltsev.catalog import bundled_algebras
from maltsev.terms import App, MU, Var
from maltsev.words import HeapWord, Letter, reduce

GENS3 = ("x", "y", "z")


def term_strategy(gens=GENS3, max_leaves=30):
    base = st.sampled_from([Var(g) for g in gens])
    return st.recursive(
        base,
        lambda children: st.builds(
            lambda a, b, c: App(MU, (a, b, c)), children, children, children
        ),
        max_leaves=max_leaves,
    )


class Chain(NamedTuple):
    """A deep term: a seed wrapped ``depth`` times in mu, the deeper term at
    a given argument position with two small fillers, the levels cycling
    through ``levels`` = ((position, filler, filler), ...)."""

    seed: object
    levels: tuple
    depth: int

    def fold(self, value, combine):
        """combine(...) applied level by level to the values of the deeper
        term and of the fillers, in argument order; a loop, so it works at
        any depth."""
        out = value(self.seed)
        for i in range(self.depth):
            position, f, g = self.levels[i % len(self.levels)]
            args = [value(f), value(g)]
            args.insert(position, out)
            out = combine(*args)
        return out

    def build(self):
        return self.fold(lambda t: t, lambda a, b, c: App(MU, (a, b, c)))


def chain_strategy(min_depth=5000):
    small = term_strategy(max_leaves=4)
    return st.builds(
        Chain,
        small,
        st.lists(st.tuples(st.integers(0, 2), small, small), min_size=1, max_size=6).map(tuple),
        st.integers(min_depth, min_depth + 100),
    )


def random_signature_term(rng, sig, names, depth):
    """A random term over the signature and the variable names, of depth at
    most ``depth``; constants and variables are the leaves."""
    leaves = [Var(v) for v in names] + [App(s, ()) for s, k in sig.symbols if k == 0]
    ops = [(s, k) for s, k in sig.symbols if k > 0]
    if depth == 0 or not ops or rng.random() < 0.3:
        return rng.choice(leaves)
    symbol, arity = rng.choice(ops)
    return App(symbol, tuple(random_signature_term(rng, sig, names, depth - 1) for _ in range(arity)))


@st.composite
def small_algebras(
    draw, sizes=st.integers(2, 4), arities=st.lists(st.integers(0, 3), min_size=1, max_size=3)
):
    """An algebra with operations f0, f1, ... of the drawn arities (by
    default one to three of arity 0-3) and random tables."""
    n = draw(sizes)
    tables = {
        f"f{i}": OperationTable(
            k, tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        )
        for i, k in enumerate(draw(arities))
    }
    return make_algebra("drawn", n, tables)


def letter_strategy(gens=("a", "b", "c")):
    return st.builds(Letter, st.sampled_from(gens), st.sampled_from((1, -1)))


def raw_word_strategy(gens=("a", "b", "c"), max_size=12):
    return st.lists(letter_strategy(gens), max_size=max_size)


def heap_word_strategy(gens=("a", "b"), max_stratum=3):
    def build(names):
        return HeapWord(
            reduce(
                [Letter(g, 1 if i % 2 == 0 else -1) for i, g in enumerate(names)]
            )
        )

    return (
        st.integers(0, max_stratum)
        .flatmap(
            lambda n: st.lists(
                st.sampled_from(gens), min_size=2 * n + 1, max_size=2 * n + 1
            )
        )
        .map(build)
    )


@pytest.fixture(scope="session")
def algebras():
    return bundled_algebras()


@pytest.fixture()
def algebra_file(tmp_path, algebras):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump_algebra(algebras[name])))
        return str(path)

    return write
