import functools
import itertools
import json
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from maltsev import congruences
from maltsev.algebras import OperationTable, dump_algebra, make_algebra
from maltsev.catalog import bundled_algebras
from maltsev.congruences import Partition
from maltsev.errors import ArityMismatchError, EvaluationError
from maltsev.terms import App, MU, Var
from maltsev.words import HeapWord, Letter, ReducedWord, heap_mu, reduce

GENS3 = ("x", "y", "z")


def fixpoint(t, step):
    """step applied until it returns None."""
    while True:
        r = step(t)
        if r is None:
            return t
        t = r


def random_order_reduction(rng, raw):
    """Oracle for reduce: delete cancelling pairs in random order until none
    remain."""
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


def heap_words_up_to(gens, max_len):
    """Every heap word of odd length <= max_len over gens, shortest first."""
    out = []
    for length in range(1, max_len + 1, 2):
        for names in itertools.product(gens, repeat=length):
            letters = tuple(
                Letter(g, 1 if i % 2 == 0 else -1) for i, g in enumerate(names)
            )
            try:
                out.append(HeapWord(ReducedWord(letters)))
            except ValueError:
                pass  # unreduced pattern such as a a^-1 a
    return out


def para_associative(a, b, c, d, e):
    """mu(mu(a,b,c),d,e) = mu(a,mu(d,c,b),e) = mu(a,b,mu(c,d,e)) in the heap."""
    lhs = heap_mu(heap_mu(a, b, c), d, e)
    mid = heap_mu(a, heap_mu(d, c, b), e)
    rhs = heap_mu(a, b, heap_mu(c, d, e))
    return lhs == mid == rhs


# ---------------------------------------------------------------------------
# Per-entry oracles for finite algebras: one table read per argument tuple,
# against which the package's whole-table readers are checked.


def apply_table(tab, size, *args):
    """The entry of tab at args, through the row-major flat index."""
    if len(args) != tab.arity:
        raise ArityMismatchError(
            f"table of arity {tab.arity} applied to {len(args)} argument(s)"
        )
    index = 0
    for a in args:
        index = index * size + a
    return tab.entries[index]


def apply(alg, symbol, *args):
    return apply_table(alg.table(symbol), alg.size, *args)


def evaluate(alg, t, env):
    """The value of t at one assignment, by recursion, one table read per
    node; it fails where the package's evaluators do, at the first failing
    node in post-order."""
    if isinstance(t, Var):
        if t.name not in env:
            raise EvaluationError(f"unassigned variable {t.name!r}")
        return env[t.name]
    return apply(alg, t.symbol, *(evaluate(alg, s, env) for s in t.args))


# ---------------------------------------------------------------------------
# Partitions as the lattice of equivalences, by brute force.


def all_partitions(n):
    """Every partition of {0..n-1}, as restricted-growth strings in lexicographic order."""
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == n:
            yield Partition(prefix)
        else:
            stack.extend(prefix + (b,) for b in reversed(range(max(prefix, default=-1) + 2)))


def identity_partition(n):
    return Partition(tuple(range(n)))


def total_partition(n):
    return Partition((0,) * n)


def relates(p, a, b):
    return p.block_of[a] == p.block_of[b]


def refines(p, q):
    """Every block of p lies inside a block of q, i.e. meets exactly one block of q."""
    return len(set(zip(p.block_of, q.block_of))) == p.num_blocks


def meet(p, q):
    return Partition.from_labels(list(zip(p.block_of, q.block_of)))


def join(p, q):
    """The engine's join of the labels; the constructor checks they are canonical."""
    return Partition(congruences._join(p.block_of, q.block_of))


def naive_compatible(alg, p):
    """Compatibility by every pair of related argument tuples."""
    n = alg.size
    for sym, tab in alg.tables:
        k = tab.arity
        for xs in itertools.product(range(n), repeat=k):
            for ys in itertools.product(range(n), repeat=k):
                if all(relates(p, a, b) for a, b in zip(xs, ys)):
                    if not relates(p, apply_table(tab, n, *xs), apply_table(tab, n, *ys)):
                        return False
    return True


def naive_congruences(alg):
    """Every partition of the carrier that naive_compatible accepts."""
    return [p for p in all_partitions(alg.size) if naive_compatible(alg, p)]


def least_relating(partitions, a, b):
    """The meet of the partitions relating a and b: over the congruences,
    the least congruence containing (a, b)."""
    return functools.reduce(meet, (p for p in partitions if relates(p, a, b)))


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


def relation_of(p):
    return frozenset((x, y) for block in p.blocks() for x in block for y in block)


def compose(r, s):
    """Relational composition: (x,z) iff some y has (x,y) in r, (y,z) in s."""
    by_left = {}
    for y, z in s:
        by_left.setdefault(y, set()).add(z)
    return frozenset((x, z) for x, y in r for z in by_left.get(y, ()))


def permute_oracle(theta, phi):
    r, s = relation_of(theta.partition), relation_of(phi.partition)
    return compose(r, s) == compose(s, r)


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
    def write(name, alg=None):
        """The path of a document of alg, by default the bundled algebra name."""
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump_algebra(algebras[name] if alg is None else alg)))
        return str(path)

    return write
