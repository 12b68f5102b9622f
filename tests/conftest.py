import functools
import itertools
import json
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from maltsev import congruences, words
from maltsev.algebras import OperationTable, dump_algebra, load_algebra, make_algebra, table_from_function
from maltsev.congruences import Partition
from maltsev.errors import ArityMismatchError, EvaluationError
from maltsev.sampling import fixpoint, random_order_reduction
from maltsev.terms import App, MU, Var
from maltsev.words import HeapWord, Letter, ReducedWord, encode, heap_mu, reduce

GENS3 = ("x", "y", "z")
ALGEBRAS = Path(__file__).resolve().parents[1] / "algebras"


def subterms(t):
    """Every subterm of t in pre-order, left to right, a shared subterm once
    per occurrence: the tree walk that the sharing tests and the folds'
    tree counts are checked against."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, App):
            stack.extend(reversed(s.args))


def heap_words_up_to(gens, max_len):
    """Every heap word of odd length <= max_len over gens, shortest first."""
    out = []
    for length in range(1, max_len + 1, 2):
        for names in itertools.product(gens, repeat=length):
            letters = tuple(
                Letter(g, 1 if i % 2 == 0 else -1) for i, g in enumerate(names)
            )
            try:
                out.append(HeapWord(ReducedWord(encode(letters))))
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
# Finite algebras: the bundled documents, read through load_algebra, and the
# two families that tests need at sizes no document has.


@functools.cache
def bundled_algebras():
    """Each algebras/*.json by file stem, in file-name order."""
    return {
        path.stem: load_algebra(json.loads(path.read_text()))
        for path in sorted(ALGEBRAS.glob("*.json"))
    }


def cyclic_group(n):
    return make_algebra(
        f"Z{n}",
        n,
        {
            "mul": table_from_function(n, 2, lambda a, b: (a + b) % n),
            "inv": table_from_function(n, 1, lambda a: (-a) % n),
            "e": table_from_function(n, 0, lambda: 0),
        },
    )


def chain_semilattice(n):
    """The chain 0 < 1 < ... < n-1 under the meet (min) operation."""
    return make_algebra(f"chain{n}", n, {"meet": table_from_function(n, 2, min)})


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


# ---------------------------------------------------------------------------
# Terms as DAGs, and the tree walks that format_term and hom_to_group
# replaced: they visit a shared subterm once per occurrence, and are the
# oracle the sharing-aware walks are checked against.


@st.composite
def dag_recipes(draw, max_nodes=8, max_size=300):
    """A term as a DAG, as build_dag's recipe: a tuple of steps (args,
    fresh, copy), each adding the node mu(*args) over the indexes of nodes
    before it, after the three variables.  A node can stand at any argument
    position, and up to three times in one argument tuple.  fresh rebuilds
    each variable among the arguments as a distinct object, and copy adds an
    equal but distinct rebuild of the node.  No node is larger than
    max_size as a tree."""
    sizes = [1, 1, 1]
    steps = []
    for _ in range(draw(st.integers(1, max_nodes))):
        small = [i for i, n in enumerate(sizes) if n <= max_size // 3]
        args = tuple(draw(st.sampled_from(small)) for _ in range(3))
        fresh, copy = draw(st.booleans()), draw(st.booleans())
        steps.append((args, fresh, copy))
        sizes += [1 + sum(sizes[i] for i in args)] * (1 + copy)
    return tuple(steps)


def build_dag(recipe, gens=GENS3):
    """The nodes of a dag_recipes recipe over three generator names, the
    term last."""
    nodes = [Var(g) for g in gens]
    for args, fresh, copy in recipe:
        node = App(MU, tuple(Var(nodes[i].name) if fresh and i < 3 else nodes[i] for i in args))
        nodes += [node, App(MU, node.args)] if copy else [node]
    return nodes


def shared_terms(max_nodes=8, max_size=300):
    """The term of a dag_recipes recipe; the caller holds none of its subterms."""
    return dag_recipes(max_nodes, max_size).map(lambda recipe: build_dag(recipe)[-1])


def tree_format_term(t):
    """format_term as a walk of the tree."""
    parts = []
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            parts.append(s)
        elif isinstance(s, Var):
            parts.append(s.name)
        elif not s.args:
            parts.append(s.symbol)
        else:
            parts.append(s.symbol + "(")
            stack.append(")")
            for a in reversed(s.args[1:]):
                stack += (a, ",")
            stack.append(s.args[0])
    return "".join(parts)


def tree_hom_to_group(t):
    """hom_to_group as a signed walk of the tree, each generator named as its
    variable; the checked constructor confirms the word is reduced."""
    out = []
    stack = [(t, 0)]
    while stack:
        s, inverted = stack.pop()
        if isinstance(s, Var):
            code, inverse = words.CODES[s.name][inverted]
            if out and out[-1] is inverse:  # CODES holds one str object per code
                out.pop()
            else:
                out.append(code)
        else:
            a, b, c = s.args
            stack += ((a, 1), (b, 0), (c, 1)) if inverted else ((c, 0), (b, 1), (a, 0))
    return ReducedWord("".join(out))


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


# ---------------------------------------------------------------------------
# The word operations on tuples of Letters, one letter at a time: the oracle
# each word operation is checked against.  A product reduces the whole
# concatenation.


def reference_reduce(raw):
    stack = []
    for letter in raw:
        if stack and stack[-1].gen == letter.gen and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def reference_fg_mul(x, y):
    return reference_reduce(tuple(x) + tuple(y))


def reference_fg_inv(x):
    return tuple(Letter(l.gen, -l.sign) for l in reversed(x))


def reference_heap_mu(a, b, c):
    return reference_fg_mul(a, reference_fg_mul(reference_fg_inv(b), c))


def reference_is_heap_word(x):
    return len(x) % 2 == 1 and all(l.sign == (1 if i % 2 == 0 else -1) for i, l in enumerate(x))


def reference_hom_to_group(t, gen_map=None):
    """The per-node homomorphism into the free group: one reduced product
    per application, on tuples of letters."""
    if isinstance(t, Var):
        gen = t.name if gen_map is None else gen_map.get(t.name)
        if gen is None:
            raise EvaluationError(f"unmapped variable {t.name!r}")
        return (Letter(gen, 1),)
    a, b, c = (reference_hom_to_group(s, gen_map) for s in t.args)
    return reference_heap_mu(a, b, c)


@functools.cache
def generator_bands():
    """Interned generator names whose codes a str stores in one, two and
    four bytes a character: indexes below 128, from 128 to 32 767 and past
    32 767, three from each end of each band.  The first call fills the
    process's table past 32 768 names."""
    encode(Letter(f"g{i}", 1) for i in range(32_800))
    bands = ([], [], [])
    for gen, ((code, _), _) in words.CODES.items():
        bands[(ord(code) > 0xFF) + (ord(code) > 0xFFFF)].append(gen)
    return tuple(band[:3] + band[-3:] for band in bands)


def alphabet_strategy():
    """Three generator names from one band of generator_bands, or one from
    each, so that words are narrow, UCS-2, UCS-4 or mixed strings."""

    def alphabets(bands):
        one_band = st.sampled_from(bands).flatmap(
            lambda band: st.lists(st.sampled_from(band), min_size=3, max_size=3, unique=True)
        )
        return one_band | st.tuples(*map(st.sampled_from, bands)).map(list)

    return st.deferred(lambda: alphabets(generator_bands()))


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
def algebra_file(tmp_path):
    def write(name, alg=None):
        """The path of a document of alg, by default the shipped document
        of the bundled algebra name."""
        if alg is None:
            return str(ALGEBRAS / f"{name}.json")
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump_algebra(alg)))
        return str(path)

    return write
