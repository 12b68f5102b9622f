"""Partitions and congruences of finite algebras: principal-congruence
generation through translation closure, the full congruence set via joins,
permutability, quotients and kernels.

The principal congruence Cg(a,b) is grown as a fixpoint: starting from the
merge of a and b, every principal translation (a basic operation with all
but one argument fixed) is applied to each newly merged pair, with
symmetry and transitivity maintained by a union-find.  Finite compositions
of translations are reached by the iteration itself rather than being
materialized.

Compatibility is checked once, where it comes from outside: the public
Congruence(alg, p) constructor checks the partition, and kernel checks its
map with check_homomorphism.  What the engine builds (a closure fixpoint, a
join of congruences, the fibres of a checked homomorphism) is a congruence
by construction, so _closed wraps it unchecked and quotient trusts it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebras import FiniteAlgebra, make_algebra, table_from_function
from .errors import (
    BudgetExceededError,
    NotACongruenceError,
    NotAHomomorphismError,
    SchemaError,
)

Pair = tuple[int, int]


@dataclass(frozen=True)
class Partition:
    """Block index per element, with blocks numbered by least element in
    ascending order (canonical form)."""

    block_of: tuple[int, ...]

    def __post_init__(self):
        if self.block_of != _canonical(self.block_of):
            raise ValueError("partition encoding is not canonical")

    @staticmethod
    def from_labels(labels: Sequence[int]) -> "Partition":
        return Partition(_canonical(tuple(labels)))

    @staticmethod
    def from_blocks(n: int, blocks: Sequence[Sequence[int]]) -> "Partition":
        labels = [-1] * n
        for i, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < n or labels[x] != -1:
                    raise ValueError("blocks must partition 0..n-1")
            for x in block:
                labels[x] = i
        if -1 in labels:
            raise ValueError("blocks must cover 0..n-1")
        return Partition.from_labels(labels)

    @staticmethod
    def identity(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @staticmethod
    def total(n: int) -> "Partition":
        return Partition((0,) * n)

    @property
    def size(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1 if self.block_of else 0

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return tuple(tuple(b) for b in out)

    def relates(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def join(self, other: "Partition") -> "Partition":
        uf = _UnionFind(self.size)
        for p in (self, other):
            for block in p.blocks():
                for x in block[1:]:
                    uf.union(block[0], x)
        return Partition.from_labels([uf.find(x) for x in range(self.size)])

    def meet(self, other: "Partition") -> "Partition":
        return Partition.from_labels(list(zip(self.block_of, other.block_of)))

    def refines(self, other: "Partition") -> bool:
        """Every block of self lies inside a block of other, i.e. meets
        exactly one block of other."""
        return len(set(zip(self.block_of, other.block_of))) == self.num_blocks


def _canonical(labels: tuple) -> tuple[int, ...]:
    remap: dict = {}
    out = []
    for lab in labels:
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return tuple(out)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1}, by restricted-growth strings."""

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield Partition(tuple(prefix))
            return
        for b in range(used + 1):
            prefix.append(b)
            yield from rec(prefix, max(used, b + 1))
            prefix.pop()

    yield from rec([], 0)


def parse_partition(text: str, n: int) -> Partition:
    """Blocks separated by '|', elements by ',' (e.g. "0,2|1,3")."""
    try:
        blocks = [
            [int(x) for x in chunk.split(",") if x.strip() != ""]
            for chunk in text.split("|")
        ]
    except ValueError as exc:
        raise SchemaError(f"bad partition syntax: {exc}", "partition") from exc
    try:
        return Partition.from_blocks(n, blocks)
    except ValueError as exc:
        raise SchemaError(str(exc), "partition") from exc


def format_partition(p: Partition) -> str:
    return "|".join(",".join(str(x) for x in block) for block in p.blocks())


# ---------------------------------------------------------------------------
# Compatibility and congruence objects.


def find_compatibility_violation(alg: FiniteAlgebra, p: Partition):
    """First (symbol, args, position, replacement) whose single-coordinate
    change breaks compatibility, or None.  Single-coordinate compatibility
    suffices for full compatibility."""
    if p.size != alg.size:
        raise ValueError("partition size does not match carrier")
    n = alg.size
    for sym, tab in alg.tables:
        k = tab.arity
        for args in itertools.product(range(n), repeat=k):
            base = tab.apply(n, *args)
            for pos in range(k):
                for rep in range(n):
                    if rep == args[pos] or not p.relates(args[pos], rep):
                        continue
                    changed = args[:pos] + (rep,) + args[pos + 1 :]
                    if not p.relates(base, tab.apply(n, *changed)):
                        return (sym, args, pos, rep)
    return None


def is_congruence(alg: FiniteAlgebra, p: Partition) -> bool:
    return find_compatibility_violation(alg, p) is None


@dataclass(frozen=True)
class Congruence:
    """A partition compatible with every operation, checked on construction."""

    algebra: FiniteAlgebra
    partition: Partition

    def __post_init__(self):
        violation = find_compatibility_violation(self.algebra, self.partition)
        if violation is not None:
            raise NotACongruenceError(violation)


def _closed(alg: FiniteAlgebra, p: Partition) -> Congruence:
    """A partition the engine built as a congruence, wrapped unchecked."""
    theta = object.__new__(Congruence)
    object.__setattr__(theta, "algebra", alg)
    object.__setattr__(theta, "partition", p)
    return theta


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Least congruence merging a and b (translation-closure fixpoint)."""
    n = alg.size
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"pair ({a},{b}) outside the carrier 0..{n - 1}")
    uf = _UnionFind(n)
    queue: list[Pair] = []
    if uf.union(a, b):
        queue.append((a, b))
    while queue:
        c, d = queue.pop()
        for sym, tab in alg.tables:
            k = tab.arity
            for pos in range(k):
                for fixed in itertools.product(range(n), repeat=k - 1):
                    left = fixed[:pos] + (c,) + fixed[pos:]
                    right = fixed[:pos] + (d,) + fixed[pos:]
                    gc = tab.apply(n, *left)
                    gd = tab.apply(n, *right)
                    if uf.union(gc, gd):
                        queue.append((gc, gd))
    return _closed(alg, Partition.from_labels([uf.find(x) for x in range(n)]))


def all_congruences(
    alg: FiniteAlgebra, max_size: int = 8, force: bool = False
) -> list[Congruence]:
    """Every congruence, as the join closure of the principal ones, sorted
    finest to coarsest (identity first, total last)."""
    if alg.size > max_size and not force:
        raise BudgetExceededError(
            f"carrier size {alg.size} exceeds the lattice guard {max_size};"
            " raise the limit to override"
        )
    known: set[Partition] = {Partition.identity(alg.size)}
    for a in range(alg.size):
        for b in range(a + 1, alg.size):
            known.add(principal_congruence(alg, a, b).partition)
    queue = list(known)
    while queue:
        p = queue.pop()
        for q in list(known):
            j = p.join(q)
            if j not in known:
                known.add(j)
                queue.append(j)
    ordered = sorted(known, key=lambda p: (-p.num_blocks, p.block_of))
    return [_closed(alg, p) for p in ordered]


# ---------------------------------------------------------------------------
# Relations, permutability, quotients, kernels.


def relation_of(p: Partition) -> frozenset[Pair]:
    return frozenset(
        (x, y)
        for block in p.blocks()
        for x in block
        for y in block
    )


def compose(r: frozenset[Pair], s: frozenset[Pair]) -> frozenset[Pair]:
    """Relational composition: (x,z) iff some y has (x,y) in r, (y,z) in s."""
    by_left: dict[int, set[int]] = {}
    for y, z in s:
        by_left.setdefault(y, set()).add(z)
    return frozenset((x, z) for x, y in r for z in by_left.get(y, ()))


def permute(alg: FiniteAlgebra, theta: Congruence, phi: Congruence) -> bool:
    r, s = relation_of(theta.partition), relation_of(phi.partition)
    return compose(r, s) == compose(s, r)


def quotient(alg: FiniteAlgebra, theta: Congruence) -> FiniteAlgebra:
    """Carrier of blocks in canonical order, tables induced through the
    least element of each block.  The choice of representative does not
    matter because theta is a congruence."""
    p = theta.partition
    blocks = p.blocks()
    reps = [block[0] for block in blocks]
    n = alg.size
    ops = {}
    for sym, tab in alg.tables:

        def fn(*bargs, tab=tab):
            return p.block_of[tab.apply(n, *(reps[b] for b in bargs))]

        ops[sym] = table_from_function(len(blocks), tab.arity, fn)
    return make_algebra(f"{alg.name}/{format_partition(p)}", len(blocks), ops)


def check_homomorphism(
    src: FiniteAlgebra, dst: FiniteAlgebra, f: Sequence[int]
) -> None:
    """Raise with the first violating (symbol, args) if f is not compatible
    with every operation."""
    if len(f) != src.size or any(not 0 <= v < dst.size for v in f):
        raise NotAHomomorphismError("map is not a function into the codomain")
    if src.signature != dst.signature:
        raise NotAHomomorphismError("signatures differ")
    violation = _hom_violation(src, dst, f)
    if violation is not None:
        sym, args = violation
        raise NotAHomomorphismError(f"not compatible with {sym!r} at {args}")


def _hom_violation(src: FiniteAlgebra, dst: FiniteAlgebra, f: Sequence[int]):
    """First (symbol, args) at which f does not commute with the operation, or None."""
    for sym, tab in src.tables:
        for args in itertools.product(range(src.size), repeat=tab.arity):
            if f[tab.apply(src.size, *args)] != dst.apply(sym, *(f[x] for x in args)):
                return sym, args
    return None


def kernel(src: FiniteAlgebra, dst: FiniteAlgebra, f: Sequence[int]) -> Congruence:
    """Fiber partition of a verified homomorphism."""
    check_homomorphism(src, dst, f)
    return _closed(src, Partition.from_labels(list(f)))


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra, max_size: int = 6):
    """Exhaustive isomorphism search; returns a bijection as a tuple or None."""
    if a.size != b.size or a.signature != b.signature:
        return None
    if a.size > max_size:
        raise BudgetExceededError(f"isomorphism search limited to size {max_size}")
    for perm in itertools.permutations(range(a.size)):
        if _hom_violation(a, b, perm) is None:
            return perm
    return None


def first_iso_check(src: FiniteAlgebra, dst: FiniteAlgebra, f: Sequence[int]) -> bool:
    """Quotient by the kernel of a surjective homomorphism is isomorphic to
    the image (exhaustive search)."""
    ker = kernel(src, dst, f)
    if set(f) != set(range(dst.size)):
        raise NotAHomomorphismError("map is not surjective")
    return find_isomorphism(quotient(src, ker), dst) is not None
