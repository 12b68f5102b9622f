"""Partitions and congruences of finite algebras: principal congruences by
translation closure, lattices from joins with principal congruences,
permutability by blocks, quotients and kernels.

Cg(a,b) closes {a,b} under (c,d) -> (t[c], t[d]) over the distinct
non-constant translations t.  Every congruence is the join of the Cg(a,b)
of its pairs, so join-irreducibles are principal, and the identity and the
distinct principal congruences P closed under joins with P alone give every
congruence, in |Con|*|P| joins.  theta o phi = phi o theta iff theta o phi
= theta v phi (commuting, it is transitive and symmetric; equal to the join,
it is symmetric, and its converse is phi o theta), iff in each block J of
theta v phi every theta-block meets every phi-block, iff the distinct
(theta, phi) label pairs number the sum over J of #theta(J) * #phi(J).

Canonical labels and compatibility are checked once, where a partition comes
from outside (the Partition and Congruence constructors, check_homomorphism
for kernel); what the engine builds has both by construction, unchecked.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import ne
from typing import Sequence

from .algebras import FiniteAlgebra, OperationTable, make_algebra, tuple_columns
from .errors import (
    BudgetExceededError,
    NotACongruenceError,
    NotAHomomorphismError,
    SchemaError,
)
from .terms import Record, _trusted

Labels = tuple[int, ...]

# Largest carrier whose congruence lattice is computed by default.
LATTICE_GUARD = 8


class Partition(Record):
    """Block index per element, with blocks numbered by least element in
    ascending order (canonical form)."""

    __slots__ = ("block_of",)

    def __init__(self, block_of: tuple[int, ...]):
        if block_of != _canonical(block_of):
            raise ValueError("partition encoding is not canonical")
        super().__init__(block_of)

    @staticmethod
    def from_labels(labels: Sequence[int]) -> "Partition":
        return _trusted(Partition, _canonical(tuple(labels)))

    @staticmethod
    def from_blocks(n: int, blocks: Sequence[Sequence[int]]) -> "Partition":
        labels = [-1] * n
        for i, block in enumerate(blocks):
            if not block:
                raise ValueError("a block is empty")
            for x in block:
                if not 0 <= x < n:
                    raise ValueError(f"element {x} is outside 0..{n - 1}")
                if labels[x] != -1:
                    raise ValueError(f"element {x} occurs more than once")
                labels[x] = i
        missing = [x for x, label in enumerate(labels) if label == -1]
        if missing:
            raise ValueError(
                f"blocks must cover 0..{n - 1}; missing {', '.join(map(str, missing))}"
            )
        return Partition.from_labels(labels)

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


def _canonical(labels: tuple) -> tuple[int, ...]:
    remap: dict = {}
    return tuple(remap.setdefault(lab, len(remap)) for lab in labels)


def _join(p: Labels, q: Labels) -> Labels:
    """Canonical labels of the join of p and q; p must be canonical, q may be
    any labels.  A union-find over p's block ids links each to the first
    p-block seen with its q-label, always the larger root to the smaller.  So
    each root is the least p-block of its class, and as p numbers its blocks
    by least element, that block holds the class's least element: the
    classes in canonical order are the roots in ascending order, and one
    pass over the parent array ranks them, with no relabelling pass."""
    parent = list(range(max(p, default=-1) + 1))
    first: dict[int, int] = {}
    for x, y in zip(p, q):
        r = first.setdefault(y, x)
        while parent[r] != r:
            r = parent[r]
        while parent[x] != x:
            x = parent[x]
        if r < x:
            parent[x] = r
        elif x < r:
            parent[r] = x
    roots = 0
    for b, a in enumerate(parent):  # a < b unless b is a root: a holds its rank
        if a == b:
            parent[b], roots = roots, roots + 1
        else:
            parent[b] = parent[a]
    return tuple(map(parent.__getitem__, p))


def parse_partition(text: str, n: int) -> Partition:
    """Blocks separated by '|', elements by ',' (e.g. "0,2|1,3").  A blank
    block is an empty block; a blank element inside a block is an error."""
    blocks: list[list[int]] = []
    for chunk in text.split("|"):
        elements = chunk.split(",") if chunk.strip() else []
        if "" in (x.strip() for x in elements):
            raise SchemaError(f"empty element in block {chunk!r}", "partition")
        try:
            blocks.append([int(x) for x in elements])
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
    change breaks compatibility, or None; single-coordinate compatibility
    suffices.  A translation mapping every block into one block holds none;
    the first is the least over the others of their least breaking pair."""
    if p.size != alg.size:
        raise ValueError("partition size does not match carrier")
    n, label, blocks = alg.size, p.block_of, p.num_blocks
    pairs = [(x, y) for x, y in itertools.permutations(range(n), 2) if label[x] == label[y]]
    for sym, tab in alg.tables:
        found = []
        for pos, index, values in tab.translations(n):
            image = [label[v] for v in values]
            if len(set(zip(label, image))) > blocks:
                x, rep = next((x, y) for x, y in pairs if image[x] != image[y])
                args = tab.arguments(n, index)
                found.append((args[:pos] + (x,) + args[pos + 1 :], pos, rep))
        if found:
            return (sym, *min(found))
    return None


def is_congruence(alg: FiniteAlgebra, p: Partition) -> bool:
    return find_compatibility_violation(alg, p) is None


class Congruence(Record):
    """A partition compatible with every operation, checked on construction."""

    __slots__ = ("algebra", "partition")

    def __init__(self, algebra: FiniteAlgebra, partition: Partition):
        violation = find_compatibility_violation(algebra, partition)
        if violation is not None:
            raise NotACongruenceError(violation)
        super().__init__(algebra, partition)


def _translations(alg: FiniteAlgebra) -> list[Labels]:
    """The images table of the distinct non-constant basic translations:
    images[c] is c, then t[c] for each translation t, in first-seen order
    (operation, position, fixed arguments)."""
    n = alg.size
    slices = (values for _, tab in alg.tables for _, _, values in tab.translations(n))
    translations = [t for t in dict.fromkeys(slices) if min(t) != max(t)]
    return list(zip(range(n), *translations))


def _closure(images: list[Labels], a: int, b: int) -> Labels:
    """Labels of Cg(a,b); images[c] is c, then each t[c].  A popped pair
    merges itself and its images; a merge relabels the smaller block."""
    label = list(range(len(images)))
    members = [[x] for x in label]
    pending = [(a, b)]
    while pending:
        c, d = pending.pop()
        for x, y in zip(images[c], images[d]):
            big, small = label[x], label[y]
            if big != small:
                if len(members[big]) < len(members[small]):
                    big, small = small, big
                for z in members[small]:
                    label[z] = big
                members[big] += members[small]
                pending.append((x, y))
    return _canonical(tuple(label))


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Least congruence merging a and b (translation-closure fixpoint)."""
    n = alg.size
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"pair ({a},{b}) outside the carrier 0..{n - 1}")
    partition = _trusted(Partition, _closure(_translations(alg), a, b))
    return _trusted(Congruence, alg, partition)


def all_congruences(alg: FiniteAlgebra, max_size: int = LATTICE_GUARD) -> list[Congruence]:
    """Every congruence, as the identity and the distinct principal
    congruences closed under joins with the principal ones, sorted finest
    to coarsest (identity first, total last)."""
    if alg.size > max_size:
        raise BudgetExceededError(
            f"carrier size {alg.size} exceeds the lattice guard {max_size};"
            " raise the limit to override"
        )
    images = _translations(alg)
    principal = {_closure(images, a, b) for a, b in itertools.combinations(range(alg.size), 2)}
    lattice = [tuple(range(alg.size)), *principal]
    known = set(lattice)
    for p in lattice:  # grows as joins find new congruences
        for q in principal:
            j = _join(p, q)
            if j not in known:
                known.add(j)
                lattice.append(j)
    ordered = sorted(known, key=lambda p: (-max(p), p))
    partitions = [_trusted(Partition, p) for p in ordered]
    return [_trusted(Congruence, alg, p) for p in partitions]


# ---------------------------------------------------------------------------
# Permutability, quotients, kernels.


def permute(alg: FiniteAlgebra, theta: Congruence, phi: Congruence) -> bool:
    """Whether theta o phi = phi o theta, by blocks (see the module docstring)."""
    p, q = theta.partition.block_of, phi.partition.block_of
    j = _join(p, q)
    theta_blocks = Counter(dict(zip(p, j)).values())
    phi_blocks = Counter(dict(zip(q, j)).values())
    return len(set(zip(p, q))) == sum(theta_blocks[b] * phi_blocks[b] for b in theta_blocks)


def non_permuting_pair(alg: FiniteAlgebra, lattice: Sequence[Congruence]):
    """The first pair of lattice, in itertools.combinations order, that does
    not permute, or None when every pair permutes."""
    pairs = itertools.combinations(lattice, 2)
    return next((pair for pair in pairs if not permute(alg, *pair)), None)


def quotient(alg: FiniteAlgebra, theta: Congruence) -> FiniteAlgebra:
    """Carrier of blocks in canonical order, tables induced through the
    least element of each block.  The choice of representative does not
    matter because theta is a congruence."""
    p = theta.partition
    reps = [block[0] for block in p.blocks()]
    m = len(reps)
    ops = {}
    for sym, tab in alg.tables:
        columns = ([reps[b] for b in c] for c in tuple_columns(m, tab.arity))
        values = tab.columns(alg.size, *columns, width=m**tab.arity)
        ops[sym] = OperationTable(tab.arity, tuple(map(p.block_of.__getitem__, values)))
    return make_algebra(f"{alg.name}/{format_partition(p)}", m, ops)


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
    """The first (symbol, args) at which f does not commute with the
    operation, or None.  Each table is read lazily by columns and the scan
    stops at the first mismatch."""
    image = f.__getitem__
    for sym, tab in src.tables:
        columns = tuple_columns(src.size, tab.arity)
        images = dst.table(sym).columns(
            dst.size, *(map(image, c) for c in columns), width=len(tab.entries)
        )
        mismatches = map(ne, map(image, tab.entries), images)
        i = next(itertools.compress(itertools.count(), mismatches), None)
        if i is not None:
            return sym, tab.arguments(src.size, i)
    return None


def kernel(src: FiniteAlgebra, dst: FiniteAlgebra, f: Sequence[int]) -> Congruence:
    """Fiber partition of a verified homomorphism."""
    check_homomorphism(src, dst, f)
    return _trusted(Congruence, src, Partition.from_labels(list(f)))


def first_iso_check(src: FiniteAlgebra, dst: FiniteAlgebra, f: Sequence[int]) -> bool:
    """Quotient by the kernel of a surjective homomorphism is isomorphic to
    the image through the induced map, block -> f(least element): whether
    that map is injective and a homomorphism from the quotient to dst."""
    ker = kernel(src, dst, f)
    if set(f) != set(range(dst.size)):
        raise NotAHomomorphismError("map is not surjective")
    induced = [f[block[0]] for block in ker.partition.blocks()]
    injective = len(set(induced)) == len(induced)
    return injective and _hom_violation(quotient(src, ker), dst, induced) is None
