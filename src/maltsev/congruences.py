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
from dataclasses import dataclass
from operator import ne
from typing import Iterator, Sequence

from .algebras import FiniteAlgebra, OperationTable, make_algebra, tuple_columns
from .errors import (
    BudgetExceededError,
    NotACongruenceError,
    NotAHomomorphismError,
    SchemaError,
)
from .words import _trusted

Labels = tuple[int, ...]

# Largest carrier whose congruence lattice is computed by default.
LATTICE_GUARD = 8

ISOMORPHISM_GUARD = 6


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
        return _trusted(Partition, block_of=_canonical(tuple(labels)))

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

    @staticmethod
    def identity(n: int) -> "Partition":
        return _trusted(Partition, block_of=tuple(range(n)))

    @staticmethod
    def total(n: int) -> "Partition":
        return _trusted(Partition, block_of=(0,) * n)

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
        return _trusted(Partition, block_of=_join(self.block_of, other.block_of))

    def meet(self, other: "Partition") -> "Partition":
        return Partition.from_labels(list(zip(self.block_of, other.block_of)))

    def refines(self, other: "Partition") -> bool:
        """Every block of self lies inside a block of other, i.e. meets
        exactly one block of other."""
        return len(set(zip(self.block_of, other.block_of))) == self.num_blocks


def _canonical(labels: tuple) -> tuple[int, ...]:
    remap: dict = {}
    return tuple(remap.setdefault(lab, len(remap)) for lab in labels)


def _join(p: Labels, q: Labels) -> Labels:
    """Join of canonical labels: a union-find over p's block ids, each linked
    to the first p-block seen with its q-label, always to the smaller id."""
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
    for b in range(len(parent)):  # parent[b] <= b: one pass finds every root
        parent[b] = parent[parent[b]]
    return _canonical(tuple(parent[b] for b in p))


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1}, as restricted-growth strings in lexicographic order."""
    stack: list[Labels] = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == n:
            yield _trusted(Partition, block_of=prefix)
        else:
            stack.extend(prefix + (b,) for b in reversed(range(max(prefix, default=-1) + 2)))


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


@dataclass(frozen=True)
class Congruence:
    """A partition compatible with every operation, checked on construction."""

    algebra: FiniteAlgebra
    partition: Partition

    def __post_init__(self):
        violation = find_compatibility_violation(self.algebra, self.partition)
        if violation is not None:
            raise NotACongruenceError(violation)


def _translations(alg: FiniteAlgebra) -> list[Labels]:
    """The distinct non-constant basic translations, each as its n values,
    in first-seen order (operation, position, fixed arguments)."""
    n = alg.size
    slices = (values for _, tab in alg.tables for _, _, values in tab.translations(n))
    return [t for t in dict.fromkeys(slices) if min(t) != max(t)]


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
    images = list(zip(range(n), *_translations(alg)))
    partition = _trusted(Partition, block_of=_closure(images, a, b))
    return _trusted(Congruence, algebra=alg, partition=partition)


def all_congruences(alg: FiniteAlgebra, max_size: int = LATTICE_GUARD) -> list[Congruence]:
    """Every congruence, as the identity and the distinct principal
    congruences closed under joins with the principal ones, sorted finest
    to coarsest (identity first, total last)."""
    if alg.size > max_size:
        raise BudgetExceededError(
            f"carrier size {alg.size} exceeds the lattice guard {max_size};"
            " raise the limit to override"
        )
    images = list(zip(range(alg.size), *_translations(alg)))
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
    partitions = [_trusted(Partition, block_of=p) for p in ordered]
    return [_trusted(Congruence, algebra=alg, partition=p) for p in partitions]


# ---------------------------------------------------------------------------
# Permutability, quotients, kernels.


def permute(alg: FiniteAlgebra, theta: Congruence, phi: Congruence) -> bool:
    """Whether theta o phi = phi o theta, by blocks (see the module docstring)."""
    p, q = theta.partition.block_of, phi.partition.block_of
    j = _join(p, q)
    theta_blocks = Counter(dict(zip(p, j)).values())
    phi_blocks = Counter(dict(zip(q, j)).values())
    return len(set(zip(p, q))) == sum(theta_blocks[b] * phi_blocks[b] for b in theta_blocks)


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
    violation = _hom_violations(src, dst)(f)
    if violation is not None:
        sym, args = violation
        raise NotAHomomorphismError(f"not compatible with {sym!r} at {args}")


def _hom_violations(src: FiniteAlgebra, dst: FiniteAlgebra):
    """The function taking f to the first (symbol, args) at which f does not
    commute with the operation, or None.  The argument columns and tables,
    which do not depend on f, are built once; each table is read lazily and
    the scan stops at the first mismatch."""
    plans = [
        (sym, tab, tuple_columns(src.size, tab.arity), dst.table(sym)) for sym, tab in src.tables
    ]

    def violation(f: Sequence[int]):
        image = f.__getitem__
        for sym, tab, columns, dst_tab in plans:
            images = dst_tab.iter_columns(
                dst.size, *(map(image, c) for c in columns), width=len(tab.entries)
            )
            mismatches = map(ne, map(image, tab.entries), images)
            i = next(itertools.compress(itertools.count(), mismatches), None)
            if i is not None:
                return sym, tab.arguments(src.size, i)
        return None

    return violation


def kernel(src: FiniteAlgebra, dst: FiniteAlgebra, f: Sequence[int]) -> Congruence:
    """Fiber partition of a verified homomorphism."""
    check_homomorphism(src, dst, f)
    return _trusted(Congruence, algebra=src, partition=Partition.from_labels(list(f)))


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra):
    """Exhaustive isomorphism search; returns a bijection as a tuple or None."""
    if a.size != b.size or a.signature != b.signature:
        return None
    if a.size > ISOMORPHISM_GUARD:
        raise BudgetExceededError(f"isomorphism search limited to size {ISOMORPHISM_GUARD}")
    violation = _hom_violations(a, b)
    for perm in itertools.permutations(range(a.size)):
        if violation(perm) is None:
            return perm
    return None


def first_iso_check(src: FiniteAlgebra, dst: FiniteAlgebra, f: Sequence[int]) -> bool:
    """Quotient by the kernel of a surjective homomorphism is isomorphic to
    the image (exhaustive search)."""
    ker = kernel(src, dst, f)
    if set(f) != set(range(dst.size)):
        raise NotAHomomorphismError("map is not surjective")
    return find_isomorphism(quotient(src, ker), dst) is not None
