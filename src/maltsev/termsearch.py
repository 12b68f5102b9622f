"""Deciding the existence of a ternary cancellation term for the variety
generated by a finite algebra, with witness reconstruction.

A candidate term t is constrained only through the two binary functions
t(a,b,b) and t(b,b,a), so the search runs a breadth-first subalgebra
closure over pairs of such functions.  The variable generators are
    x -> (first projection, second projection)
    y -> (second projection, second projection)
    z -> (second projection, first projection)
and a term is a witness exactly when its pair is (first, first).  When the
closure completes without reaching the target the answer is a definitive
"none"; exhausting the budget is reported as a distinct third outcome.
Each stored vector keeps its parent link, a generator's name or its
symbol and argument indexes: the links form the table from which
``terms.rebuild_term`` builds the witness.  A witness is checked once, by
``verify_maltsev_term``, where it is reported (the CLI), never again
inside the search.

A pair vector has 2n^2 coordinates, unsigned items of the narrowest width
(1, 2, 4 or 8 bytes) that holds every value and flat table index.  It is
stored only as its key, the ``bytes`` of its items in native byte order.
As ints, a key or a run of keys joined sums flat indices with no carry, so
a row is read in chunks of at most ``READ_LIMIT`` coordinates, each in one
C-level pass: the chunk's int plus the prefix sum repeated, the table read
(``bytes.translate``, or one ``struct`` pack), one unpack into keys.
"""

from __future__ import annotations

import sys
from struct import Struct

from .algebras import FiniteAlgebra, evaluate_columns, maltsev_columns, product_algebra
from .terms import Record, Term, rebuild_term

# The most coordinates one row read computes; a chunk holds one vector at least.
READ_LIMIT = 1 << 16


class SearchOutcome(Record):
    """``status`` is "found", with the witness ``term``, "none" or
    "budget-exhausted"; ``visited`` counts the pair vectors stored."""

    __slots__ = ("status", "term", "visited")


def _item_code(alg: FiniteAlgebra) -> str:
    """The ``struct`` code of the narrowest unsigned item that holds every
    value (< n) and every flat table index (< n**arity)."""
    top = max([alg.size, *(alg.size**tab.arity for _, tab in alg.tables)])
    return next(code for code in "BHIQ" if top <= 1 << 8 * Struct(code).size)


def _chunks(keys, start, end, cap, vector: Struct):
    """keys[start:end] as chunks of at most cap keys: (first, count, joined int, unpack)."""
    return [
        (i, c, int.from_bytes(b"".join(keys[i : i + c]), sys.byteorder))
        + (Struct(f"{vector.size}s" * c).unpack,)
        for i in range(start, end, cap)
        for c in [min(cap, end - i)]
    ]


def _reader(tab, vector: Struct):
    """``read(scaled, chunk)`` is the tuple of the keys of the table's value
    vectors at the flat indices ``scaled + e``, e the int of each chunk key."""
    length, code, order = vector.size, vector.format[-1], sys.byteorder
    image, lookup = code == "B" and bytes(tab.entries).ljust(256, b"\0"), tab.entries.__getitem__

    def read(scaled, chunk):
        _, count, joined, split = chunk
        total = joined + int.from_bytes(scaled.to_bytes(length, order) * count, order)
        data = total.to_bytes(count * length, order)
        if image:
            return split(data.translate(image))
        items = memoryview(data).cast(code)
        return split(Struct(f"{len(items)}{code}").pack(*map(lookup, items)))

    return read


def find_maltsev_term(alg: FiniteAlgebra, budget: int = 10**7) -> SearchOutcome:
    """Breadth-first closure of the three generator pair-vectors under the
    basic operations applied coordinatewise.

    The witness is the BFS-first one: levels are expanded in signature
    order, then in lexicographic order of argument index tuples, so reruns
    are deterministic.  A level generates only the tuples that touch the
    newest level, in that same order.  Each new vector is stored at once,
    with its argument index tuple, the only one the search builds; the
    search stops when more than ``budget`` vectors are stored (checked
    first) or the target is, and reads at most the rest of one chunk.  The
    witness is rebuilt from the parent links, not evaluated again."""
    n, width = alg.size, 2 * alg.size**2
    vector = Struct(f"{width}{_item_code(alg)}")
    *columns, target = (vector.pack(*column) for column in maltsev_columns(n))
    keys = list(dict.fromkeys(columns))  # each distinct generator once, first name first
    index = {key: i for i, key in enumerate(keys)}
    parents: list = ["xyz"[columns.index(key)] for key in keys]  # a terms.rebuild_term table
    if target in index:
        return SearchOutcome("found", rebuild_term(parents, index[target]), len(keys))

    readers = [(sym, tab, _reader(tab, vector)) for sym, tab in alg.tables]
    level_start, cap = 0, max(1, READ_LIMIT // width)
    while True:
        # Arguments come from range(level_end) only, so storing at once finds
        # what storing after the whole level would find, in the same order.
        level_end, cut = len(keys), {}

        def span(s):  # keys[s:level_end] in chunks, cut on first use
            return cut.get(s) or cut.setdefault(s, _chunks(keys, s, level_end, cap, vector))

        for sym, tab, read in readers:
            if tab.arity:
                rows = _applications(n, tab.arity, read, keys, span, level_start, level_end)
            elif level_start == 0:
                rows = [((), 0, [vector.pack(*tab.entries * width)])]
            else:
                continue
            for prefix, start, row in rows:
                for i, key in enumerate(row, start):
                    if key in index:
                        continue
                    index[key] = stored = len(keys)
                    keys.append(key)
                    parents.append((sym, *prefix, i) if tab.arity else (sym,))
                    if stored >= budget:
                        return SearchOutcome("budget-exhausted", None, stored + 1)
                    if key == target:
                        return SearchOutcome("found", rebuild_term(parents, stored), stored + 1)
        if len(keys) == level_end:
            return SearchOutcome("none", None, len(keys))
        level_start = level_end


def _applications(n, arity, read, keys, span, start, end):
    """Yield (prefix, first, row) for the k-tuples over range(end) with max
    >= start, in lexicographic order: per prefix of k - 1 indices and chunk
    of span(low) (keys[low:end], cut at its first row), the keys of prefix +
    (i,) for the chunk's i from first.  Flat indices sum by (scaled + e) * n."""
    if arity == 1:
        yield from (((), chunk[0], read(0, chunk)) for chunk in span(start))
        return
    order = sys.byteorder
    stack = [((), 0, start)]  # depth first, so lexicographic
    while stack:
        prefix, scaled, low = stack.pop()
        if len(prefix) < arity - 2:
            for i in reversed(range(end)):
                e = int.from_bytes(keys[i], order)
                stack.append((prefix + (i,), (scaled + e) * n, 0 if i >= start else low))
            continue
        for first, last, operand in ((0, start, low), (start, end, 0)):
            chunks = span(operand)
            for i in range(first, last):
                row_scaled = (scaled + int.from_bytes(keys[i], order)) * n
                for chunk in chunks:
                    yield prefix + (i,), chunk[0], read(row_scaled, chunk)


def verify_maltsev_term(alg: FiniteAlgebra, t: Term) -> bool:
    """Whether t(x,y,y) = x = t(y,y,x) holds in alg, checked on all pairs at
    once: the pair vector of t, t(a,b,b) then t(b,b,a) for each (a,b), by
    one vector evaluation of t on the generator vectors, must be the target.
    A variable other than x, y and z raises EvaluationError."""
    *columns, target = maltsev_columns(alg.size)
    return evaluate_columns(alg, t, dict(zip("xyz", columns)), len(target)) == target


def permutability_audit(alg: FiniteAlgebra) -> list[str]:
    """Check that all congruence pairs permute for the algebra, each of its
    quotients, and its square (when of at most 36 elements).  Returns one
    line per subject with a non-permuting pair, naming its first such pair
    (congruences.non_permuting_pair); empty means the audit passed."""
    from . import congruences as cong

    base = cong.all_congruences(alg)
    subjects = [cong.quotient(alg, theta) for theta in base]
    if alg.size * alg.size <= 36:
        subjects.append(product_algebra(alg, alg))
    lattices = [(alg, base)] + [
        (s, cong.all_congruences(s, max_size=max(cong.LATTICE_GUARD, s.size))) for s in subjects
    ]
    failures = []
    for subject, lattice in lattices:
        pair = cong.non_permuting_pair(subject, lattice)
        if pair:
            theta, phi = (cong.format_partition(c.partition) for c in pair)
            failures.append(f"{subject.name}: {theta} and {phi} do not permute")
    return failures
