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
A witness is checked once, by ``verify_maltsev_term``, where it is reported
(the CLI), never again inside the search.

A pair vector has 2n^2 coordinates.  When every value and every flat table
index fits a byte (n <= 256, and n**arity <= 256 for every table), a vector
is keyed by the ``bytes`` of its coordinates, and a stored one is also kept
as the big-endian int they spell, so that the prefix sum of flat indices
along an argument tuple is int arithmetic, carrying across no byte.  A row
of candidates is one lazy C-level pass, ``int.to_bytes`` of each sum then
``bytes.translate`` through the table's entries.  Larger algebras keep
tuples of ints.  Both forms run the same loop in the same order, so they
give the same outcome.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import add

from .algebras import (
    FiniteAlgebra,
    evaluate_columns,
    maltsev_columns,
    product_algebra,
)
from .terms import App, Record, Term, Var

PairVector = bytes | tuple[int, ...]


class SearchOutcome(Record):
    """``status`` is "found", with the witness ``term``, "none" or
    "budget-exhausted"; ``visited`` counts the pair vectors stored."""

    __slots__ = ("status", "term", "visited")


class _Form(Record):
    """How the search stores pair vectors.  ``key`` turns coordinates into
    the vector's key in the search's index, ``element`` turns a key into the
    form kept for arithmetic, and ``zero`` is the all-zero element.  Along
    an argument tuple the search keeps the prefix sum of flat table indices:
    ``scale(scaled, e)`` adds one argument element and multiplies by n, and
    ``reader(tab)(scaled, row)`` maps each element e of row to the key of
    the table's value vector at ``scaled + e``, lazily."""

    __slots__ = ("key", "element", "zero", "scale", "reader")


def _vector_form(alg: FiniteAlgebra) -> _Form:
    """``bytes`` keys and int elements when every coordinate fits a byte,
    with each table's entries padded to 256 bytes as the ``translate``
    image; tuples, as both key and element, otherwise."""
    n = alg.size
    width = 2 * n * n
    if n <= 256 and all(n**tab.arity <= 256 for _, tab in alg.tables):

        def packed_reader(tab):
            image = repeat(bytes(tab.entries).ljust(256, b"\0"))
            return lambda scaled, row: map(
                bytes.translate,
                map(int.to_bytes, map(scaled.__add__, row), repeat(width), repeat("big")),
                image,
            )

        return _Form(
            bytes,
            partial(int.from_bytes, byteorder="big"),
            0,
            lambda scaled, e: (scaled + e) * n,
            packed_reader,
        )

    def tuple_reader(tab):
        lookup = tab.entries.__getitem__
        return lambda scaled, row: (tuple(map(lookup, map(add, scaled, e))) for e in row)

    return _Form(
        tuple,
        tuple,
        (0,) * width,
        lambda scaled, e: tuple(map(n.__mul__, map(add, scaled, e))),
        tuple_reader,
    )


def find_maltsev_term(alg: FiniteAlgebra, budget: int = 10**7) -> SearchOutcome:
    """Breadth-first closure of the three generator pair-vectors under the
    basic operations applied coordinatewise.

    The witness is the BFS-first one: levels are expanded in signature
    order, then in lexicographic order of argument index tuples, so reruns
    are deterministic.  A level generates only the tuples that touch the
    newest level, in that same order.  Each new vector is stored at once,
    with its argument index tuple, the only one the search builds; the
    search stops when more than ``budget`` vectors are stored (checked
    first) or the target is, and reads no row further.  The witness is
    rebuilt from the parent links and not evaluated again: its pair vector
    is the target by construction.  ``verify_maltsev_term`` is the
    independent check, made where a witness is reported.
    """
    n = alg.size
    form = _vector_form(alg)
    *columns, target = map(form.key, maltsev_columns(n))
    index: dict[PairVector, int] = {}
    parents: list[tuple] = []
    for name, key in zip("xyz", columns):
        if key not in index:
            index[key] = len(parents)
            parents.append(("gen", name))
    elements = list(map(form.element, index))
    if target in index:
        return SearchOutcome("found", rebuild_term(parents, index[target]), len(elements))

    readers = [(sym, tab, form.reader(tab)) for sym, tab in alg.tables]
    element = form.element
    level_start = 0
    while True:
        # Arguments come from range(level_end) only, so storing at once finds
        # what storing after the whole level would find, in the same order.
        level_end = len(elements)
        for sym, tab, read in readers:
            if tab.arity:
                rows = _applications(form, tab.arity, read, elements, level_start, level_end)
            elif level_start == 0:
                rows = [((), 0, [form.key(tab.entries * 2 * n * n)])]
            else:
                continue
            for prefix, start, row in rows:
                for i, key in enumerate(row, start):
                    if key in index:
                        continue
                    index[key] = stored = len(elements)
                    elements.append(element(key))
                    parents.append(("app", sym, prefix + (i,) if tab.arity else ()))
                    if stored >= budget:
                        return SearchOutcome("budget-exhausted", None, stored + 1)
                    if key == target:
                        return SearchOutcome("found", rebuild_term(parents, stored), stored + 1)
        if len(elements) == level_end:
            return SearchOutcome("none", None, len(elements))
        level_start = level_end


def _applications(form, arity, read, elements, level_start, level_end):
    """Yield (prefix, start, row) for the k-tuples over range(level_end) with
    max >= level_start, in lexicographic order: one per prefix of k - 1
    indices, whose ``row`` lazily reads the keys of prefix + (i,) for i from
    start to level_end.  Flat table indices are summed along the prefix,
    once per prefix, and the second-to-last argument is a plain loop."""
    if arity == 1:
        yield (), level_start, read(form.zero, elements[level_start:level_end])
        return
    stack = [((), form.zero, level_start)]  # depth first, so lexicographic
    while stack:
        prefix, scaled, start = stack.pop()
        if len(prefix) < arity - 2:
            stack.extend(
                (prefix + (i,), form.scale(scaled, elements[i]), 0 if i >= level_start else start)
                for i in reversed(range(level_end))
            )
            continue
        tail, whole = elements[start:level_end], elements[:level_end]
        for i in range(level_end):
            row_start, row = (0, whole) if i >= level_start else (start, tail)
            yield prefix + (i,), row_start, read(form.scale(scaled, elements[i]), row)


def rebuild_term(parents: list[tuple], i: int) -> Term:
    """The term of vector i, expanded from the parent links; each index is
    built once, after its arguments, and shared where it recurs."""
    built: dict[int, Term] = {}
    stack = [i]
    while stack:
        kind, *link = parents[stack[-1]]
        if kind == "app" and (todo := [k for k in link[1] if k not in built]):
            stack += todo
            continue
        j = stack.pop()
        if kind == "gen":
            built[j] = Var(link[0])
        else:
            built[j] = App(link[0], tuple(map(built.__getitem__, link[1])))
    return built[i]


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
