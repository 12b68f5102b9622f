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

A pair vector has 2n^2 coordinates.  When every value and every flat table
index fits a byte (n <= 256, and n**arity <= 256 for every table), the search
stores it as one int that packs the coordinates one byte each: the prefix
sum of flat indices along an argument tuple is int arithmetic, carrying
across no byte, and each candidate vector is one ``bytes.translate`` of that
sum through the table's entries.  Larger algebras keep tuples of ints.  Both
forms run the same loop in the same order, so they give the same outcome.
"""

from __future__ import annotations

from operator import add

from .algebras import (
    FiniteAlgebra,
    evaluate_columns,
    maltsev_columns,
    product_algebra,
)
from .errors import MaltsevError
from .terms import App, Record, Term, Var

PairVector = int | tuple[int, ...]


class SearchOutcome(Record):
    """``status`` is "found", with the witness ``term``, "none" or
    "budget-exhausted"; ``visited`` counts the pair vectors stored."""

    __slots__ = ("status", "term", "visited")


class _Form(Record):
    """How the search stores pair vectors.  ``pack`` turns coordinates into
    a stored vector and ``zero`` is the all-zero one.  Along an argument
    tuple the search keeps the prefix sum of flat table indices:
    ``scale(scaled, e)`` adds one argument vector and multiplies by n, and
    ``reader(tab)(scaled, row)`` yields the table's value vector at
    ``scaled + e`` for each e in row, lazily."""

    __slots__ = ("pack", "zero", "scale", "reader")


def _vector_form(alg: FiniteAlgebra) -> _Form:
    """Packed big-endian ints when every coordinate fits a byte, with each
    table's entries padded to 256 bytes as the ``translate`` image; tuples
    otherwise."""
    n = alg.size
    width = 2 * n * n
    if n <= 256 and all(n**tab.arity <= 256 for _, tab in alg.tables):

        def packed_reader(tab):
            image = bytes(tab.entries).ljust(256, b"\0")
            return lambda scaled, row: (
                int.from_bytes((scaled + e).to_bytes(width, "big").translate(image), "big")
                for e in row
            )

        return _Form(
            lambda coordinates: int.from_bytes(bytes(coordinates), "big"),
            0,
            lambda scaled, e: (scaled + e) * n,
            packed_reader,
        )

    def tuple_reader(tab):
        lookup = tab.entries.__getitem__
        return lambda scaled, row: (tuple(map(lookup, map(add, scaled, e))) for e in row)

    return _Form(
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
    newest level, in that same order.  Each new vector is stored at once;
    the search stops when more than ``budget`` vectors are stored (checked
    first) or the target is.  Any returned term is re-verified by one vector
    evaluation of its pair vector, on tuples.
    """
    n = alg.size
    form = _vector_form(alg)
    *columns, target = map(form.pack, maltsev_columns(n))
    index: dict[PairVector, int] = {}
    parents: list[tuple] = []
    for name, vec in zip("xyz", columns):
        if vec not in index:
            index[vec] = len(parents)
            parents.append(("gen", name))
    elements = list(index)
    if target in index:
        return _found(alg, elements, parents, index[target])

    readers = [(sym, tab, form.reader(tab)) for sym, tab in alg.tables]
    level_start = 0
    while True:
        # Arguments come from range(level_end) only, so storing at once finds
        # what storing after the whole level would find, in the same order.
        level_end = len(elements)
        for sym, tab, read in readers:
            if tab.arity:
                made = _applications(form, tab.arity, read, elements, level_start, level_end)
            elif level_start == 0:
                made = [(form.pack(tab.entries * 2 * n * n), ())]
            else:
                continue
            for vec, idxs in made:
                if vec in index:
                    continue
                index[vec] = len(elements)
                elements.append(vec)
                parents.append(("app", sym, idxs))
                if len(elements) > budget:
                    return SearchOutcome("budget-exhausted", None, len(elements))
                if vec == target:
                    return _found(alg, elements, parents, index[target])
        if len(elements) == level_end:
            return SearchOutcome("none", None, len(elements))
        level_start = level_end


def _applications(form, arity, read, elements, level_start, level_end):
    """Yield (vector, argument indices) for each k-tuple over range(level_end)
    with max >= level_start, in lexicographic order.  The flat table index of
    each coordinate is summed along the tuple's prefix, once per prefix, and
    ``read`` looks up the last argument's row against it."""
    stack = [((), form.zero, level_start)]  # depth first, so lexicographic
    while stack:
        prefix, scaled, start = stack.pop()
        if len(prefix) < arity - 1:
            stack.extend(
                (prefix + (i,), form.scale(scaled, elements[i]), 0 if i >= level_start else start)
                for i in reversed(range(level_end))
            )
            continue
        for i, vec in enumerate(read(scaled, elements[start:level_end]), start):
            yield vec, prefix + (i,)


def _found(alg, elements, parents, target_index) -> SearchOutcome:
    term = rebuild_term(parents, target_index)
    if not verify_maltsev_term(alg, term):
        raise MaltsevError("search produced an unverified term")
    return SearchOutcome("found", term, len(elements))


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
