"""Deciding the existence of a ternary cancellation term for the variety
generated by a finite algebra, with witness reconstruction.

A candidate term t is constrained only through the two binary functions
t(a,b,b) and t(b,b,a), so the search runs a breadth-first subalgebra
closure over pairs of such functions.  The variable generators are
    x -> (first projection, second projection)
    y -> (second projection, second projection)
    z -> (second projection, first projection)
and a term is a witness exactly when its pair is (first, first).  Each level
applies the operations only to argument tuples that touch the newest level,
in the same lexicographic order as the full product, and the search stops
at the first target or at the budget as each vector is stored.  The budget
counts stored vectors.  When the closure completes without reaching the
target the answer is a definitive "none"; exhausting the budget is reported
as a distinct third outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Literal

from .algebras import (
    FiniteAlgebra,
    evaluate,
    is_maltsev_operation,
    make_algebra,
    product_algebra,
    table_from_function,
)
from .congruences import all_congruences, permute, quotient
from .errors import EvaluationError, MaltsevError
from .terms import App, Term, Var, variables

PairVector = tuple[int, ...]

Status = Literal["found", "none", "budget-exhausted"]


@dataclass(frozen=True)
class SearchOutcome:
    status: Status
    term: Term | None
    visited: int


def _generators(n: int) -> dict[str, PairVector]:
    firsts = tuple(i // n for i in range(n * n))
    seconds = tuple(i % n for i in range(n * n))
    return {
        "x": firsts + seconds,
        "y": seconds + seconds,
        "z": seconds + firsts,
    }


def _target(n: int) -> PairVector:
    firsts = tuple(i // n for i in range(n * n))
    return firsts + firsts


def find_maltsev_term(alg: FiniteAlgebra, budget: int = 10**7) -> SearchOutcome:
    """Breadth-first closure of the three generator pair-vectors under the
    basic operations applied coordinatewise.

    The witness is the BFS-first one: levels are expanded in signature
    order, then in lexicographic order of argument index tuples, so reruns
    are deterministic.  A level generates only the tuples that touch the
    newest level, in that same order.  Each new vector is stored at once;
    the search stops when more than ``budget`` vectors are stored (checked
    first) or the target is.  Any returned term is re-verified pointwise.
    """
    n = alg.size
    target = _target(n)
    index: dict[PairVector, int] = {}
    parents: list[tuple] = []
    for name, vec in _generators(n).items():
        if vec not in index:
            index[vec] = len(parents)
            parents.append(("gen", name))
    elements = list(index)
    if target in index:
        return _found(alg, elements, parents, index[target])

    level_start = 0
    while True:
        # Arguments come from range(level_end) only, so storing at once finds
        # what storing after the whole level would find, in the same order.
        level_end = len(elements)
        for sym, tab in alg.tables:
            if tab.arity:
                made = _applications(tab, n, elements, level_start, level_end)
            elif level_start == 0:
                made = [((tab.entries[0],) * len(target), ())]
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


def _applications(tab, n, elements, level_start, level_end):
    """Yield (vector, argument indices) for each k-tuple over range(level_end)
    with max >= level_start, in lexicographic order.  The flat table index of
    each coordinate is summed along the tuple's prefix, once per prefix."""
    lookup = tab.entries.__getitem__

    def prefixes(prefix, scaled, start):
        if len(prefix) == tab.arity - 1:
            yield prefix, scaled, start
            return
        for i in range(level_end):
            scaled_i = tuple(map(n.__mul__, map(add, scaled, elements[i])))
            yield from prefixes(prefix + (i,), scaled_i, 0 if i >= level_start else start)

    for prefix, scaled, start in prefixes((), (0,) * len(elements[0]), level_start):
        for i in range(start, level_end):
            yield tuple(map(lookup, map(add, scaled, elements[i]))), prefix + (i,)


def _found(alg, elements, parents, target_index) -> SearchOutcome:
    term = rebuild_term(parents, target_index)
    if not verify_maltsev_term(alg, term):
        raise MaltsevError("search produced an unverified term")
    return SearchOutcome("found", term, len(elements))


def rebuild_term(parents: list[tuple], i: int) -> Term:
    parent = parents[i]
    if parent[0] == "gen":
        return Var(parent[1])
    _, sym, idxs = parent
    return App(sym, tuple(rebuild_term(parents, j) for j in idxs))


def replay_vector(alg: FiniteAlgebra, t: Term) -> PairVector:
    """Recompute the pair vector of a term directly; used to confirm that
    witness reconstruction matches the search state."""
    n = alg.size
    left = tuple(
        evaluate(alg, t, {"x": a, "y": b, "z": b}) for a in range(n) for b in range(n)
    )
    right = tuple(
        evaluate(alg, t, {"x": b, "y": b, "z": a}) for a in range(n) for b in range(n)
    )
    return left + right


def verify_maltsev_term(alg: FiniteAlgebra, t: Term) -> bool:
    """Build the induced ternary table of t and check both cancellation
    equations pointwise."""
    foreign = set(variables(t)) - {"x", "y", "z"}
    if foreign:
        raise EvaluationError(f"foreign variables {sorted(foreign)}")
    n = alg.size
    induced = table_from_function(
        n, 3, lambda a, b, c: evaluate(alg, t, {"x": a, "y": b, "z": c})
    )
    probe = make_algebra("induced", n, {"t": induced})
    return is_maltsev_operation(probe, "t")


def permutability_audit(
    alg: FiniteAlgebra, square_limit: int = 36, lattice_guard: int = 8
) -> list[str]:
    """Check that all congruence pairs permute for the algebra, each of its
    quotients, and its square (when within the size limit).  Returns a list
    of human-readable failures; empty means the audit passed."""
    failures: list[str] = []
    subjects: list[FiniteAlgebra] = [alg]
    base = all_congruences(alg, max_size=lattice_guard)
    subjects.extend(quotient(alg, theta) for theta in base)
    if alg.size * alg.size <= square_limit:
        subjects.append(product_algebra(alg, alg))
    for subject in subjects:
        congruences = all_congruences(subject, max_size=max(lattice_guard, subject.size))
        for i, theta in enumerate(congruences):
            for phi in congruences[i + 1 :]:
                if not permute(subject, theta, phi):
                    failures.append(
                        f"{subject.name}: congruences do not permute"
                    )
    return failures
