import itertools
import random

import pytest

from maltsev.algebras import (
    OperationTable,
    is_maltsev_operation,
    make_algebra,
    table_from_function,
)
from maltsev.catalog import bundled_algebras, chain_semilattice, cyclic_group
from maltsev import termsearch
from maltsev.errors import EvaluationError, MaltsevError
from maltsev.terms import Var, format_term, parse_term
from maltsev.termsearch import (
    SearchOutcome,
    find_maltsev_term,
    permutability_audit,
    rebuild_term,
    replay_vector,
    verify_maltsev_term,
    _generators,
    _target,
)


def reference_search(alg, budget=10**7):
    """The search as first written, kept as a slow oracle: every level
    filters the full product of argument tuples, applies each operation
    coordinate by coordinate through ``OperationTable.apply``, and buffers
    the whole level before checking the budget and the target."""
    n = alg.size
    gens = _generators(n)
    target = _target(n)
    elements, parents, index = [], [], {}

    def add(vec, parent):
        if vec not in index:
            index[vec] = len(elements)
            elements.append(vec)
            parents.append(parent)

    for name in ("x", "y", "z"):
        add(gens[name], ("gen", name))
    if target in index:
        return SearchOutcome("found", rebuild_term(parents, index[target]), len(elements))
    width = 2 * n * n
    level_start = 0
    first_round = True
    while True:
        level_end = len(elements)
        buffer, buffered = [], set()
        for sym, tab in alg.tables:
            if tab.arity == 0:
                candidates = [((tab.entries[0],) * width, ())] if first_round else []
            else:
                candidates = (
                    (tuple(tab.apply(n, *(elements[i][c] for i in idxs)) for c in range(width)), idxs)
                    for idxs in itertools.product(range(level_end), repeat=tab.arity)
                    if max(idxs) >= level_start
                )
            for vec, idxs in candidates:
                if vec not in index and vec not in buffered:
                    buffer.append((vec, ("app", sym, idxs)))
                    buffered.add(vec)
        if not buffer:
            return SearchOutcome("none", None, len(elements))
        for vec, parent in buffer:
            add(vec, parent)
            if len(elements) > budget:
                return SearchOutcome("budget-exhausted", None, len(elements))
            if vec == target:
                return SearchOutcome("found", rebuild_term(parents, index[target]), len(elements))
        level_start = level_end
        first_round = False


def two_element_classes():
    """One ternary table from each class of the 192 two-element tables whose
    f(x,x,x) is not the negation of x; a class's members differ only by the
    order of f's arguments and by swapping 0 and 1."""
    seen, representatives = set(), []
    args = list(itertools.product(range(2), repeat=3))
    for code in range(256):
        table = [(code >> i) & 1 for i in range(8)]
        if (table[0], table[7]) == (1, 0) or code in seen:
            continue
        representatives.append(tuple(table))
        for order in itertools.permutations(range(3)):
            for swap in (0, 1):
                moved = {tuple(a[k] ^ swap for k in order): table[i] ^ swap for i, a in enumerate(args)}
                seen.add(sum(moved[a] << i for i, a in enumerate(args)))
    return representatives


def random_binary_3(seed):
    rng = random.Random(seed)
    return make_algebra(f"r3-{seed}", 3, {"f": OperationTable(2, tuple(rng.randrange(3) for _ in range(9)))})


class TestGenerators:
    def test_pair_vectors_of_the_three_variables(self):
        n = 2
        gens = _generators(n)
        # index i encodes (a, b) = (i // n, i % n)
        assert gens["x"] == (0, 0, 1, 1) + (0, 1, 0, 1)
        assert gens["y"] == (0, 1, 0, 1) + (0, 1, 0, 1)
        assert gens["z"] == (0, 1, 0, 1) + (0, 0, 1, 1)
        assert _target(n) == (0, 0, 1, 1) + (0, 0, 1, 1)

    def test_replay_matches_generator_encoding(self):
        z3 = cyclic_group(3)
        assert replay_vector(z3, Var("x")) == _generators(3)["x"]
        assert replay_vector(z3, Var("y")) == _generators(3)["y"]
        assert replay_vector(z3, Var("z")) == _generators(3)["z"]


class TestSearch:
    def test_finds_term_on_z2(self):
        outcome = find_maltsev_term(cyclic_group(2))
        assert outcome.status == "found"
        assert verify_maltsev_term(cyclic_group(2), outcome.term)
        # the induced table must be the three-fold xor
        from maltsev.algebras import evaluate

        for a in range(2):
            for b in range(2):
                for c in range(2):
                    env = {"x": a, "y": b, "z": c}
                    assert evaluate(cyclic_group(2), outcome.term, env) == a ^ b ^ c

    def test_finds_term_on_z3(self):
        outcome = find_maltsev_term(cyclic_group(3))
        assert outcome.status == "found"
        assert verify_maltsev_term(cyclic_group(3), outcome.term)

    def test_semilattice_definitive_none(self):
        outcome = find_maltsev_term(chain_semilattice(3))
        assert outcome.status == "none"
        assert outcome.term is None

    def test_pure_ternary_algebra_hits_in_first_layer(self):
        mu2 = bundled_algebras()["mu2"]
        outcome = find_maltsev_term(mu2)
        assert outcome.status == "found"
        assert format_term(outcome.term) == "mu(x,y,z)"

    def test_budget_exhaustion_is_distinct(self):
        outcome = find_maltsev_term(cyclic_group(3), budget=4)
        assert outcome.status == "budget-exhausted"
        assert outcome.term is None

    def test_witness_replay(self):
        for alg in (cyclic_group(2), cyclic_group(3), bundled_algebras()["qg3"]):
            outcome = find_maltsev_term(alg)
            assert outcome.status == "found"
            assert replay_vector(alg, outcome.term) == _target(alg.size)

    def test_decision_invariant_under_operation_reordering(self):
        for name in ("z2", "z3", "chain3", "qg3", "loop5"):
            alg = bundled_algebras()[name]
            reordered = make_algebra(
                alg.name + "_r", alg.size, dict(reversed(alg.tables))
            )
            first = find_maltsev_term(alg)
            second = find_maltsev_term(reordered)
            assert first.status == second.status
            if first.status == "found":
                assert verify_maltsev_term(alg, first.term)
                assert verify_maltsev_term(reordered, second.term)

    def test_search_is_deterministic(self):
        first = find_maltsev_term(cyclic_group(3))
        second = find_maltsev_term(cyclic_group(3))
        assert format_term(first.term) == format_term(second.term)
        assert first.visited == second.visited

    def test_closure_size_on_none_outcome(self):
        # chain3 closure: the pairs of min-terms reachable from the three
        # generators; completing without the target is the "none" proof
        outcome = find_maltsev_term(chain_semilattice(3))
        assert outcome.visited >= 3


class TestVerify:
    def test_group_term(self):
        z3 = cyclic_group(3)
        t = parse_term("mul(x,mul(inv(y),z))", z3.signature)
        assert verify_maltsev_term(z3, t)

    def test_projection_is_rejected(self):
        assert not verify_maltsev_term(cyclic_group(2), Var("x"))

    def test_quasigroup_paper_term(self):
        qg = bundled_algebras()["qg3"]
        # build the algebra with divisions solved, then check the derived term
        full = make_algebra(
            "qg3full",
            3,
            {
                "star": qg.table("star"),
                "ldiv": table_from_function(3, 2, lambda x, y: (x - y) % 3),
                "rdiv": table_from_function(3, 2, lambda y, x: (y + x) % 3),
            },
        )
        t = parse_term("star(rdiv(x,ldiv(y,y)),ldiv(y,z))", full.signature)
        assert verify_maltsev_term(full, t)

    def test_unverified_witness_is_an_error_not_an_assert(self, monkeypatch):
        # A check that must also hold under python -O.
        monkeypatch.setattr(termsearch, "verify_maltsev_term", lambda alg, t: False)
        with pytest.raises(MaltsevError, match="unverified"):
            find_maltsev_term(cyclic_group(2))

    def test_foreign_variable(self):
        with pytest.raises(EvaluationError):
            verify_maltsev_term(cyclic_group(2), Var("w"))


class TestSoundness:
    def test_found_terms_always_verify(self):
        for name in ("z2", "z3", "z4", "z5", "qg3", "loop5", "mu2", "s3"):
            alg = bundled_algebras()[name]
            outcome = find_maltsev_term(alg)
            assert outcome.status == "found", name
            assert verify_maltsev_term(alg, outcome.term), name

    def test_found_term_induces_maltsev_table(self):
        z5 = cyclic_group(5)
        outcome = find_maltsev_term(z5)
        from maltsev.algebras import evaluate

        induced = table_from_function(
            5, 3, lambda a, b, c: evaluate(z5, outcome.term, {"x": a, "y": b, "z": c})
        )
        probe = make_algebra("probe", 5, {"m": induced})
        assert is_maltsev_operation(probe, "m")


class TestTheoremShadow:
    def test_audit_passes_when_term_found(self):
        for name in ("z2", "z3"):
            alg = bundled_algebras()[name]
            assert find_maltsev_term(alg).status == "found"
            assert permutability_audit(alg) == []

    def test_audit_covers_square_within_limit(self):
        z2 = cyclic_group(2)
        # square has size 4 <= 36, so the audit includes it; failure list empty
        assert permutability_audit(z2, square_limit=36) == []

    def test_audit_flags_the_semilattice(self):
        assert permutability_audit(chain_semilattice(3)) != []


class TestAgainstReference:
    """The semi-naive engine gives the reference search's status, witness
    and visited count byte for byte."""

    @staticmethod
    def assert_same(alg, budget=10**7):
        got, want = find_maltsev_term(alg, budget), reference_search(alg, budget)
        assert (got.status, got.term and format_term(got.term), got.visited) == (
            want.status,
            want.term and format_term(want.term),
            want.visited,
        ), (alg.name, budget)

    def test_bundled_algebras(self):
        for name, alg in bundled_algebras().items():
            if name != "s3":
                self.assert_same(alg)

    def test_two_element_ternary_classes(self):
        classes = two_element_classes()
        assert len(classes) == 33
        for table in classes:
            self.assert_same(make_algebra("t", 2, {"f": OperationTable(3, table)}))

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_small_budget(self, n):
        for budget in range(1, 41):
            self.assert_same(cyclic_group(n), budget)

    @pytest.mark.parametrize("budget", [4, 50, 300])
    def test_random_three_element_algebra(self, budget):
        self.assert_same(random_binary_3(2), budget)


class TestWorkBound:
    @pytest.fixture()
    def applications(self, monkeypatch):
        made = []
        real = termsearch._applications

        def counting(*args):
            for vec, idxs in real(*args):
                made.append(idxs)
                yield vec, idxs

        monkeypatch.setattr(termsearch, "_applications", counting)
        return made

    def test_work_stops_at_the_budget(self, applications):
        # The reference search applies f to 21 025 argument tuples here: it
        # finishes the level that crosses the budget before checking it.
        outcome = find_maltsev_term(random_binary_3(2), budget=300)
        assert outcome.status == "budget-exhausted"
        assert len(applications) <= 2 * 300

    def test_each_argument_tuple_is_applied_once(self, applications):
        # A completed closure has applied its one binary operation to every
        # pair of its vectors, and to none twice.
        outcome = find_maltsev_term(chain_semilattice(3))
        assert outcome.status == "none"
        assert sorted(applications) == list(itertools.product(range(outcome.visited), repeat=2))
