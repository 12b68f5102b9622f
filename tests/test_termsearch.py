import pytest

from maltsev.algebras import is_maltsev_operation, make_algebra, table_from_function
from maltsev.catalog import bundled_algebras, chain_semilattice, cyclic_group
from maltsev import termsearch
from maltsev.errors import EvaluationError, MaltsevError
from maltsev.terms import Var, format_term, parse_term
from maltsev.termsearch import (
    find_maltsev_term,
    permutability_audit,
    replay_vector,
    verify_maltsev_term,
    _generators,
    _target,
)


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
