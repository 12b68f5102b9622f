import itertools
import json
import random
import time
import tracemalloc
from pathlib import Path
from struct import Struct
from types import SimpleNamespace

import pytest

from maltsev.algebras import (
    OperationTable,
    evaluate_columns,
    is_maltsev_operation,
    load_algebra,
    make_algebra,
    maltsev_columns,
    product_algebra,
    table_from_function,
)
from maltsev import congruences, terms, termsearch
from maltsev.errors import EvaluationError, MaltsevError
from maltsev.terms import App, Var, format_term, parse_term, variables
from maltsev.termsearch import (
    SearchOutcome,
    find_maltsev_term,
    permutability_audit,
    rebuild_term,
    verify_maltsev_term,
)

from conftest import (
    apply_table,
    bundled_algebras,
    chain_semilattice,
    cyclic_group,
    evaluate,
    permute_oracle,
    random_signature_term,
)


def reference_search(alg, budget=10**7):
    """The search as first written, kept as a slow oracle: every level
    filters the full product of argument tuples, applies each operation
    coordinate by coordinate through ``OperationTable.apply``, and buffers
    the whole level before checking the budget and the target."""
    n = alg.size
    *columns, target = maltsev_columns(n)
    gens = dict(zip("xyz", columns))
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
                    (tuple(apply_table(tab, n, *(elements[i][c] for i in idxs)) for c in range(width)), idxs)
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


def replay_vector(alg, t):
    """The pair vector of a term, t(a,b,b) then t(b,b,a) for each (a,b), by
    one vector evaluation of t on the generator vectors."""
    *columns, target = maltsev_columns(alg.size)
    return evaluate_columns(alg, t, dict(zip("xyz", columns)), len(target))


def reference_replay_vector(alg, t):
    """replay_vector as first written, kept as an oracle: one evaluate per
    coordinate."""
    n = alg.size
    left = tuple(
        evaluate(alg, t, {"x": a, "y": b, "z": b}) for a in range(n) for b in range(n)
    )
    right = tuple(
        evaluate(alg, t, {"x": b, "y": b, "z": a}) for a in range(n) for b in range(n)
    )
    return left + right


def reference_verify_maltsev_term(alg, t):
    """verify_maltsev_term as first written, kept as an oracle: the induced
    ternary table of t by one evaluate per argument triple, checked by
    is_maltsev_operation."""
    foreign = set(variables(t)) - {"x", "y", "z"}
    if foreign:
        raise EvaluationError(f"foreign variables {sorted(foreign)}")
    n = alg.size
    induced = table_from_function(
        n, 3, lambda a, b, c: evaluate(alg, t, {"x": a, "y": b, "z": c})
    )
    probe = make_algebra("induced", n, {"t": induced})
    return is_maltsev_operation(probe, "t")


def two_element_table(code):
    """The two-element ternary table whose entry at flat index i is bit i of
    code."""
    return [(code >> i) & 1 for i in range(8)]


def two_element_classes():
    """One ternary table from each class of the 192 two-element tables whose
    f(x,x,x) is not the negation of x; a class's members differ only by the
    order of f's arguments and by swapping 0 and 1."""
    seen, representatives = set(), []
    args = list(itertools.product(range(2), repeat=3))
    for code in range(256):
        table = two_element_table(code)
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


def random_ternary(n):
    rng = random.Random(n)
    return make_algebra(f"t{n}", n, {"f": OperationTable(3, tuple(rng.randrange(n) for _ in range(n**3)))})


def random_quaternary(n):
    rng = random.Random(n)
    return make_algebra(f"q{n}", n, {"f": OperationTable(4, tuple(rng.randrange(n) for _ in range(n**4)))})


def item_size(alg):
    """Bytes per coordinate of the search's pair vectors for alg."""
    return Struct(termsearch._item_code(alg)).size


class TestGenerators:
    def test_pair_vectors_of_the_three_variables(self):
        n = 2
        x, y, z, target = maltsev_columns(n)
        # index i encodes (a, b) = (i // n, i % n)
        assert x == (0, 0, 1, 1) + (0, 1, 0, 1)
        assert y == (0, 1, 0, 1) + (0, 1, 0, 1)
        assert z == (0, 1, 0, 1) + (0, 0, 1, 1)
        assert target == (0, 0, 1, 1) + (0, 0, 1, 1)

    def test_replay_matches_generator_encoding(self):
        z3 = cyclic_group(3)
        x, y, z, _ = maltsev_columns(3)
        assert replay_vector(z3, Var("x")) == x
        assert replay_vector(z3, Var("y")) == y
        assert replay_vector(z3, Var("z")) == z


class TestSearch:
    def test_finds_term_on_z2(self):
        outcome = find_maltsev_term(cyclic_group(2))
        assert outcome.status == "found"
        assert verify_maltsev_term(cyclic_group(2), outcome.term)
        # the induced table must be the three-fold xor

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

    def test_one_element_algebra_is_witnessed_by_x(self):
        # Every pair vector of a one-element algebra is the target, x's too,
        # so the search stops before its first level.
        one = make_algebra("one", 1, {"f": OperationTable(2, (0,))})
        outcome = find_maltsev_term(one)
        assert (outcome.status, outcome.term, outcome.visited) == ("found", Var("x"), 1)

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
            *_, target = maltsev_columns(alg.size)
            assert replay_vector(alg, outcome.term) == target

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

    def test_foreign_variable(self):
        with pytest.raises(EvaluationError, match="^unassigned variable 'w'$"):
            verify_maltsev_term(cyclic_group(2), Var("w"))

    def test_one_walk_per_check(self, monkeypatch):
        walks = []
        real = terms.fold

        def counting(t, leaf, apply):
            walks.append(t)
            return real(t, leaf, apply)

        monkeypatch.setattr(terms, "fold", counting)
        z3 = cyclic_group(3)
        t = parse_term("mul(x,mul(inv(y),z))", z3.signature)
        assert verify_maltsev_term(z3, t)
        with pytest.raises(EvaluationError, match="'w'"):
            verify_maltsev_term(z3, App("mul", (Var("x"), Var("w"))))
        assert len(walks) == 2 and walks[0] is t

    def test_one_column_build_per_check(self, monkeypatch):
        calls = []
        real = termsearch.maltsev_columns

        def counting(size):
            calls.append(size)
            return real(size)

        monkeypatch.setattr(termsearch, "maltsev_columns", counting)
        z3 = cyclic_group(3)
        assert verify_maltsev_term(z3, parse_term("mul(x,mul(inv(y),z))", z3.signature))
        assert not verify_maltsev_term(z3, Var("x"))
        assert calls == [3, 3]
        # the search builds the generator columns once and does not check its
        # witness again
        calls.clear()
        assert find_maltsev_term(z3).status == "found"
        assert calls == [3]


class TestAgainstPointwiseOracles:
    """replay_vector and verify_maltsev_term give what the per-assignment
    versions they replaced give."""

    def test_random_terms(self, algebras):
        rng = random.Random(11)
        for name, alg in algebras.items():
            for _ in range(40):
                t = random_signature_term(rng, alg.signature, "xyz", 5)
                assert replay_vector(alg, t) == reference_replay_vector(alg, t), (name, t)
                assert verify_maltsev_term(alg, t) == reference_verify_maltsev_term(alg, t), (name, t)

    def test_bundled_witnesses(self, algebras):
        found = 0
        for alg in algebras.values():
            outcome = find_maltsev_term(alg)
            if outcome.status == "found":
                found += 1
                assert replay_vector(alg, outcome.term) == reference_replay_vector(alg, outcome.term)
                assert verify_maltsev_term(alg, outcome.term)
                assert reference_verify_maltsev_term(alg, outcome.term)
        assert found == 9

    def test_near_misses(self):
        # Each term satisfies one cancellation equation and not the other.
        z3 = cyclic_group(3)
        for text in ("mul(x,mul(inv(y),z))", "mul(z,mul(inv(y),x))", "mul(x,mul(inv(z),y))", "x", "z"):
            t = parse_term(text, z3.signature)
            assert verify_maltsev_term(z3, t) == reference_verify_maltsev_term(z3, t), text

    @pytest.mark.parametrize(
        "t", [Var("w"), App("mul", (Var("x"),)), App("nosuch", (Var("x"), Var("y")))]
    )
    def test_errors_match(self, t):
        z2 = cyclic_group(2)
        with pytest.raises(MaltsevError) as want:
            reference_verify_maltsev_term(z2, t)
        with pytest.raises(MaltsevError) as got:
            verify_maltsev_term(z2, t)
        # The oracle walks the variables first; the vector evaluation meets a
        # foreign one as an unassigned variable.
        message = {"foreign variables ['w']": "unassigned variable 'w'"}.get(
            str(want.value), str(want.value)
        )
        assert (type(got.value), str(got.value)) == (type(want.value), message)


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

        induced = table_from_function(
            5, 3, lambda a, b, c: evaluate(z5, outcome.term, {"x": a, "y": b, "z": c})
        )
        probe = make_algebra("probe", 5, {"m": induced})
        assert is_maltsev_operation(probe, "m")


CHAIN3_AUDIT = [
    "chain3: 0,1|2 and 0|1,2 do not permute",
    "chain3/0|1|2: 0,1|2 and 0|1,2 do not permute",
    "chain3xchain3: 0,1|2|3|4|5|6|7|8 and 0|1,2|3|4|5|6|7|8 do not permute",
]


def audit_subjects(alg):
    """The audit's subjects: the algebra, its quotients and, when of at most
    36 elements, its square."""
    quotients = [congruences.quotient(alg, theta) for theta in congruences.all_congruences(alg)]
    return [alg, *quotients, *([product_algebra(alg, alg)] if alg.size**2 <= 36 else [])]


class TestTheoremShadow:
    def test_audit_passes_when_term_found(self):
        for name in ("z2", "z3", "z4", "z5", "z6", "s3", "qg3", "loop5", "mu2"):
            alg = bundled_algebras()[name]
            assert find_maltsev_term(alg).status == "found"
            assert permutability_audit(alg) == [], name

    def test_audit_covers_square_within_limit(self):
        z2 = cyclic_group(2)
        # square has size 4 <= 36, so the audit includes it; failure list empty
        assert permutability_audit(z2) == []

    def test_audit_flags_the_semilattice(self):
        assert permutability_audit(chain_semilattice(3)) == CHAIN3_AUDIT

    def test_audit_names_each_subjects_first_failing_pair(self):
        chain3 = chain_semilattice(3)
        failing = dict(
            line.removesuffix(" do not permute").split(": ") for line in permutability_audit(chain3)
        )
        subjects = audit_subjects(chain3)
        assert set(failing) <= {s.name for s in subjects}
        for subject in subjects:
            lattice = congruences.all_congruences(subject, max_size=subject.size)
            pairs = list(itertools.combinations(lattice, 2))
            if subject.name not in failing:
                assert all(permute_oracle(*pair) for pair in pairs), subject.name
                continue
            named = failing[subject.name].split(" and ")
            formatted = [[congruences.format_partition(c.partition) for c in p] for p in pairs]
            k = formatted.index(named)
            assert not permute_oracle(*pairs[k]), subject.name
            assert all(permute_oracle(*pair) for pair in pairs[:k]), subject.name

    def test_chain4_audit_names_its_six_failing_subjects(self):
        start = time.perf_counter()
        failures = permutability_audit(chain_semilattice(4))
        assert time.perf_counter() - start < 60
        assert [line.split(": ")[0] for line in failures] == [
            "chain4",
            "chain4/0|1|2|3",
            "chain4/0,1|2|3",
            "chain4/0|1,2|3",
            "chain4/0|1|2,3",
            "chain4xchain4",
        ]

    def test_one_lattice_per_subject(self, monkeypatch):
        # subjects: Z4, its three quotients and its square; the audit
        # imports all_congruences when it runs
        subjects = []
        real = congruences.all_congruences

        def counting(alg, **kwargs):
            subjects.append(alg)
            return real(alg, **kwargs)

        monkeypatch.setattr(congruences, "all_congruences", counting)
        assert permutability_audit(cyclic_group(4)) == []
        assert [alg.size for alg in subjects] == [4, 4, 2, 1, 16]


class TestAgainstReference:
    """The semi-naive engine gives the reference search's status, witness
    and visited count byte for byte, and every witness verifies."""

    @staticmethod
    def assert_same(alg, budget=10**7):
        got, want = find_maltsev_term(alg, budget), reference_search(alg, budget)
        assert got.status != "found" or verify_maltsev_term(alg, got.term), (alg.name, budget)
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

    @pytest.mark.parametrize(
        "alg, item, budgets",
        [
            # 16**2 = 256 table entries; a witness after 43 vectors
            (cyclic_group(16), 1, (4, 25, 60)),
            (cyclic_group(17), 2, (4, 25, 60)),  # 17**2 = 289
            (random_ternary(6), 1, (4, 12, 25)),  # 6**3 = 216
            (random_ternary(7), 2, (4, 12, 25)),  # 7**3 = 343
            # only a nullary table, so n**arity = 1, but 299 fits no byte
            (make_algebra("c300", 300, {"c": OperationTable(0, (299,))}), 2, (10,)),
            (random_quaternary(16), 2, (4, 12)),  # 16**4 = 65 536
            (random_quaternary(17), 4, (4, 12)),  # 17**4 = 83 521
        ],
        ids=["z16", "z17", "ternary6", "ternary7", "constant300", "quaternary16", "quaternary17"],
    )
    def test_both_sides_of_the_byte_limit(self, alg, item, budgets):
        # Each side of the one- and two-byte item limits.
        assert item_size(alg) == item
        for budget in budgets:
            self.assert_same(alg, budget)

    @pytest.mark.parametrize(
        "size, arity, item",
        [(256, 1, 1), (257, 1, 2), (2, 8, 1), (2, 9, 2), (2, 16, 2), (2, 17, 4), (2, 32, 4), (2, 33, 8), (2, 64, 8)],
    )
    def test_item_width_holds_every_flat_index(self, size, arity, item):
        # Only the size and the arities decide, so no table is built.
        alg = SimpleNamespace(size=size, tables=[("f", SimpleNamespace(arity=arity))])
        assert item_size(alg) == item


def outcome_row(alg, budget=10**7):
    """The search's status, visited count and witness text; a witness must
    verify, since the search does not check it again."""
    outcome = find_maltsev_term(alg, budget)
    if outcome.status == "found":
        assert verify_maltsev_term(alg, outcome.term), (alg.name, budget)
    return [outcome.status, outcome.visited, outcome.term and format_term(outcome.term)]


class TestGolden:
    """Status, visited count and witness text of every two-element ternary
    table, and of random_binary_3 at three budgets, as
    ``termsearch_golden.json`` records them; each witness verifies.  The
    reference search would take up to 1.7 s on one negated-diagonal table."""

    GOLDEN = json.loads((Path(__file__).parent / "termsearch_golden.json").read_text())

    def test_every_two_element_ternary_table(self):
        got = [
            outcome_row(make_algebra("t", 2, {"f": OperationTable(3, two_element_table(code))}))
            for code in range(256)
        ]
        assert got == self.GOLDEN["two_element_ternary"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_three_element_algebras(self, seed):
        got = {str(b): outcome_row(random_binary_3(seed), b) for b in (4, 50, 300)}
        assert got == self.GOLDEN["random_binary_3"][str(seed)]


def chunk_vectors(alg):
    """Vectors per chunk of a row read: READ_LIMIT coordinates, at least one
    vector of 2n^2."""
    return max(1, termsearch.READ_LIMIT // (2 * alg.size**2))


def z5_variant():
    """Z5 with mul entry 6 set to 0: a closure that outgrows any budget
    tried, whose fourth level holds 3 595 vectors."""
    doc = json.loads((Path(__file__).parent.parent / "algebras" / "z5.json").read_text())
    doc["operations"][0]["table"][6] = 0
    return load_algebra(doc)


def affine(n):
    """The quasigroup 2x - y mod n."""
    return make_algebra(f"aff{n}", n, {"f": table_from_function(n, 2, lambda a, b: (2 * a - b) % n)})


@pytest.fixture()
def reads(monkeypatch):
    """The number of keys each row read computes, in order."""
    counts, real = [], termsearch._reader

    def spying(tab, vector):
        read = real(tab, vector)

        def counting(scaled, chunk):
            row = read(scaled, chunk)
            counts.append(len(row))
            return row

        return counting

    monkeypatch.setattr(termsearch, "_reader", spying)
    return counts


@pytest.fixture(params=[1, 2, 3], ids=["1-vector", "2-vector", "3-vector"])
def small_chunks(request, monkeypatch, reads):
    """Every search reads its rows in chunks of 1, 2 or 3 vectors, whatever
    the algebra's width: the tests' find_maltsev_term sets READ_LIMIT to
    that many vectors' coordinates first, and checks every read."""
    real = find_maltsev_term

    def search(alg, budget=10**7):
        monkeypatch.setattr(termsearch, "READ_LIMIT", request.param * 2 * alg.size**2)
        outcome = real(alg, budget)
        assert chunk_vectors(alg) == request.param
        assert max(reads, default=0) <= request.param
        return outcome

    monkeypatch.setitem(globals(), "find_maltsev_term", search)
    return request.param


@pytest.mark.usefixtures("small_chunks")
class TestGoldenInSmallChunks(TestGolden):
    """The golden outcomes, with rows cut at every 1, 2 or 3 vectors."""


@pytest.mark.usefixtures("small_chunks")
class TestAgainstReferenceInSmallChunks(TestAgainstReference):
    """The reference outcomes, with rows cut at every 1, 2 or 3 vectors."""

    test_item_width_holds_every_flat_index = None  # it runs no search


class TestChunks:
    @pytest.mark.parametrize("vectors", [None, 64], ids=["default", "64-vector"])
    def test_rows_across_many_chunks(self, monkeypatch, vectors):
        # The budget runs out in the fourth level's rows, each over 3 682
        # vectors: 3 chunks at the default 1 310 vectors, and 58 at 64.
        alg = z5_variant()
        if vectors:
            monkeypatch.setattr(termsearch, "READ_LIMIT", vectors * 2 * 5**2)
        assert chunk_vectors(alg) == (vectors or 1310)
        outcome = find_maltsev_term(alg, budget=5000)
        assert (outcome.status, outcome.visited) == ("budget-exhausted", 5001)

    @pytest.mark.parametrize(
        "alg, budget, status",
        [(z5_variant(), 5000, "budget-exhausted"), (affine(17), 10**7, "found")],
        ids=["z5-variant", "affine17"],
    )
    def test_no_read_exceeds_the_limit(self, reads, alg, budget, status):
        # 2x - y mod 17 has two-byte items and 113-vector chunks, and finds
        # its witness after 288 vectors.
        assert find_maltsev_term(alg, budget).status == status
        assert max(reads) == chunk_vectors(alg) > 1
        assert max(reads) * 2 * alg.size**2 <= termsearch.READ_LIMIT

    def test_constants_alone_build_no_chunks(self, monkeypatch):
        # Only a nullary table: no row is read, so no level cuts its keys
        # into chunks (four 180 000-coordinate ints here).
        built = []
        real = termsearch._chunks
        monkeypatch.setattr(termsearch, "_chunks", lambda *args: built.append(args) or real(*args))
        alg = make_algebra("c300", 300, {"c": OperationTable(0, (299,))})
        assert find_maltsev_term(alg).status == "none"
        assert built == []
        find_maltsev_term(cyclic_group(3))
        assert built


class TestWorkBound:
    @pytest.fixture()
    def work(self, monkeypatch, reads):
        """What the search applies its operations to.  ``tuples`` holds each
        argument tuple as the search takes its vector from a row; ``reads``
        the number of keys each row read computes, so a read that runs ahead
        of the search shows there, by less than one chunk."""
        work = SimpleNamespace(tuples=[], reads=reads)
        real = termsearch._applications

        def taking(prefix, start, row):
            for i, key in enumerate(row, start):
                work.tuples.append(prefix + (i,))
                yield key

        def counting(*args):
            for prefix, start, row in real(*args):
                yield prefix, start, taking(prefix, start, row)

        monkeypatch.setattr(termsearch, "_applications", counting)
        return work

    @staticmethod
    def assert_work(work, alg, read, taken):
        assert (sum(work.reads), len(work.tuples)) == (read, taken)
        assert 0 <= sum(work.reads) - len(work.tuples) < chunk_vectors(alg)

    def test_work_stops_at_the_budget(self, work):
        # The reference search applies f to 21 025 argument tuples here: it
        # finishes the level that crosses the budget before checking it.
        # The search reads the row that crosses it to its end.
        alg = random_binary_3(2)
        outcome = find_maltsev_term(alg, budget=300)
        assert outcome.status == "budget-exhausted"
        self.assert_work(work, alg, 410, 356)
        assert len(work.tuples) <= 2 * 300
        assert sum(work.reads) <= 2 * 300

    @pytest.mark.parametrize("n, visited", [(5, 42), (17, 43)], ids=["one-byte", "two-byte"])
    def test_work_stops_at_the_witness(self, work, n, visited):
        # The witness is met partway through a row, whose read computes 2
        # keys past it.
        alg = cyclic_group(n)
        assert item_size(alg) == (1 if n * n <= 256 else 2)
        outcome = find_maltsev_term(alg)
        assert (outcome.status, outcome.visited) == ("found", visited)
        self.assert_work(work, alg, 81, 79)

    @pytest.mark.parametrize("n", [3, 17], ids=["one-byte", "two-byte"])
    def test_each_argument_tuple_is_applied_once(self, work, n):
        # A completed closure has applied its one binary operation to every
        # pair of its vectors, and to none twice.
        alg = chain_semilattice(n)
        assert item_size(alg) == (1 if n * n <= 256 else 2)
        outcome = find_maltsev_term(alg)
        assert (outcome.status, outcome.visited) == ("none", 6)
        assert sorted(work.tuples) == list(itertools.product(range(6), repeat=2))
        self.assert_work(work, alg, 36, 36)


def test_search_memory_on_a_wide_carrier():
    # 300 elements and one constant: four pair vectors of 180 000 two-byte
    # coordinates.  Keeping coordinates as tuples of ints peaked at 13.0 MB.
    alg = make_algebra("c300", 300, {"c": OperationTable(0, (299,))})
    tracemalloc.start()
    try:
        outcome = find_maltsev_term(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcome.status, outcome.visited) == ("none", 4)
    assert peak < 10 * 10**6


def test_search_memory_across_many_chunks():
    # 20 001 pair vectors of 50 one-byte coordinates.  Keeping each vector
    # as an int beside its key peaked at 7.40 MB; keys alone peak at 6.23.
    alg = z5_variant()
    tracemalloc.start()
    try:
        outcome = find_maltsev_term(alg, budget=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcome.status, outcome.visited) == ("budget-exhausted", 20001)
    assert peak < 7.0 * 10**6
