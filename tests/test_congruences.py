import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maltsev import congruences
from maltsev.algebras import (
    OperationTable,
    make_algebra,
    product_algebra,
    table_from_function,
)
from maltsev.congruences import (
    Congruence,
    Partition,
    all_congruences,
    check_homomorphism,
    find_compatibility_violation,
    find_isomorphism,
    first_iso_check,
    format_partition,
    is_congruence,
    kernel,
    non_permuting_pair,
    parse_partition,
    permute,
    principal_congruence,
    quotient,
)
from maltsev.cli import run
from maltsev.errors import (
    BudgetExceededError,
    NotACongruenceError,
    NotAHomomorphismError,
    SchemaError,
)
from maltsev.termsearch import permutability_audit

from conftest import (
    all_partitions,
    apply,
    apply_table,
    bundled_algebras,
    chain_semilattice,
    compose,
    cyclic_group,
    identity_partition,
    join,
    least_relating,
    meet,
    naive_compatible,
    naive_congruences,
    permute_oracle,
    refines,
    relates,
    relation_of,
    small_algebras,
    total_partition,
)
from test_algebras import naive_translations


def naive_violation(alg, p):
    """The per-entry compatibility scan: every argument tuple, position and
    related replacement in lexicographic order, one table read each."""
    n = alg.size
    for sym, tab in alg.tables:
        k = tab.arity
        for args in itertools.product(range(n), repeat=k):
            base = apply_table(tab, n, *args)
            for pos in range(k):
                for rep in range(n):
                    if rep == args[pos] or not relates(p, args[pos], rep):
                        continue
                    changed = args[:pos] + (rep,) + args[pos + 1 :]
                    if not relates(p, base, apply_table(tab, n, *changed)):
                        return (sym, args, pos, rep)
    return None


def naive_quotient(alg, theta):
    """The quotient built one entry at a time through block representatives."""
    p = theta.partition
    reps = [block[0] for block in p.blocks()]
    ops = {}
    for sym, tab in alg.tables:

        def fn(*bargs, tab=tab):
            return p.block_of[apply_table(tab, alg.size, *(reps[b] for b in bargs))]

        ops[sym] = table_from_function(len(reps), tab.arity, fn)
    return make_algebra(f"{alg.name}/{format_partition(p)}", len(reps), ops)


def naive_hom_error(src, dst, f):
    """check_homomorphism's message for the first (symbol, args), in table
    order, at which f does not commute with the operation, one entry at a
    time; None for a homomorphism."""
    for sym, tab in src.tables:
        for args in itertools.product(range(src.size), repeat=tab.arity):
            if f[apply_table(tab, src.size, *args)] != apply(dst, sym, *(f[x] for x in args)):
                return f"not compatible with {sym!r} at {args}"
    return None


def hom_error(src, dst, f):
    try:
        check_homomorphism(src, dst, f)
    except NotAHomomorphismError as exc:
        return str(exc)
    return None


def first_rejected_pair(lattice):
    """Brute force: the first pair (i < j) that the composition oracle
    rejects, or None."""
    for i, theta in enumerate(lattice):
        for phi in lattice[i + 1 :]:
            if not permute_oracle(theta, phi):
                return theta, phi
    return None


def lattice_order(p):
    return (-p.num_blocks, p.block_of)


NULLARY_ONLY = make_algebra("nullary", 3, {"c": OperationTable(0, (2,)), "d": OperationTable(0, (0,))})
ONE_ELEMENT = make_algebra(
    "one", 1, {"f": OperationTable(1, (0,)), "m": OperationTable(3, (0,)), "c": OperationTable(0, (0,))}
)


class TestPartition:
    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            Partition((1, 0))

    def test_from_labels_renumbers(self):
        assert Partition.from_labels([5, 3, 5, 1]).block_of == (0, 1, 0, 2)

    def test_blocks(self):
        p = Partition.from_blocks(4, [[0, 2], [1, 3]])
        assert p.blocks() == ((0, 2), (1, 3))

    def test_join_meet(self):
        a = Partition.from_blocks(4, [[0, 1], [2], [3]])
        b = Partition.from_blocks(4, [[0], [1, 2], [3]])
        assert join(a, b) == Partition.from_blocks(4, [[0, 1, 2], [3]])
        assert meet(a, b) == identity_partition(4)

    def test_refines(self):
        fine = Partition.from_blocks(4, [[0], [1], [2, 3]])
        coarse = Partition.from_blocks(4, [[0, 1], [2, 3]])
        assert refines(fine, coarse)
        assert not refines(coarse, fine)

    def test_parse_format_round_trip(self):
        p = parse_partition("0,2|1,3", 4)
        assert p == Partition.from_blocks(4, [[0, 2], [1, 3]])
        assert format_partition(p) == "0,2|1,3"

    def test_parse_rejects_noncover(self):
        with pytest.raises(SchemaError):
            parse_partition("0,1", 3)

    def test_parse_rejects_junk(self):
        with pytest.raises(SchemaError):
            parse_partition("0,a|1", 2)

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([[0, 2, 2], [1, 3]], "element 2 occurs more than once"),
            ([[0, 2], [2, 1, 3]], "element 2 occurs more than once"),
            ([[0, 2], [1, 3], []], "a block is empty"),
            ([[], [0, 1, 2, 3]], "a block is empty"),
            ([[0, 4], [1, 2, 3]], "element 4 is outside 0..3"),
        ],
    )
    def test_from_blocks_names_the_problem(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            Partition.from_blocks(4, blocks)

    @pytest.mark.parametrize("text", ["0,2,2|1,3", "0,2|1,3|", "|0,2|1,3"])
    def test_parse_rejects_repeats_and_empty_blocks(self, text):
        with pytest.raises(SchemaError):
            parse_partition(text, 4)

    @pytest.mark.parametrize("text", ["0,,2|1,3", "0,2,|1,3", ",0,2|1,3", "0,2|1, ,3"])
    def test_parse_rejects_empty_elements(self, text):
        with pytest.raises(SchemaError, match="partition: empty element in block"):
            parse_partition(text, 4)

    def test_parse_allows_spaces_around_elements(self):
        assert parse_partition(" 0 , 2 | 1,3 ", 4) == parse_partition("0,2|1,3", 4)

    @pytest.mark.parametrize(
        "blocks, missing", [([[0, 2]], "1, 3"), ([[1], [2], [3]], "0"), ([], "0, 1, 2, 3")]
    )
    def test_noncover_names_the_missing_elements(self, blocks, missing):
        with pytest.raises(ValueError, match=f"blocks must cover 0..3; missing {missing}$"):
            Partition.from_blocks(4, blocks)

    def test_all_partitions_counts_are_bell_numbers(self):
        for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15)):
            assert len(list(all_partitions(n))) == bell

    def test_all_partitions_in_restricted_growth_order(self):
        # the restricted-growth strings among all label tuples, which
        # itertools.product yields in lexicographic order
        for n in range(7):
            expected = [
                labels
                for labels in itertools.product(range(n), repeat=n)
                if labels == Partition.from_labels(labels).block_of
            ]
            assert [p.block_of for p in all_partitions(n)] == expected

    def test_join_matches_connected_components(self):
        # the join relates x and y iff a path of p- and q-related steps
        # links them
        for n in (4, 5):
            partitions = list(all_partitions(n))
            for p, q in itertools.product(partitions, repeat=2):
                reach = relation_of(p) | relation_of(q)
                while (closed := reach | compose(reach, reach)) != reach:
                    reach = closed
                assert relation_of(join(p, q)) == reach, (p, q)


class TestIsCongruence:
    def test_identity_and_total_always_work(self, algebras):
        for alg in algebras.values():
            assert is_congruence(alg, identity_partition(alg.size))
            assert is_congruence(alg, total_partition(alg.size))

    def test_subgroup_cosets_on_z4(self):
        z4 = cyclic_group(4)
        assert is_congruence(z4, Partition.from_blocks(4, [[0, 2], [1, 3]]))

    def test_non_coset_partition_fails_on_z4(self):
        z4 = cyclic_group(4)
        assert not is_congruence(z4, Partition.from_blocks(4, [[0, 1], [2, 3]]))

    def test_agrees_with_naive_oracle(self, algebras):
        for name in ("z2", "z3", "z4", "chain3", "qg3"):
            alg = algebras[name]
            for p in all_partitions(alg.size):
                assert is_congruence(alg, p) == naive_compatible(alg, p)

    def test_congruence_constructor_rejects_incompatible(self):
        z4 = cyclic_group(4)
        with pytest.raises(ValueError):
            Congruence(z4, Partition.from_blocks(4, [[0, 1], [2, 3]]))

    def test_constructor_error_carries_the_violation(self):
        z4 = cyclic_group(4)
        p = Partition.from_blocks(4, [[0, 1], [2, 3]])
        with pytest.raises(NotACongruenceError) as info:
            Congruence(z4, p)
        assert info.value.violation == find_compatibility_violation(z4, p)
        assert str(info.value) == f"not a congruence: violation {info.value.violation}"

    def test_violation_is_reported(self):
        z4 = cyclic_group(4)
        v = find_compatibility_violation(z4, Partition.from_blocks(4, [[0, 1], [2, 3]]))
        assert v is not None


class TestPrincipalCongruence:
    def test_reflexive_pair_gives_identity(self):
        z4 = cyclic_group(4)
        assert principal_congruence(z4, 2, 2).partition == identity_partition(4)

    def test_z4_translation_closure(self):
        z4 = cyclic_group(4)
        theta = principal_congruence(z4, 0, 2)
        assert theta.partition == Partition.from_blocks(4, [[0, 2], [1, 3]])

    def test_chain_semilattice(self):
        chain = chain_semilattice(3)
        theta = principal_congruence(chain, 0, 1)
        assert theta.partition == Partition.from_blocks(3, [[0, 1], [2]])

    def test_matches_brute_force_oracle_on_small_algebras(self, algebras):
        for name, alg in algebras.items():
            if alg.size > 4:
                continue
            candidates = naive_congruences(alg)
            for a, b in itertools.product(range(alg.size), repeat=2):
                expected = least_relating(candidates, a, b)
                assert principal_congruence(alg, a, b).partition == expected

    @settings(max_examples=60, deadline=None)
    @given(small_algebras(st.integers(1, 4)))
    @example(NULLARY_ONLY)
    @example(ONE_ELEMENT)
    def test_matches_brute_force_oracle_on_drawn_algebras(self, alg):
        candidates = naive_congruences(alg)
        for a, b in itertools.product(range(alg.size), repeat=2):
            least = least_relating(candidates, a, b)
            assert principal_congruence(alg, a, b).partition == least, (a, b)

    def test_translations_are_the_distinct_nonconstant_ones(self, algebras):
        # x -> x meet 0 is constant and left out; Z3's two mul positions
        # give the same three translations.  Row c of the images table holds
        # c, then t[c] for each translation t.
        def translations(alg):
            identity, *rest = zip(*congruences._translations(alg))
            assert identity == tuple(range(alg.size))
            return rest

        assert translations(algebras["chain3"]) == [(0, 1, 1), (0, 1, 2)]
        assert translations(algebras["z3"]) == [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)]
        for alg in algebras.values():
            n = alg.size
            expected = {t for _, tab in alg.tables for _, _, t in naive_translations(tab, n)}
            got = translations(alg)
            assert len(got) == len(set(got))
            assert set(got) == {t for t in expected if len(set(t)) > 1}

    def test_least_property_explicitly(self, algebras):
        # Cg(a,b) is a congruence containing (a,b) and refines every
        # congruence containing (a,b); exhaustive through size 5.
        for name in ("z4", "chain3", "qg3", "mu2", "z5", "loop5"):
            alg = algebras[name]
            lattice = all_congruences(alg)
            for a in range(alg.size):
                for b in range(alg.size):
                    theta = principal_congruence(alg, a, b)
                    assert relates(theta.partition, a, b)
                    for other in lattice:
                        if relates(other.partition, a, b):
                            assert refines(theta.partition, other.partition)


class TestAllCongruences:
    def test_z4_has_exactly_three(self):
        lattice = all_congruences(cyclic_group(4))
        partitions = [format_partition(c.partition) for c in lattice]
        assert partitions == ["0|1|2|3", "0,2|1,3", "0,1,2,3"]

    def test_z3_prime_order(self):
        assert len(all_congruences(cyclic_group(3))) == 2

    def test_one_element_algebra(self):
        one = make_algebra("one", 1, {"f": table_from_function(1, 1, lambda a: a)})
        assert len(all_congruences(one)) == 1

    def test_contains_identity_and_total(self, algebras):
        for name in ("z2", "z4", "chain3", "s3"):
            lattice = [c.partition for c in all_congruences(algebras[name])]
            assert identity_partition(algebras[name].size) in lattice
            assert total_partition(algebras[name].size) in lattice

    def test_closed_under_join_and_meet(self, algebras):
        for name in ("z4", "chain3", "z6"):
            lattice = [c.partition for c in all_congruences(algebras[name])]
            for a in lattice:
                for b in lattice:
                    assert join(a, b) in lattice
                    assert meet(a, b) in lattice

    def test_matches_brute_force_enumeration(self, algebras):
        for name in ("z2", "z3", "z4", "chain3", "qg3", "mu2"):
            alg = algebras[name]
            expected = set(naive_congruences(alg))
            assert {c.partition for c in all_congruences(alg)} == expected

    def test_equals_the_sorted_partition_filter(self, algebras):
        # list and order: every partition passing is_congruence, sorted by
        # the engine's key
        for name, alg in algebras.items():
            assert alg.size <= 6
            expected = sorted(
                (p for p in all_partitions(alg.size) if is_congruence(alg, p)), key=lattice_order
            )
            assert [c.partition for c in all_congruences(alg)] == expected, name

    @settings(max_examples=60, deadline=None)
    @given(small_algebras())
    def test_equals_the_sorted_partition_filter_on_drawn_algebras(self, alg):
        expected = sorted(
            (p for p in all_partitions(alg.size) if is_congruence(alg, p)), key=lattice_order
        )
        assert [c.partition for c in all_congruences(alg)] == expected

    def test_joins_only_with_principal_congruences(self, monkeypatch):
        # every congruence is a join of principal ones, so joining each
        # congruence with each distinct principal congruence suffices:
        # |Con| * |P| joins, not |Con|^2
        joins = []
        real = congruences._join

        def counting(p, q):
            joins.append((p, q))
            return real(p, q)

        monkeypatch.setattr(congruences, "_join", counting)
        chain = chain_semilattice(8)
        lattice = all_congruences(chain)
        monkeypatch.undo()
        principal = {
            principal_congruence(chain, a, b).partition
            for a, b in itertools.combinations(range(8), 2)
        }
        assert (len(lattice), len(principal)) == (128, 28)
        assert 0 < len(joins) <= len(lattice) * len(principal)

    def test_size_guard(self):
        with pytest.raises(BudgetExceededError):
            all_congruences(cyclic_group(9))

    def test_guard_override(self):
        assert len(all_congruences(cyclic_group(9), max_size=9)) == 3

    def test_every_result_passes_the_naive_oracle(self, algebras):
        # all_congruences returns its joins unchecked; the oracle checks them
        for name, alg in algebras.items():
            for theta in all_congruences(alg):
                assert naive_compatible(alg, theta.partition), (name, theta.partition)


class TestPermutability:
    def test_compose_with_identity(self):
        z4 = cyclic_group(4)
        theta = principal_congruence(z4, 0, 2)
        r = relation_of(theta.partition)
        ident = relation_of(identity_partition(4))
        assert compose(r, ident) == r
        assert compose(ident, r) == r

    def test_matches_the_composition_oracle_on_lattices(self, algebras):
        z2 = cyclic_group(2)
        subjects = dict(algebras)
        subjects["chain5"] = chain_semilattice(5)
        subjects["Z2^3"] = product_algebra(product_algebra(z2, z2), z2)
        for name, alg in subjects.items():
            lattice = all_congruences(alg)
            for theta, phi in itertools.product(lattice, repeat=2):
                assert permute(alg, theta, phi) == permute_oracle(theta, phi), name

    def test_matches_the_composition_oracle_on_all_partitions(self):
        # under the unary identity every partition of 5 is a congruence
        ident = make_algebra("id5", 5, {"f": table_from_function(5, 1, lambda x: x)})
        lattice = [Congruence(ident, p) for p in all_partitions(5)]
        assert len(lattice) == 52
        for theta, phi in itertools.product(lattice, repeat=2):
            assert permute(ident, theta, phi) == permute_oracle(theta, phi)

    def test_all_pairs_permute_on_z4(self):
        z4 = cyclic_group(4)
        lattice = all_congruences(z4)
        for a, b in itertools.combinations(lattice, 2):
            assert permute(z4, a, b)

    def test_chain_counterexample(self):
        chain = chain_semilattice(3)
        theta1 = Congruence(chain, Partition.from_blocks(3, [[0, 1], [2]]))
        theta2 = Congruence(chain, Partition.from_blocks(3, [[0], [1, 2]]))
        assert not permute(chain, theta1, theta2)
        r, s = relation_of(theta1.partition), relation_of(theta2.partition)
        assert (0, 2) in compose(r, s)
        assert (0, 2) not in compose(s, r)

    def test_maltsev_algebras_have_permuting_congruences(self, algebras):
        # Theorem shadow: every bundled algebra carrying a ternary
        # cancellation term has a permutable congruence lattice.
        for name in ("z2", "z3", "z4", "z5", "z6", "s3", "qg3", "loop5", "mu2"):
            alg = algebras[name]
            lattice = all_congruences(alg)
            for a, b in itertools.combinations(lattice, 2):
                assert permute(alg, a, b), name


class TestNonPermutingPair:
    """The one search for a non-permuting pair, used by the CLI and the
    audit, gives the composition oracle's first rejected pair."""

    # the bundled algebras (chain3 among them) and the chains 4 to 6
    SUBJECTS = {**bundled_algebras(), **{f"chain{n}": chain_semilattice(n) for n in (4, 5, 6)}}

    @pytest.mark.parametrize("name", SUBJECTS)
    def test_first_pair_the_oracle_rejects(self, name):
        alg = self.SUBJECTS[name]
        lattice = all_congruences(alg)
        assert non_permuting_pair(alg, lattice) == first_rejected_pair(lattice)

    @settings(max_examples=60, deadline=None)
    @given(small_algebras(st.integers(1, 4)))
    def test_first_pair_the_oracle_rejects_on_drawn_algebras(self, alg):
        lattice = all_congruences(alg)
        assert non_permuting_pair(alg, lattice) == first_rejected_pair(lattice)

    @pytest.mark.parametrize("name", SUBJECTS)
    def test_cli_counterexample_is_the_pair(self, name, algebra_file):
        alg = self.SUBJECTS[name]
        argv = ["--format", "json", "algebra", "congruences", "--file", algebra_file(name, alg)]
        code, out = run([*argv, "--check-permutability"])
        record = json.loads(out)
        pair = non_permuting_pair(alg, all_congruences(alg))
        if pair is None:
            assert (code, record["permutable"], "counterexample" in record) == (0, True, False)
        else:
            assert (code, record["permutable"]) == (1, False)
            assert record["counterexample"] == [format_partition(c.partition) for c in pair]


class TestQuotient:
    def test_z4_mod_two_blocks_is_z2(self):
        z4 = cyclic_group(4)
        theta = principal_congruence(z4, 0, 2)
        q = quotient(z4, theta)
        assert q.size == 2
        assert find_isomorphism(q, cyclic_group(2)) is not None

    def test_quotient_by_identity_is_isomorphic(self):
        z4 = cyclic_group(4)
        theta = Congruence(z4, identity_partition(4))
        q = quotient(z4, theta)
        assert find_isomorphism(q, z4) is not None

    def test_quotient_by_total_is_one_element(self):
        z4 = cyclic_group(4)
        q = quotient(z4, Congruence(z4, total_partition(4)))
        assert q.size == 1

    def test_representative_independence(self, algebras):
        # Every argument tuple of the algebra, i.e. every choice of block
        # representatives, lands in the block the quotient table names; for
        # every congruence of every bundled algebra of size <= 6.
        for name, alg in algebras.items():
            if alg.size > 6:
                continue
            for theta in all_congruences(alg):
                q = quotient(alg, theta)
                block_of = theta.partition.block_of
                for sym, tab in alg.tables:
                    for args in itertools.product(range(alg.size), repeat=tab.arity):
                        expected = apply(q, sym, *(block_of[x] for x in args))
                        assert block_of[apply(alg, sym, *args)] == expected, (name, sym, args)


class TestKernel:
    def test_mod_two_map(self):
        z4, z2 = cyclic_group(4), cyclic_group(2)
        ker = kernel(z4, z2, [0, 1, 0, 1])
        assert ker.partition == Partition.from_blocks(4, [[0, 2], [1, 3]])

    def test_identity_map(self):
        z4 = cyclic_group(4)
        ker = kernel(z4, z4, [0, 1, 2, 3])
        assert ker.partition == identity_partition(4)

    def test_constant_map_to_trivial(self):
        z4 = cyclic_group(4)
        one = make_algebra(
            "one",
            1,
            {
                "mul": table_from_function(1, 2, lambda a, b: 0),
                "inv": table_from_function(1, 1, lambda a: 0),
                "e": table_from_function(1, 0, lambda: 0),
            },
        )
        ker = kernel(z4, one, [0, 0, 0, 0])
        assert ker.partition == total_partition(4)

    def test_non_homomorphism_rejected(self):
        z4, z2 = cyclic_group(4), cyclic_group(2)
        with pytest.raises(NotAHomomorphismError):
            kernel(z4, z2, [0, 0, 1, 1])


class TestFirstIso:
    def test_z4_to_z2(self):
        assert first_iso_check(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1])

    def test_identity_map(self):
        z4 = cyclic_group(4)
        assert first_iso_check(z4, z4, [0, 1, 2, 3])

    def test_z6_to_z3(self):
        assert first_iso_check(cyclic_group(6), cyclic_group(3), [0, 1, 2, 0, 1, 2])

    def test_non_surjective_rejected(self):
        z4, z2 = cyclic_group(4), cyclic_group(2)
        with pytest.raises(NotAHomomorphismError):
            first_iso_check(z4, z2, [0, 0, 0, 0])

    def test_iso_search_guard(self):
        z9 = cyclic_group(9)
        with pytest.raises(BudgetExceededError):
            find_isomorphism(z9, z9)


class TestWholeTableScans:
    """The scans over translations and columns against the per-entry scans
    they replaced."""

    @settings(max_examples=100, deadline=None)
    @given(
        small_algebras(st.integers(1, 5)),
        st.lists(st.lists(st.integers(0, 2), min_size=5, max_size=5), max_size=3),
    )
    @example(NULLARY_ONLY, [])
    @example(ONE_ELEMENT, [])
    def test_violations_and_quotients(self, alg, labellings):
        drawn = [Partition.from_labels(labels[: alg.size]) for labels in labellings]
        for p in drawn + [identity_partition(alg.size), total_partition(alg.size)]:
            assert find_compatibility_violation(alg, p) == naive_violation(alg, p), p
        for theta in all_congruences(alg):
            assert quotient(alg, theta) == naive_quotient(alg, theta), theta.partition

    @settings(max_examples=100, deadline=None)
    @given(small_algebras(st.integers(1, 4)), st.data())
    def test_homomorphism_messages(self, src, data):
        arities = [tab.arity for _, tab in src.tables]
        dst = data.draw(small_algebras(st.integers(1, 4), st.just(arities)))
        f = data.draw(st.lists(st.integers(0, dst.size - 1), min_size=src.size, max_size=src.size))
        assert hom_error(src, dst, f) == naive_hom_error(src, dst, f)
        for theta in all_congruences(src):
            q, to_q = quotient(src, theta), theta.partition.block_of
            assert hom_error(src, q, to_q) is None is naive_hom_error(src, q, to_q)
        assert hom_error(src, src, tuple(range(src.size))) is None


class TestTrustBoundary:
    """Compatibility is checked once, where a partition comes from outside,
    and never again on what the engine built itself."""

    ENGINE = {
        "principal_congruence": lambda z4: principal_congruence(z4, 0, 2),
        "all_congruences": all_congruences,
        "kernel": lambda z4: kernel(z4, cyclic_group(2), [0, 1, 0, 1]),
        "quotient": lambda z4: [quotient(z4, theta) for theta in all_congruences(z4)],
        "permutability_audit": permutability_audit,
    }

    @pytest.fixture()
    def checks(self, monkeypatch):
        calls = []
        real = congruences.find_compatibility_violation

        def counting(alg, p):
            calls.append(p)
            return real(alg, p)

        monkeypatch.setattr(congruences, "find_compatibility_violation", counting)
        return calls

    @pytest.mark.parametrize("name", ENGINE)
    def test_engine_never_rechecks(self, name, checks, algebras):
        self.ENGINE[name](algebras["z4"])
        assert checks == []

    def test_constructor_checks_once(self, checks):
        Congruence(cyclic_group(4), Partition.from_blocks(4, [[0, 2], [1, 3]]))
        assert len(checks) == 1

    @pytest.mark.parametrize("partition, code", [("0,2|1,3", 0), ("0,1|2,3", 1)])
    def test_cli_quotient_checks_once(self, partition, code, checks, algebra_file):
        argv = ["algebra", "quotient", "--file", algebra_file("z4"), "--partition", partition]
        assert run(argv)[0] == code
        assert len(checks) == 1

    def test_trusted_and_checked_compare_and_hash_equal(self):
        z4 = cyclic_group(4)
        trusted = principal_congruence(z4, 0, 2)
        checked = Congruence(z4, trusted.partition)
        assert trusted == checked
        assert hash(trusted) == hash(checked)
        assert {trusted} == {checked}
