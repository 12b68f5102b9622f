import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maltsev.algebras import (
    GROUP_AXIOMS,
    LEFT_LOOP_AXIOMS,
    Identity,
    OperationTable,
    CHUNK,
    _with_solved_divisions,
    check_identity,
    dump_algebra,
    evaluate_columns,
    is_latin_square,
    is_maltsev_operation,
    load_algebra,
    make_algebra,
    maltsev_from_group,
    maltsev_from_left_loop,
    maltsev_from_quasigroup,
    maltsev_from_retraction,
    parse_identity,
    product_algebra,
    table_from_function,
    tuple_columns,
    with_operation,
)
from maltsev.errors import ArityMismatchError, AxiomError, EvaluationError, SchemaError, UnknownSymbolError
from maltsev.homomorphisms import eval_term
from maltsev.terms import App, Var, mu, parse_term

from conftest import (
    ALGEBRAS,
    apply,
    apply_table,
    bundled_algebras,
    chain_semilattice,
    cyclic_group,
    evaluate,
    random_signature_term,
    small_algebras,
)


class TestLoadAlgebra:
    def test_round_trip(self):
        z2 = cyclic_group(2)
        assert load_algebra(dump_algebra(z2)) == z2

    def test_z2_document(self):
        doc = {
            "name": "Z2",
            "size": 2,
            "operations": [
                {"symbol": "mul", "arity": 2, "table": [0, 1, 1, 0]},
                {"symbol": "inv", "arity": 1, "table": [0, 1]},
                {"symbol": "e", "arity": 0, "table": [0]},
            ],
        }
        alg = load_algebra(doc)
        assert alg.size == 2
        assert apply(alg, "mul", 1, 1) == 0

    def test_out_of_range_entry(self):
        doc = {
            "name": "bad",
            "size": 2,
            "operations": [{"symbol": "f", "arity": 1, "table": [0, 2]}],
        }
        with pytest.raises(SchemaError) as exc:
            load_algebra(doc)
        assert "table[1]" in str(exc.value)

    def test_wrong_table_length(self):
        doc = {
            "name": "bad",
            "size": 2,
            "operations": [{"symbol": "f", "arity": 2, "table": [0, 1, 0]}],
        }
        with pytest.raises(SchemaError) as exc:
            load_algebra(doc)
        assert "expected 4" in str(exc.value)

    @pytest.mark.parametrize(
        "operations, message",
        [
            ([("f", 1, [0, 2])], "operations[0] ('f').table[1]: entry 2 out of range 0..1"),
            ([("f", 1, [0, True])], "operations[0] ('f').table[1]: entry True out of range 0..1"),
            ([("f", 2, [0, 1, 0])], "operations[0] ('f').table: table has 3 entries, expected 4"),
            # The symbol names are checked before any table.
            ([("f", 1, [5]), ("1g", 0, [0])], "operations: invalid symbol name '1g'"),
            # Tables are checked in document order.
            (
                [("f", 0, [0]), ("g", 1, [0]), ("h", 0, [9])],
                "operations[1] ('g').table: table has 1 entries, expected 2",
            ),
        ],
    )
    def test_table_errors_name_their_location(self, operations, message):
        doc = {
            "name": "bad",
            "size": 2,
            "operations": [{"symbol": s, "arity": k, "table": t} for s, k, t in operations],
        }
        with pytest.raises(SchemaError) as exc:
            load_algebra(doc)
        assert str(exc.value) == message

    def test_missing_size(self):
        with pytest.raises(SchemaError):
            load_algebra({"name": "x", "operations": []})

    def test_duplicate_symbol(self):
        doc = {
            "name": "bad",
            "size": 1,
            "operations": [
                {"symbol": "f", "arity": 0, "table": [0]},
                {"symbol": "f", "arity": 0, "table": [0]},
            ],
        }
        with pytest.raises(SchemaError):
            load_algebra(doc)

    @staticmethod
    def one_table(size, arity, table):
        return {"size": size, "operations": [{"symbol": "f", "arity": arity, "table": table}]}

    @pytest.mark.parametrize(
        "size, arity, table, expected",
        [
            (10, 100_000_000, [0], "10**100000000"),
            (10, 5000, [0], "10**5000"),
            # 3 entries have 2 bits: past arity 2 the power is not built
            (2, 3, [0, 0, 0], "2**3"),
            # a size of 4001 digits, squared, could not be printed
            (10**4000, 2, [0, 0], f"{10**4000}**2"),
        ],
    )
    def test_a_length_that_cannot_match_is_rejected_without_the_power(
        self, size, arity, table, expected
    ):
        start = time.perf_counter()
        with pytest.raises(SchemaError) as exc:
            load_algebra(self.one_table(size, arity, table))
        assert time.perf_counter() - start < 1.0
        assert exc.value.location == "operations[0] ('f').table"
        assert str(exc.value) == (
            f"operations[0] ('f').table: table has {len(table)} entries, expected {expected}"
        )

    def test_any_arity_over_one_element(self):
        alg = load_algebra(self.one_table(1, 100_000_000, [0]))
        assert alg.table("f").arity == 100_000_000

    def test_length_check_agrees_with_the_power(self):
        for size, arity, length in itertools.product(range(1, 6), range(7), range(40)):
            doc = self.one_table(size, arity, [0] * length)
            if length == size**arity:
                load_algebra(doc)
                continue
            with pytest.raises(SchemaError) as exc:
                load_algebra(doc)
            assert str(exc.value).endswith(
                (f"expected {size**arity}", f"expected {size}**{arity}")
            )


class TestOperationTable:
    def test_row_major_last_index_fastest(self):
        # table of (a, b) -> 2a + b over {0,1}: entries ordered
        # (0,0),(0,1),(1,0),(1,1); the columns hold (0,1) and (1,0)
        tab = OperationTable(2, (0, 1, 2, 3))
        assert tuple(tab.columns(2, (0, 1), (1, 0), width=2)) == (1, 2)

    def test_nullary(self):
        tab = OperationTable(0, (3,))
        assert tuple(tab.columns(5, width=2)) == (3, 3)

    def test_wrong_argument_count(self):
        with pytest.raises(ArityMismatchError):
            OperationTable(2, (0, 0, 0, 0)).columns(2, (1,), width=1)


def naive_check_identity(alg, ident):
    """Independent oracle: evaluate by explicit recursion over nested loops."""
    failures = []
    for values in itertools.product(range(alg.size), repeat=len(ident.variables)):
        env = dict(zip(ident.variables, values))
        if evaluate(alg, ident.lhs, env) != evaluate(alg, ident.rhs, env):
            failures.append(env)
    return failures[0] if failures else None


class TestCheckIdentity:
    def test_commutativity_holds_on_z3(self):
        z3 = cyclic_group(3)
        ident = parse_identity("mul(x,y)=mul(y,x)", z3.signature)
        assert check_identity(z3, ident) is None

    def test_commutativity_fails_on_s3(self):
        s3 = bundled_algebras()["s3"]
        ident = parse_identity("mul(x,y)=mul(y,x)", s3.signature)
        failure = check_identity(s3, ident)
        assert failure is not None
        a, b = failure["x"], failure["y"]
        assert apply(s3, "mul", a, b) != apply(s3, "mul", b, a)

    def test_trivial_identity(self):
        ident = parse_identity("x=x", cyclic_group(4).signature)
        assert check_identity(cyclic_group(4), ident) is None

    def test_counterexample_is_lexicographically_first(self):
        s3 = bundled_algebras()["s3"]
        ident = parse_identity("mul(x,y)=mul(y,x)", s3.signature)
        assert check_identity(s3, ident) == naive_check_identity(s3, ident)

    def test_agrees_with_naive_oracle_on_random_algebras(self):
        rng = random.Random(9)
        texts = ("f(x,y)=f(y,x)", "f(f(x,y),z)=f(x,f(y,z))", "f(x,x)=x")
        for _ in range(20):
            n = rng.randrange(2, 5)
            alg = make_algebra(
                "rand",
                n,
                {"f": table_from_function(n, 2, lambda a, b: rng.randrange(n))},
            )
            for text in texts:
                ident = parse_identity(text, alg.signature)
                assert check_identity(alg, ident) == naive_check_identity(alg, ident)

    def test_agrees_with_naive_oracle_across_chunks(self):
        # 9^4 assignments do not fit in one chunk: each chunk fixes w, the
        # first of the sorted variables.
        assert 9**3 <= CHUNK < 9**4
        z9 = cyclic_group(9)
        patched = make_algebra(
            "patched",
            9,
            {"f": table_from_function(9, 2, lambda a, b: 0 if (a, b) == (4, 7) else (a + b) % 9)},
        )
        cases = (
            (z9, "mul(w,mul(x,mul(y,z)))=mul(z,mul(y,mul(x,w)))", None),
            # fails first at the first assignment of the second chunk
            (z9, "mul(mul(w,w),mul(x,mul(y,z)))=mul(w,mul(x,mul(y,z)))", {"w": 1, "x": 0, "y": 0, "z": 0}),
            # fails first inside the fifth chunk
            (patched, "f(f(w,x),f(y,z))=f(f(x,w),f(y,z))", {"w": 4, "x": 7, "y": 0, "z": 0}),
        )
        for alg, text, failure in cases:
            ident = parse_identity(text, alg.signature)
            assert check_identity(alg, ident) == naive_check_identity(alg, ident) == failure, text
        rng = random.Random(4)
        for _ in range(4):
            alg = make_algebra(
                "rand9", 9, {"f": table_from_function(9, 2, lambda a, b: rng.randrange(9))}
            )
            lhs, rhs = (random_signature_term(rng, alg.signature, "wxyz", 3) for _ in "lr")
            ident = Identity(lhs, rhs, ("w", "x", "y", "z"))
            assert check_identity(alg, ident) == naive_check_identity(alg, ident)

    def test_only_the_last_assignment_fails(self):
        # f(a,b) = 8 exactly when a = b = 8, so the identity fails only at
        # the last of the 9^4 assignments.
        alg = make_algebra(
            "corner",
            9,
            {
                "f": table_from_function(9, 2, lambda a, b: 8 if a == b == 8 else 0),
                "c": table_from_function(9, 0, lambda: 0),
            },
        )
        ident = parse_identity("f(f(w,x),f(y,z))=c", alg.signature)
        assert check_identity(alg, ident) == {"w": 8, "x": 8, "y": 8, "z": 8}
        assert naive_check_identity(alg, ident) == {"w": 8, "x": 8, "y": 8, "z": 8}

    def test_identities_without_variables(self):
        z3 = cyclic_group(3)
        for text in ("mul(e,e)=e", "inv(e)=e", "mul(inv(e),e)=e"):
            assert check_identity(z3, parse_identity(text, z3.signature)) is None
        shifted = make_algebra(
            "shift",
            3,
            {
                "s": table_from_function(3, 1, lambda a: (a + 1) % 3),
                "c": table_from_function(3, 0, lambda: 0),
            },
        )
        ident = parse_identity("s(c)=c", shifted.signature)
        assert ident.variables == ()
        assert check_identity(shifted, ident) == {} == naive_check_identity(shifted, ident)

    def test_identity_requires_quantified_variables(self):
        with pytest.raises(ValueError):
            Identity(Var("x"), Var("y"), ("x",))


class TestIsMaltsev:
    def test_group_difference_on_z4(self):
        z4 = cyclic_group(4)
        tab = table_from_function(4, 3, lambda p, q, r: (p - q + r) % 4)
        assert is_maltsev_operation(with_operation(z4, "m", tab), "m")

    def test_projection_fails(self):
        tab = table_from_function(2, 3, lambda p, q, r: p)
        alg = make_algebra("proj", 2, {"m": tab})
        assert not is_maltsev_operation(alg, "m")

    def test_xor_on_z2(self):
        tab = table_from_function(2, 3, lambda p, q, r: p ^ q ^ r)
        alg = make_algebra("xor", 2, {"m": tab})
        assert is_maltsev_operation(alg, "m")

    def test_requires_ternary(self):
        z4 = cyclic_group(4)
        with pytest.raises(ArityMismatchError):
            is_maltsev_operation(z4, "mul")


class TestMaltsevFromGroup:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cyclic_groups(self, n):
        tab = maltsev_from_group(cyclic_group(n))
        expected = tuple(
            (a - b + c) % n
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )
        assert tab.entries == expected
        assert is_maltsev_operation(
            with_operation(cyclic_group(n), "m", tab), "m"
        )

    def test_trivial_group(self):
        tab = maltsev_from_group(cyclic_group(1))
        assert tab.entries == (0,)

    def test_nonabelian(self):
        tab = maltsev_from_group(bundled_algebras()["s3"])
        assert is_maltsev_operation(
            with_operation(bundled_algebras()["s3"], "m", tab), "m"
        )

    def test_axiom_failure_is_reported(self):
        bad = make_algebra(
            "notgroup",
            2,
            {
                "mul": table_from_function(2, 2, lambda a, b: 0),
                "inv": table_from_function(2, 1, lambda a: a),
                "e": OperationTable(0, (0,)),
            },
        )
        with pytest.raises(AxiomError):
            maltsev_from_group(bad)


class TestMaltsevFromLeftLoop:
    def test_group_in_disguise_matches_group_derivation(self):
        z4 = cyclic_group(4)
        as_loop = make_algebra(
            "z4loop",
            4,
            {
                "star": z4.table("mul"),
                "ldiv": table_from_function(4, 2, lambda x, y: (y - x) % 4),
                "e": OperationTable(0, (0,)),
            },
        )
        assert maltsev_from_left_loop(as_loop).entries == maltsev_from_group(z4).entries

    def test_one_element_loop(self):
        one = make_algebra(
            "one",
            1,
            {
                "star": OperationTable(2, (0,)),
                "ldiv": OperationTable(2, (0,)),
                "e": OperationTable(0, (0,)),
            },
        )
        assert maltsev_from_left_loop(one).entries == (0,)

    def test_nonassociative_order_five_loop(self):
        loop = bundled_algebras()["loop5"]
        # genuinely non-associative
        assoc = parse_identity("star(star(x,y),z)=star(x,star(y,z))", loop.signature)
        assert check_identity(loop, assoc) is not None
        tab = maltsev_from_left_loop(loop)
        assert is_maltsev_operation(with_operation(loop, "m", tab), "m")

    def test_axiom_failure(self):
        bad = make_algebra(
            "notloop",
            2,
            {
                "star": table_from_function(2, 2, lambda a, b: 0),
                "ldiv": table_from_function(2, 2, lambda a, b: 0),
                "e": OperationTable(0, (0,)),
            },
        )
        with pytest.raises(AxiomError):
            maltsev_from_left_loop(bad)


class TestMaltsevFromQuasigroup:
    def test_subtraction_quasigroup(self):
        tab = maltsev_from_quasigroup(bundled_algebras()["qg3"])
        expected = tuple(
            (a - b + c) % 3 for a in range(3) for b in range(3) for c in range(3)
        )
        assert tab.entries == expected

    def test_divisions_solved_from_latin_square(self):
        qg = bundled_algebras()["qg3"]
        assert {sym for sym, _ in qg.tables} == {"star"}
        tab = maltsev_from_quasigroup(qg)
        assert is_maltsev_operation(
            with_operation(qg, "m", tab), "m"
        )

    def test_group_as_quasigroup_matches_group_derivation(self):
        z5 = cyclic_group(5)
        as_qg = make_algebra("z5qg", 5, {"star": z5.table("mul")})
        assert maltsev_from_quasigroup(as_qg).entries == maltsev_from_group(z5).entries

    def test_one_element(self):
        one = make_algebra("one", 1, {"star": OperationTable(2, (0,))})
        assert maltsev_from_quasigroup(one).entries == (0,)

    def test_non_latin_square_rejected(self):
        bad = make_algebra(
            "notqg", 2, {"star": table_from_function(2, 2, lambda a, b: 0)}
        )
        with pytest.raises(AxiomError):
            maltsev_from_quasigroup(bad)

    def test_explicit_divisions_are_honored(self):
        qg = bundled_algebras()["qg3"]
        full = make_algebra(
            "qg3full",
            3,
            {
                "star": qg.table("star"),
                "ldiv": table_from_function(3, 2, lambda x, y: (x - y) % 3),
                "rdiv": table_from_function(3, 2, lambda y, x: (y + x) % 3),
            },
        )
        assert maltsev_from_quasigroup(full).entries == maltsev_from_quasigroup(qg).entries


class TestLatinSquare:
    def test_group_table_is_latin(self):
        assert is_latin_square(cyclic_group(4), "mul")

    def test_constant_is_not(self):
        alg = make_algebra("c", 2, {"star": table_from_function(2, 2, lambda a, b: 0)})
        assert not is_latin_square(alg, "star")


def naive_is_maltsev_operation(alg, symbol):
    tab, n = alg.table(symbol), alg.size
    for x in range(n):
        for y in range(n):
            if apply_table(tab, n, x, y, y) != x or apply_table(tab, n, y, y, x) != x:
                return False
    return True


def naive_is_latin_square(alg, symbol):
    tab, n = alg.table(symbol), alg.size
    full = set(range(n))
    return tab.arity == 2 and all(
        {apply_table(tab, n, i, j) for j in range(n)}
        == full
        == {apply_table(tab, n, j, i) for j in range(n)}
        for i in range(n)
    )


def naive_divisions(alg):
    """(ldiv, rdiv) entries of the Latin square star, each entry found by
    searching its row or column."""
    n = alg.size
    ldiv = table_from_function(
        n, 2, lambda x, y: next(b for b in range(n) if apply(alg, "star", x, b) == y)
    )
    rdiv = table_from_function(
        n, 2, lambda y, x: next(a for a in range(n) if apply(alg, "star", a, x) == y)
    )
    return ldiv.entries, rdiv.entries


def naive_product_algebra(a, b):
    n = a.size * b.size
    ops = {}
    for sym, tab in a.tables:

        def fn(*args, sym=sym):
            lefts = tuple(x // b.size for x in args)
            rights = tuple(x % b.size for x in args)
            return apply(a, sym, *lefts) * b.size + apply(b, sym, *rights)

        ops[sym] = table_from_function(n, tab.arity, fn)
    return make_algebra(f"{a.name}x{b.name}", n, ops)


def naive_translations(tab, n):
    """(position, index, values) of every basic translation by position, then
    fixed arguments, the index found in the lexicographic list of tuples."""
    order = {args: i for i, args in enumerate(itertools.product(range(n), repeat=tab.arity))}
    return [
        (
            pos,
            order[fixed[:pos] + (0,) + fixed[pos:]],
            tuple(apply_table(tab, n, *fixed[:pos], x, *fixed[pos:]) for x in range(n)),
        )
        for pos in range(tab.arity)
        for fixed in itertools.product(range(n), repeat=tab.arity - 1)
    ]


@st.composite
def latin_squares(draw):
    """star on 1-5 elements: a cyclic-group table with its rows, columns and
    symbols permuted, and one entry then overwritten when ``broken``."""
    n = draw(st.integers(1, 5))
    rows, cols, symbols = (draw(st.permutations(range(n))) for _ in range(3))
    entries = [symbols[(rows[a] + cols[b]) % n] for a in range(n) for b in range(n)]
    if draw(st.booleans()):
        entries[draw(st.integers(0, n * n - 1))] = draw(st.integers(0, n - 1))
    return make_algebra("drawn", n, {"star": OperationTable(2, tuple(entries))})


@st.composite
def ternary_operations(draw):
    """m on 1-4 elements: a random table, made to satisfy both cancellation
    equations when ``cancel`` and one entry then overwritten when ``broken``."""
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(0, n - 1), min_size=n**3, max_size=n**3))
    if draw(st.booleans()):
        for x, y in itertools.product(range(n), repeat=2):
            entries[(x * n + y) * n + y] = entries[(y * n + y) * n + x] = x
    if draw(st.booleans()):
        entries[draw(st.integers(0, n**3 - 1))] = draw(st.integers(0, n - 1))
    return make_algebra("drawn", n, {"m": OperationTable(3, tuple(entries))})


class TestWholeTableScans:
    """The scans over columns and translations against the per-entry scans
    they replaced, and the table readers against apply_table."""

    @settings(max_examples=100, deadline=None)
    @given(small_algebras(st.integers(1, 4)), st.lists(st.integers(0, 3), max_size=24))
    def test_readers_match_apply(self, alg, picks):
        n = alg.size
        for _, tab in alg.tables:
            k = tab.arity
            every = list(itertools.product(range(n), repeat=k))
            assert tuple_columns(n, k) == list(zip(*every))
            assert tuple(tab.columns(n, *tuple_columns(n, k), width=n**k)) == tab.entries
            assert [tab.arguments(n, i) for i in range(n**k)] == every
            assert list(tab.translations(n)) == naive_translations(tab, n)
            chosen = [every[i % len(every)] for i in picks]
            columns = [[args[i] for args in chosen] for i in range(k)]
            got = tuple(tab.columns(n, *columns, width=len(chosen)))
            assert got == tuple(apply_table(tab, n, *args) for args in chosen)

    def test_tuple_columns_match_the_argument_tuples(self):
        # The columns are built by repetition; the tuples they transpose are
        # itertools.product's, in the same order.
        for n in range(1, 7):
            for k in range(4):
                assert tuple_columns(n, k) == list(zip(*itertools.product(range(n), repeat=k)))

    @settings(max_examples=100, deadline=None)
    @given(ternary_operations())
    def test_maltsev_check(self, alg):
        assert is_maltsev_operation(alg, "m") == naive_is_maltsev_operation(alg, "m")

    @settings(max_examples=100, deadline=None)
    @given(latin_squares())
    @example(bundled_algebras()["qg3"])
    def test_latin_squares_and_divisions(self, alg):
        latin = is_latin_square(alg, "star")
        assert latin == naive_is_latin_square(alg, "star")
        if latin:
            solved = _with_solved_divisions(alg)
            expected = naive_divisions(alg)
            assert (solved.table("ldiv").entries, solved.table("rdiv").entries) == expected

    @settings(max_examples=60, deadline=None)
    @given(small_algebras(st.integers(1, 4)), st.data())
    def test_products(self, a, data):
        arities = [tab.arity for _, tab in a.tables]
        b = data.draw(small_algebras(st.integers(1, 3), st.just(arities)))
        assert product_algebra(a, b) == naive_product_algebra(a, b)
        for sym, _ in a.tables:
            assert is_latin_square(a, sym) == naive_is_latin_square(a, sym)


class TestMaltsevFromRetraction:
    def test_two_generators_identity_retraction(self):
        gens = ("x", "y")
        x, y = Var("x"), Var("y")
        r = {x: "x", y: "y", mu(x, y, x): "x", mu(y, x, y): "y"}
        tab = maltsev_from_retraction(gens, r)
        alg = make_algebra("retract", 2, {"m": tab})
        assert is_maltsev_operation(alg, "m")

    def test_one_generator_is_constant(self):
        tab = maltsev_from_retraction(("x",), {Var("x"): "x"})
        assert tab.entries == (0,)

    def test_xor_evaluation_retraction(self):
        gens = ("x", "y")
        x, y = Var("x"), Var("y")
        # retract each class by evaluating in the two-element group: the
        # depth-1 classes mu(x,y,x) and mu(y,x,y) evaluate to y and x.
        def by_xor(t):
            value = eval_term(t, {"x": 0, "y": 1}, lambda a, b, c: a ^ b ^ c)
            return "xy"[value]

        forms = {x, y, mu(x, y, x), mu(y, x, y)}
        r = {t: by_xor(t) for t in forms}
        tab = maltsev_from_retraction(gens, r)
        assert tab.entries == tuple(
            a ^ b ^ c for a in range(2) for b in range(2) for c in range(2)
        )

    def test_must_fix_generators(self):
        x, y = Var("x"), Var("y")
        r = {x: "y", y: "y", mu(x, y, x): "x", mu(y, x, y): "y"}
        with pytest.raises(AxiomError):
            maltsev_from_retraction(("x", "y"), r)

    def test_must_be_total(self):
        x, y = Var("x"), Var("y")
        with pytest.raises(AxiomError):
            maltsev_from_retraction(("x", "y"), {x: "x", y: "y"})

    def test_images_must_be_generators(self):
        x, y = Var("x"), Var("y")
        r = {x: "x", y: "y", mu(x, y, x): "x", mu(y, x, y): "w"}
        with pytest.raises(AxiomError, match="^retraction image 'w' is not a generator$"):
            maltsev_from_retraction(("x", "y"), r)


class TestProductAlgebra:
    def test_klein_four(self):
        z2 = cyclic_group(2)
        k4 = product_algebra(z2, z2)
        assert k4.size == 4
        # component-wise: (1,0) * (1,1) = (0,1)
        assert apply(k4, "mul", 2, 3) == 1

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            product_algebra(cyclic_group(2), bundled_algebras()["qg3"])


class TestEvaluate:
    def test_simple(self):
        z3 = cyclic_group(3)
        t = parse_term("mul(x,inv(y))", z3.signature)
        assert evaluate(z3, t, {"x": 1, "y": 2}) == (1 - 2) % 3


class TestEvaluateColumns:
    """The vector evaluator against evaluate at each assignment."""

    @staticmethod
    def expected(alg, t, assignments):
        return tuple(evaluate(alg, t, env) for env in assignments)

    @staticmethod
    def columns(names, assignments):
        return {v: tuple(env[v] for env in assignments) for v in names}

    def test_every_assignment_of_random_terms(self, algebras):
        rng = random.Random(7)
        for name, alg in algebras.items():
            names = ("x", "y", "z")
            assignments = [
                dict(zip(names, values))
                for values in itertools.product(range(alg.size), repeat=3)
            ]
            columns = self.columns(names, assignments)
            for _ in range(60):
                t = random_signature_term(rng, alg.signature, names, 5)
                assert evaluate_columns(alg, t, columns, len(assignments)) == self.expected(
                    alg, t, assignments
                ), (name, t)

    def test_random_assignments_of_any_width(self, algebras):
        rng = random.Random(8)
        for alg in algebras.values():
            for width in (1, 2, 7):
                assignments = [
                    {v: rng.randrange(alg.size) for v in "xy"} for _ in range(width)
                ]
                t = random_signature_term(rng, alg.signature, "xy", 4)
                got = evaluate_columns(alg, t, self.columns("xy", assignments), width)
                assert got == self.expected(alg, t, assignments)

    def test_constants_and_unary_operations(self):
        z5 = cyclic_group(5)
        assignments = [{"x": a} for a in range(5)]
        for text in ("e", "inv(e)", "inv(x)", "inv(inv(x))", "mul(inv(x),e)", "mul(e,e)"):
            t = parse_term(text, z5.signature)
            got = evaluate_columns(z5, t, self.columns("x", assignments), 5)
            assert got == self.expected(z5, t, assignments), text
        assert evaluate_columns(z5, parse_term("e", z5.signature), {}, 3) == (0, 0, 0)

    @pytest.mark.parametrize(
        "t, error",
        [
            (App("nosuch", (Var("x"),)), UnknownSymbolError),
            (App("mul", (Var("x"),)), ArityMismatchError),
            (App("e", (Var("x"),)), ArityMismatchError),
            (App("mul", (Var("x"), Var("w"))), EvaluationError),
            # the first failing node in post-order decides
            (App("mul", (App("nosuch", (Var("x"),)), Var("w"))), UnknownSymbolError),
            (App("mul", (Var("w"), App("nosuch", (Var("x"),)))), EvaluationError),
            (App("inv", (App("mul", (Var("x"),)), Var("x"))), ArityMismatchError),
        ],
    )
    def test_errors_match_the_oracle(self, t, error):
        z3 = cyclic_group(3)
        with pytest.raises(error) as want:
            evaluate(z3, t, {"x": 1})
        with pytest.raises(error) as got:
            evaluate_columns(z3, t, {"x": (0, 1, 2)}, 3)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_every_derivation_passes_the_maltsev_check():
    algs = bundled_algebras()
    derived = [
        maltsev_from_group(algs["z2"]),
        maltsev_from_group(algs["z3"]),
        maltsev_from_group(algs["z4"]),
        maltsev_from_group(algs["z5"]),
        maltsev_from_group(algs["s3"]),
        maltsev_from_left_loop(algs["loop5"]),
        maltsev_from_quasigroup(algs["qg3"]),
    ]
    sizes = (2, 3, 4, 5, 6, 5, 3)
    for tab, n in zip(derived, sizes):
        probe = make_algebra("probe", n, {"m": tab})
        assert is_maltsev_operation(probe, "m")


def test_group_axiom_list_is_checkable():
    z6 = cyclic_group(6)
    for text in GROUP_AXIOMS:
        assert check_identity(z6, parse_identity(text, z6.signature)) is None


# ---------------------------------------------------------------------------
# The documents under algebras/ are the only copy of the bundled algebras.


def holds(alg, *identities):
    return all(check_identity(alg, parse_identity(text, alg.signature)) is None for text in identities)


def assert_is_the_named_algebra(stem, alg):
    """The facts that make each bundled document the algebra its name says."""
    if stem.startswith("z"):
        assert alg == cyclic_group(int(stem[1:]))
    elif stem == "chain3":
        assert alg == chain_semilattice(3)
    elif stem == "s3":
        # the one non-abelian group of order 6
        assert alg.size == 6 and holds(alg, *GROUP_AXIOMS) and not holds(alg, "mul(x,y)=mul(y,x)")
    elif stem == "loop5":
        # a loop with identity 0 that is not associative
        assert alg.table("e").entries == (0,) and is_latin_square(alg, "star")
        assert holds(alg, *LEFT_LOOP_AXIOMS, "star(e,x)=x")
        assert apply(alg, "star", apply(alg, "star", 1, 1), 2) == 2
        assert apply(alg, "star", 1, apply(alg, "star", 1, 2)) == 4
    elif stem == "qg3":
        assert alg == make_algebra("qg3", 3, {"star": table_from_function(3, 2, lambda a, b: (a - b) % 3)})
    else:
        assert stem == "mu2"
        assert alg == make_algebra("mu2", 2, {"mu": table_from_function(2, 3, lambda a, b, c: a ^ b ^ c)})


@pytest.mark.parametrize("path", sorted(ALGEBRAS.glob("*.json")), ids=lambda path: path.stem)
def test_each_document_is_canonical_and_the_algebra_its_name_says(path):
    doc = json.loads(path.read_bytes())
    alg = load_algebra(doc)
    assert (json.dumps(dump_algebra(alg), indent=2) + "\n").encode() == path.read_bytes()
    assert_is_the_named_algebra(path.stem, alg)
    # The facts pin every table entry: no edit of one goes unnoticed.
    for op in doc["operations"]:
        for i, entry in enumerate(op["table"]):
            op["table"][i] = (entry + 1) % doc["size"]
            with pytest.raises(AssertionError):
                assert_is_the_named_algebra(path.stem, load_algebra(doc))
            op["table"][i] = entry
