import itertools
import random
import sys
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from maltsev import rewriting
from maltsev.errors import BudgetExceededError
from maltsev.homomorphisms import eval_term
from maltsev.rewriting import (
    MALTSEV_SYSTEM,
    RewriteSystem,
    _normalize,
    check_confluence,
    count_M,
    count_M_levels,
    critical_pairs,
    enumerate_normal_forms,
    equal_in_free,
    is_normal_form,
    level,
    normalize,
    normalize_with,
    rewrite_once,
    rewrite_once_outermost,
    unify,
)
from maltsev.sampling import axiom_walk, random_term
from maltsev.terms import (
    MU,
    App,
    Var,
    count_W,
    default_generators,
    enumerate_up_to,
    format_term,
    mu,
    parse_term,
    substitute,
    term_depth,
    term_size,
    variables,
)

from conftest import GENS3, apply, bundled_algebras, fixpoint, shared_terms, subterms, term_strategy

X, Y, Z, W = Var("x"), Var("y"), Var("z"), Var("w")


# The recursive normalizer that normalize replaced, kept as its reference.


def reference_normalize(t):
    _reference_check_mu_signature(t)
    return _reference_normalize(t)


def _reference_check_mu_signature(t):
    if isinstance(t, App):
        if t.symbol != MU or len(t.args) != 3:
            raise ValueError(f"term is not over the mu signature: {t.symbol!r}")
        for a in t.args:
            _reference_check_mu_signature(a)


def _reference_normalize(t):
    if isinstance(t, Var):
        return t
    a, b, c = (_reference_normalize(s) for s in t.args)
    if b == c:
        return a
    if a == b:
        return c
    return App(MU, (a, b, c))


def mixed_term_strategy():
    """Terms over mu and a foreign symbol f, with two or three arguments."""
    return st.recursive(
        st.sampled_from([X, Y, Z]),
        lambda children: st.builds(
            App, st.sampled_from([MU, MU, MU, "f"]), st.lists(children, min_size=2, max_size=3).map(tuple)
        ),
        max_leaves=20,
    )


def normalize_outcome(normalizer, t):
    try:
        return normalizer(t)
    except ValueError as exc:
        return str(exc)


class TestAgainstReferenceNormalizer:
    @given(term_strategy(max_leaves=60))
    def test_same_normal_form(self, t):
        assert normalize(t) == reference_normalize(t)

    @given(mixed_term_strategy())
    def test_same_first_bad_node(self, t):
        assert normalize_outcome(normalize, t) == normalize_outcome(reference_normalize, t)


@given(st.one_of(term_strategy(), shared_terms()))
def test_size_and_variables_agree_with_the_tree_walk(t):
    nodes = list(subterms(t))
    assert term_size(t) == len(nodes)
    assert variables(t) == tuple(dict.fromkeys(s.name for s in nodes if isinstance(s, Var)))


def assert_consed(t):
    """Equal subterms of t are one object."""
    assert len({id(s) for s in subterms(t)}) == len(set(subterms(t)))


class TestSharedTerms:
    """normalize and equal_in_free walk each distinct node once; on shared
    terms they agree with the recursive reference, which walks the tree,
    and with the generic rewriter."""

    @given(shared_terms())
    def test_same_normal_form(self, t):
        nf = normalize(t)
        assert nf == reference_normalize(t) == normalize_with(t, MALTSEV_SYSTEM)
        assert_consed(nf)

    @given(shared_terms(), shared_terms())
    def test_same_word_problem_answer(self, t, s):
        assert equal_in_free(t, s) == (reference_normalize(t) == reference_normalize(s))

    @given(shared_terms())
    def test_equal_to_a_distinct_copy(self, t):
        copy = parse_term(format_term(t))
        assert copy is not t
        assert equal_in_free(t, copy) and equal_in_free(copy, mu(t, Y, Y))

    def test_exponential_tree_is_linear_work(self):
        # s_{i+1} = mu(s_i, x, s_i): 200 distinct nodes, about 2^200 as a
        # tree.  Both sides are walked by node, never as trees.
        t, u = X, X
        for _ in range(200):
            t, u = mu(t, Y, t), mu(u, Var("y"), u)
        assert normalize(t) is t
        assert equal_in_free(t, mu(u, Z, Z))
        assert not equal_in_free(t, mu(u, Z, X))
        # The folds compute each of the 201 distinct nodes once: a tree
        # walk would call mu_impl about 2^200 times, so it fails at call 201.
        calls = itertools.count(1)

        def counted(a, b, c):
            assert next(calls) <= 200
            return a ^ b ^ c

        assert eval_term(t, {"x": 1, "y": 0}, counted) == 0
        assert next(calls) == 201
        assert level(t) == term_depth(t) == 200
        assert variables(t) == ("x", "y")
        assert term_size(t) == 3 * 2**200 - 2  # sizes n_{i+1} = 2 n_i + 2, n_0 = 1
        assert is_normal_form(t)
        assert term_depth(substitute(t, {"x": Z, "y": X})) == 200


def apps_built(fn, *args):
    """The value of fn(*args), and how many applications it built, counted
    by patching App.__init__."""
    built = 0
    init = App.__init__

    def counted(self, symbol, args):
        nonlocal built
        built += 1
        init(self, symbol, args)

    with mock.patch.object(App, "__init__", counted):
        value = fn(*args)
    return value, built


class TestConsTable:
    """One table serves many calls: normal forms are keyed by the ids of
    their consed arguments, and the root of a call gets no id entry."""

    def test_dropped_roots_whose_ids_are_reused(self):
        # Each root is built over a kept pool and dropped right after its
        # call, so a later root often gets the id of an earlier, different
        # one; had the table recorded roots, it would answer the old one.
        rng = random.Random(7)
        pool = list(enumerate_up_to(("x", "y"), 1))
        forms: dict = {}
        ids = set()
        for _ in range(10_000):
            root = mu(*(rng.choice(pool) for _ in range(3)))
            ids.add(id(root))
            assert _normalize(root, forms) == normalize(root)
            del root
        assert len(ids) < 5_000

    def test_consed_results_are_one_object_per_class(self):
        pool = list(enumerate_up_to(("x", "y"), 1))
        forms: dict = {}
        results = [_normalize(mu(a, b, c), forms) for a in pool for b in pool for c in pool]
        assert len({id(r) for r in results}) == len(set(results)) == count_M(2, 2)

    @given(term_strategy(max_leaves=40))
    @example(mu(mu(X, Y, Y), mu(Z, mu(X, Z, Y), X), mu(Y, Y, mu(Z, X, Z))))
    @example(parse_term("mu(" * 300 + "x" + ",y,z)" * 300))
    def test_an_equal_second_side_builds_nothing(self, t):
        # A separately parsed copy shares no object with the first side.
        # The first side remembers its normal form, so what normalizing it
        # alone builds is counted on a third copy.
        text = format_term(t)
        first, second = parse_term(text), parse_term(text)
        alone = apps_built(normalize, parse_term(text))[1]
        assert apps_built(equal_in_free, first, second) == (True, alone)

    def test_the_counter_sees_what_normalize_builds(self):
        assert apps_built(normalize, mu(mu(X, Y, Y), Z, X)) == (mu(X, Z, X), 1)


class TestRememberedNormalForms:
    """An application remembers the normal form that normalize or
    equal_in_free computed for it; _normalize never reads it, so a normal
    form kept from one table does not enter another."""

    @given(term_strategy(max_leaves=40))
    @example(parse_term("mu(" * 300 + "x" + ",y,y)" * 300))
    def test_normalize_after_equal_in_free_builds_nothing(self, t):
        text = format_term(t)
        first, second = parse_term(text), parse_term(text)
        nf = normalize(parse_term(text))
        assert equal_in_free(first, second)
        assert apps_built(normalize, first) == (nf, 0)
        assert apps_built(normalize, second) == (nf, 0)
        assert normalize(first) is normalize(first)

    @given(st.one_of(term_strategy(), shared_terms()), st.one_of(term_strategy(), shared_terms()))
    @example(mu(mu(X, Y, Z), W, W), mu(X, Y, Z))
    def test_a_kept_normal_form_from_another_table(self, t, s):
        expected = reference_normalize(t) == reference_normalize(s)
        nf = normalize(t)  # kept on t, from a table of its own
        assert equal_in_free(nf, s) == expected
        assert equal_in_free(t, s) == expected
        assert equal_in_free(s, t) == expected
        assert equal_in_free(t, nf) and equal_in_free(nf, t)
        assert normalize(t) == reference_normalize(t)
        assert normalize(s) == reference_normalize(s)

    def test_a_normal_form_keeps_no_reference_to_itself(self):
        # A cycle through t would hold it until the garbage collector ran.
        t = parse_term("mu(x,mu(x,y,z),y)")
        before = sys.getrefcount(t)
        assert equal_in_free(t, t)
        assert normalize(t) is t
        after = sys.getrefcount(t)
        assert after == before


class TestRewriteOnce:
    def test_first_rule(self):
        assert rewrite_once(mu(X, Y, Y)) == X

    def test_innermost_redex_fires_first(self):
        assert rewrite_once(mu(X, mu(Y, Z, Z), W)) == mu(X, Y, W)

    def test_irreducible(self):
        assert rewrite_once(mu(X, Y, X)) is None

    def test_second_rule(self):
        assert rewrite_once(mu(Y, Y, X)) == X

    @given(term_strategy())
    def test_step_decreases_node_count(self, t):
        r = rewrite_once(t)
        if r is None:
            assert is_normal_form(t)
        else:
            assert term_size(r) < term_size(t)


class TestNormalize:
    def test_collapse_to_generator(self):
        assert normalize(parse_term("mu(y,y,x)")) == X

    def test_inner_then_outer(self):
        assert normalize(parse_term("mu(x,mu(y,z,z),y)")) == X

    def test_already_irreducible(self):
        t = parse_term("mu(x,y,x)")
        assert normalize(t) == t

    def test_rejects_foreign_symbols(self):
        with pytest.raises(ValueError):
            normalize(App("f", (X,)))

    @given(term_strategy())
    def test_agrees_with_step_fixpoint(self, t):
        assert normalize(t) == fixpoint(t, rewrite_once)

    @given(term_strategy())
    def test_depth_never_increases(self, t):
        assert term_depth(normalize(t)) <= term_depth(t)

    @given(term_strategy())
    def test_idempotent(self, t):
        nf = normalize(t)
        assert normalize(nf) == nf
        assert is_normal_form(nf)


class TestStrategyIndependence:
    @given(term_strategy())
    def test_innermost_equals_outermost(self, t):
        assert fixpoint(t, rewrite_once) == fixpoint(t, rewrite_once_outermost)

    def test_bulk_random_terms(self):
        rng = random.Random(1)
        for _ in range(2000):
            t = random_term(rng, GENS3, 6)
            assert fixpoint(t, rewrite_once) == fixpoint(t, rewrite_once_outermost)


class TestWordProblem:
    def test_axiom_instance(self):
        assert equal_in_free(parse_term("mu(x,y,y)"), X)

    def test_distinct_normal_forms(self):
        t, s = parse_term("mu(x,y,z)"), parse_term("mu(z,y,x)")
        assert not equal_in_free(t, s)
        # cross-check: these two agree in every abelian carrier, but the
        # evaluation homomorphism into S3 (mu = p q^-1 r) separates them
        import itertools

        from maltsev.homomorphisms import eval_term

        s3 = bundled_algebras()["s3"]

        def s3_mu(p, q, r):
            return apply(s3, "mul", p, apply(s3, "mul", apply(s3, "inv", q), r))

        separated = any(
            eval_term(t, dict(zip("xyz", triple)), s3_mu)
            != eval_term(s, dict(zip("xyz", triple)), s3_mu)
            for triple in itertools.product(range(6), repeat=3)
        )
        assert separated

    @given(term_strategy())
    def test_reflexive(self, t):
        assert equal_in_free(t, t)

    @given(term_strategy(), term_strategy())
    def test_soundness_of_cancellation(self, a, b):
        assert equal_in_free(mu(a, b, b), a)
        assert equal_in_free(mu(b, b, a), a)

    def test_axiom_walks(self):
        rng = random.Random(2)
        for _ in range(2000):
            t = random_term(rng, GENS3, 4)
            s = axiom_walk(rng, t, 8, GENS3)
            assert equal_in_free(t, s)


class TestLevel:
    def test_collapsing_term(self):
        assert level(parse_term("mu(x,y,y)")) == 0

    def test_irreducible_depth_one(self):
        assert level(parse_term("mu(x,y,x)")) == 1

    @given(term_strategy())
    def test_padding_preserves_level(self, t):
        assert level(mu(t, Var("x0"), Var("x0"))) == level(t)

    def test_level_is_minimal_depth_in_class_exhaustively(self):
        # Group all terms of depth <= 2 over two generators by their class;
        # the least depth in each class must equal the level.
        by_class = defaultdict(list)
        for t in enumerate_up_to(("x", "y"), 2):
            by_class[normalize(t)].append(term_depth(t))
        for nf, depths in by_class.items():
            assert min(depths) == level(nf) == term_depth(nf)


class TestCountM:
    @pytest.mark.parametrize("m, n", [(0, 1), (1, -1)])
    def test_rejects_no_generators_or_a_negative_level(self, m, n):
        for oracle in (False, True):
            with pytest.raises(ValueError, match=r"^need m >= 1 and n >= 0$"):
                count_M(m, n, oracle=oracle)

    def test_one_generator_everything_collapses(self):
        for n in range(4):
            assert count_M(1, n) == 1
            assert count_M(1, n, oracle=True) == 1

    def test_one_generator_stops_at_its_fixed_point(self):
        # t_1 = 0 for m = 1, so the levels end after level 0 instead of
        # repeating 1 without end; count_M must not walk a billion levels
        assert list(count_M_levels(1)) == [1]
        assert count_M(1, 10**9) == 1
        assert list(itertools.islice(count_M_levels(2), 3)) == [2, 4, 38]

    def test_level_zero_is_the_generators(self):
        for m in range(1, 5):
            assert count_M(m, 0) == count_M(m, 0, oracle=True) == m

    def test_two_generators_level_one(self):
        # brute force: of the 8 depth-1 terms only mu(x,y,x) and mu(y,x,y)
        # are irreducible, plus the 2 generators
        assert count_M(2, 1) == 4

    def test_two_generators_level_two_frozen_oracle_value(self):
        # value computed once by the enumeration oracle and frozen
        assert count_M(2, 2) == 38

    @pytest.mark.parametrize(
        "m,n", [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    )
    def test_fast_mode_equals_oracle(self, m, n):
        assert count_M(m, n) == count_M(m, n, oracle=True)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_oracle_equals_the_distinct_normal_forms(self, m, n):
        # Brute force by structural equality: every term normalized on its
        # own table, the normal forms compared as trees, no id read.
        gens = default_generators(m)
        distinct = {normalize(t) for t in enumerate_up_to(gens, n)}
        assert len(distinct) == count_M(m, n, oracle=True)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1), (3, 2)])
    def test_oracle_steps_once_per_top_level_triple(self, m, n):
        # The oracle alone calls the root step without a term: once for each
        # of the S(n) - S(n-1) argument triples of level n, on every call,
        # so nothing is kept from one call to the next.
        steps = []
        root_form = rewriting._root_form

        def counted(a, b, c, forms, s=None):
            steps.append(s)
            return root_form(a, b, c, forms, s)

        with mock.patch.object(rewriting, "_root_form", counted):
            for _ in range(2):
                steps.clear()
                assert count_M(m, n, oracle=True) == count_M(m, n)
                assert steps.count(None) == count_W(m, n)

    def test_oracle_budget_boundary(self):
        # 3 + 27 + 26973 terms of depth <= 2; level 2 is guarded by the
        # budget check alone, since the oracle never enumerates it.
        with pytest.raises(BudgetExceededError) as caught:
            count_M(3, 2, oracle=True, budget=27002)
        assert str(caught.value) == "oracle enumeration needs 27003 terms > budget 27002"
        assert count_M(3, 2, oracle=True, budget=27003) == 2943

    @pytest.mark.parametrize("m,n", [(1, 0), (1, 2), (2, 1), (2, 2), (3, 1)])
    def test_oracle_equals_independent_normalization(self, m, n):
        # Each enumerated term normalized on its own by the recursive
        # reference, against the oracle's one table for the enumeration.
        gens = default_generators(m)
        reference = {reference_normalize(t) for t in enumerate_up_to(gens, n)}
        assert count_M(m, n, oracle=True) == len(reference) == count_M(m, n)

    def test_oracle_budget_is_enforced(self):
        with pytest.raises(BudgetExceededError):
            count_M(2, 3, oracle=True, budget=10**6)

    def test_oracle_budget_error_names_the_count_at_the_level(self):
        # 2 + 8 + 992 + 1006011008 terms up to level 3; past 2**2000 the
        # error names that bound instead of computing the next levels
        with pytest.raises(BudgetExceededError, match=r"needs 1006012010 terms > budget 1000$"):
            count_M(2, 3, oracle=True, budget=1000)
        with pytest.raises(BudgetExceededError, match=r"needs more than 2\*\*2000 terms"):
            count_M(2, 10**9, oracle=True, budget=1000)

    def test_enumerated_normal_forms_match_count(self):
        forms = enumerate_normal_forms(("x", "y"), 2)
        assert len(forms) == 38
        assert all(is_normal_form(t) for t in forms)


class TestConfluence:
    def test_exactly_one_nontrivial_critical_pair(self):
        pairs = critical_pairs(MALTSEV_SYSTEM)
        assert len(pairs) == 1

    def test_peak_is_the_all_equal_triple(self):
        (pair,) = critical_pairs(MALTSEV_SYSTEM)
        v = Var("v")
        peak_vars = {a for a in pair.peak.args}
        assert len(peak_vars) == 1
        assert pair.peak == mu(*([peak_vars.pop()] * 3))
        assert pair.left_result == pair.right_result
        assert pair.position == ()

    def test_report_is_locally_confluent(self):
        report = check_confluence()
        assert report.locally_confluent
        assert all(joinable for _, joinable in report.entries)

    def test_nonconfluent_system_is_detected(self):
        # f(f(x)) -> a and f(f(x)) -> b overlap at the nested position and
        # produce a genuinely non-joinable pair.
        f, a, b = lambda t: App("f", (t,)), App("a", ()), App("b", ())
        rs = RewriteSystem(
            (
                (f(f(X)), a),
                (f(f(X)), b),
            )
        )
        report = check_confluence(rs)
        assert not report.locally_confluent

    def test_unify_repeated_variables(self):
        sigma = unify(mu(X, Y, Y), mu(Var("y2"), Var("y2"), Var("x2")))
        assert sigma is not None
        # all four variables collapse to one class
        terms = {substitute(v, sigma) for v in (X, Y, Var("y2"), Var("x2"))}
        assert len(terms) == 1

    def test_unify_occurs_check(self):
        assert unify(X, mu(X, Y, Z)) is None

    def test_generic_normalization_matches_fast_path(self):
        rng = random.Random(3)
        for _ in range(300):
            t = random_term(rng, GENS3, 4)
            assert normalize_with(t, MALTSEV_SYSTEM) == normalize(t)


def triangular_unify(s, t):
    """unify as first written, kept as an oracle: a triangular substitution,
    each binding made to terms resolved by the earlier ones."""
    subst = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = resolve(a, subst), resolve(b, subst)
        if a == b:
            continue
        if isinstance(a, Var):
            if a.name in variables(b):
                return None
            subst[a.name] = b
        elif isinstance(b, Var):
            if b.name in variables(a):
                return None
            subst[b.name] = a
        elif a.symbol == b.symbol and len(a.args) == len(b.args):
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return subst


def resolve(t, subst):
    """Apply a triangular substitution until no bound variable is left."""
    while any(name in subst for name in variables(t)):
        t = substitute(t, subst)
    return t


SMALL_TERMS = term_strategy(gens=("x", "y", "z", "w"), max_leaves=8)


class TestUnify:
    @given(SMALL_TERMS, SMALL_TERMS)
    @example(mu(X, Y, Y), mu(Var("y2"), Var("y2"), Var("x2")))
    @example(mu(X, mu(Y, Z, Z), Y), mu(Z, W, mu(W, X, X)))
    @example(X, mu(X, Y, Z))
    def test_idempotent_and_agrees_with_triangular_resolution(self, s, t):
        sigma, oracle = unify(s, t), triangular_unify(s, t)
        assert (sigma is None) == (oracle is None)
        if sigma is None:
            return
        bound = set(sigma)
        assert all(bound.isdisjoint(variables(u)) for u in sigma.values())
        for name in {*variables(s), *variables(t)}:
            assert substitute(Var(name), sigma) == resolve(Var(name), oracle)
        assert substitute(s, sigma) == substitute(t, sigma)


class TestRewriteSystemInvariants:
    def test_rhs_must_shrink(self):
        with pytest.raises(ValueError):
            RewriteSystem(((X, X),))

    def test_rhs_variables_must_come_from_lhs(self):
        with pytest.raises(ValueError):
            RewriteSystem(((mu(X, Y, Y), Var("q")),))
