import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maltsev import homomorphisms
from maltsev.algebras import Identity, check_identity, make_algebra, table_from_function
from maltsev.errors import BudgetExceededError, EvaluationError
from maltsev.homomorphisms import (
    check_injectivity_on_M1,
    eval_term,
    hom_to_group,
    separating_hom,
)
from maltsev.rewriting import enumerate_normal_forms, normalize
from maltsev.sampling import random_term
from maltsev.terms import MU, Var, fold, mu, parse_term, variables
from maltsev.words import HeapWord, Letter, format_word, heap_mu

from conftest import (
    GENS3,
    alphabet_strategy,
    build_dag,
    dag_recipes,
    reference_hom_to_group,
    term_strategy,
    tree_format_term,
    tree_hom_to_group,
)

X, Y, Z = Var("x"), Var("y"), Var("z")


def factors_through_normalization(t, assignment, mu_impl) -> bool:
    """Well-definedness of the universal extension for this carrier."""
    return eval_term(t, assignment, mu_impl) == eval_term(normalize(t), assignment, mu_impl)


def distinguish_in_small_groups(t, s) -> bool:
    """Search the evaluation homomorphisms into the two- and three-element
    cyclic groups, with mu(a,b,c) = a - b + c, for one separating t from s
    (all assignments tried, as vectors)."""
    ident = Identity(t, s, tuple(sorted(set(variables(t)) | set(variables(s)))))
    for m in (2, 3):
        heap = table_from_function(m, 3, lambda a, b, c: (a - b + c) % m)
        if check_identity(make_algebra(f"Z{m}", m, {MU: heap}), ident) is not None:
            return True
    return False


def hom_letters(t, gen_map):
    return hom_to_group(t, gen_map).letters


def hom_outcome(hom, t, gen_map):
    try:
        return hom(t, gen_map)
    except (EvaluationError, ValueError) as exc:
        return type(exc), str(exc)


def padded(t, gens=GENS3):
    """t at the bottom of a chain mu(..., y, z) long enough that
    hom_to_group meets t after it has started to test for sharing."""
    for _ in range(homomorphisms._PLAIN + 1):
        t = mu(t, Var(gens[1]), Var(gens[2]))
    return t


def xor3(a, b, c):
    return a ^ b ^ c


class TestEvalTerm:
    def test_cancellation_collapses(self):
        t = parse_term("mu(x,y,y)")
        assert eval_term(t, {"x": 1, "y": 0}, xor3) == 1

    def test_variable(self):
        assert eval_term(X, {"x": 7}, xor3) == 7

    def test_mod3_arithmetic(self):
        t = parse_term("mu(x,y,z)")
        value = eval_term(t, {"x": 1, "y": 2, "z": 0}, lambda p, q, r: (p - q + r) % 3)
        assert value == 2

    def test_unassigned_variable(self):
        with pytest.raises(EvaluationError):
            eval_term(mu(X, Y, Z), {"x": 0, "y": 0}, xor3)

    def test_depth_5000(self):
        # The chain puts the deeper term at argument 0, 1, 2 in turn; xor is
        # symmetric, so each level adds the xor of its two other arguments.
        assignment = {"x": 1, "y": 0, "z": 1}
        t, expected = X, 1
        for i in range(5000):
            others = (Y, Z) if i % 2 else (Z, Z)
            args = list(others)
            args.insert(i % 3, t)
            t = mu(*args)
            expected ^= assignment[others[0].name] ^ assignment[others[1].name]
        assert eval_term(t, assignment, xor3) == expected


class TestHomToGroup:
    def test_flat_term(self):
        assert format_word(hom_to_group(parse_term("mu(x,y,z)"))) == "x y^-1 z"

    def test_cancellation_mirrors_rewriting(self):
        assert format_word(hom_to_group(parse_term("mu(x,y,y)"))) == "x"

    def test_nested_composition(self):
        w = hom_to_group(parse_term("mu(mu(x,y,z),x,y)"))
        assert format_word(w) == "x y^-1 z x^-1 y"

    def test_unmapped_variable(self):
        with pytest.raises(EvaluationError):
            hom_to_group(X, {"y": "a"})

    def test_generator_renaming(self):
        w = hom_to_group(parse_term("mu(x,y,z)"), {"x": "a", "y": "b", "z": "c"})
        assert format_word(w) == "a b^-1 c"

    @given(term_strategy(), term_strategy(), term_strategy())
    def test_homomorphism_law(self, t, s, u):
        image = hom_to_group(mu(t, s, u))
        expected = heap_mu(
            HeapWord(hom_to_group(t)),
            HeapWord(hom_to_group(s)),
            HeapWord(hom_to_group(u)),
        )
        assert image == expected.word

    @given(term_strategy())
    def test_image_is_a_heap_word(self, t):
        HeapWord(hom_to_group(t))  # constructor validates

    @given(term_strategy())
    def test_normalization_invariance(self, t):
        assert hom_to_group(t) == hom_to_group(normalize(t))

    def test_homomorphism_law_bulk(self):
        rng = random.Random(7)
        for _ in range(2000):
            t, s, u = (random_term(rng, GENS3, 4) for _ in range(3))
            image = hom_to_group(mu(t, s, u))
            expected = heap_mu(
                HeapWord(hom_to_group(t)),
                HeapWord(hom_to_group(s)),
                HeapWord(hom_to_group(u)),
            )
            assert image == expected.word


class TestAgainstReferenceHom:
    @given(term_strategy(max_leaves=60))
    def test_same_word(self, t):
        assert hom_to_group(t).letters == reference_hom_to_group(t)

    @given(
        term_strategy(),
        st.none() | st.dictionaries(st.sampled_from(GENS3), st.sampled_from(["a", "b", "x", "1a"])),
    )
    def test_same_word_or_error_under_a_map(self, t, gen_map):
        # Unmapped variables and invalid generator names fail on the same
        # variable as the reference does.
        assert hom_outcome(hom_letters, t, gen_map) == hom_outcome(reference_hom_to_group, t, gen_map)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("mu(x,mu(x,y,z),x)", (ValueError, "invalid generator name '1a'")),
            ("mu(x,mu(x,z,y),x)", (EvaluationError, "unmapped variable 'z'")),
        ],
    )
    def test_leftmost_failing_variable_inside_an_inverted_subterm(self, text, error):
        # The middle argument's image is inverted, so the walk meets z
        # before y there; the error must still be the leftmost one.  In
        # mu(pad, t, t) the shared t is first met inverted, as the middle
        # argument, and its image is built in a buffer of its own.
        gen_map = {"x": "a", "y": "1a"}
        t = parse_term(text)
        for u in (t, mu(padded(X, "xxx"), t, t)):
            assert hom_outcome(hom_letters, u, gen_map) == hom_outcome(reference_hom_to_group, u, gen_map) == error


class TestSharedImages:
    """hom_to_group maps a shared application once and splices its image at
    each occurrence; on DAG terms it gives the tree walk's word."""

    @given(dag_recipes(max_size=600), alphabet_strategy(), st.booleans(), st.booleans(), st.booleans())
    def test_same_word_as_the_tree_walk(self, recipe, gens, held, parsed, pad):
        # Generator names from each band of code widths, so spliced codes
        # are one-, two- and four-byte characters.  A held node counts as
        # shared whether or not it is.  A parsed term shares every repeated
        # subterm; a built one may hold equal but distinct nodes.
        nodes = build_dag(recipe, gens)
        t = nodes[-1]
        if parsed:
            t = parse_term(tree_format_term(t))
        if pad:
            t = padded(t, gens)
        if not held:
            del nodes
        expected = tree_hom_to_group(t)
        assert hom_to_group(t) == expected
        assert hom_to_group(t, {g: "renamed_" + g for g in gens}).letters == tuple(
            Letter("renamed_" + l.gen, l.sign) for l in expected.letters
        )

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("twice", [False, True])
    def test_a_shared_node_at_each_argument_position(self, position, twice):
        # s stands at one position of two parents, or twice in one argument
        # tuple; at the middle position its image is inverted.
        s = mu(mu(X, Y, Z), Z, X)
        fillers = [Z, Y, X]
        args = [s if i == position or (twice and i == (position + 1) % 3) else f for i, f in enumerate(fillers)]
        other = [Y, X, Z]
        other[position] = s
        t = padded(mu(mu(*args), mu(*other), mu(*args)))
        del s, args, other
        assert hom_to_group(t) == tree_hom_to_group(t)
        assert hom_to_group(t).letters == reference_hom_to_group(t)

    @pytest.mark.parametrize("plain", [homomorphisms._PLAIN, 0])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("applications", [63, 64, 65])
    def test_around_the_sharing_threshold(self, monkeypatch, applications, shared, plain):
        # Trees of 63, 64 and 65 applications: the walk meets its last one
        # just before, at and just after it starts to test for sharing.  A
        # shared s stands beside the chain at each position in turn, so its
        # image is spliced both ways round; with _PLAIN = 0 every application
        # is tested.
        monkeypatch.setattr(homomorphisms, "_PLAIN", plain)
        s = mu(Y, X, Z)
        t, count, level = X, 0, 0
        while count < applications:
            args = [Y, Z, X]
            args[level % 3] = t
            if shared and applications - count > 1:
                args[(level + 1) % 3] = s
                count += 1
            t = mu(*args)
            count, level = count + 1, level + 1
        assert fold(t, lambda _: 0, lambda _, *apps: 1 + sum(apps)) == applications
        del s, args
        assert hom_to_group(t).letters == reference_hom_to_group(t)
        assert hom_to_group(t) == tree_hom_to_group(t)


class TestSeparatingHom:
    def test_indicator_of_witness(self):
        assert separating_hom(X, "x") == 1

    def test_collapse_keeps_witness(self):
        assert separating_hom(parse_term("mu(x,y,y)"), "x") == 1

    def test_middle_argument(self):
        assert separating_hom(parse_term("mu(x,y,z)"), "y") == 1

    def test_distinguishes_generators(self):
        assert separating_hom(X, "x") == 1
        assert separating_hom(Y, "x") == 0

    @given(term_strategy())
    def test_value_is_boolean(self, t):
        assert separating_hom(t, "x") in (0, 1)


class TestInjectivityOnM1:
    def test_one_generator(self):
        assert check_injectivity_on_M1(1)

    def test_two_generators(self):
        assert check_injectivity_on_M1(2)

    def test_three_generators(self):
        assert check_injectivity_on_M1(3)

    def test_counts_match(self):
        # m + m(m-1)^2 normal forms at depth <= 1; the same count of heap
        # words of length <= 3
        for m, gens in ((2, ("x", "y")), (3, ("x", "y", "z"))):
            forms = enumerate_normal_forms(gens, 1)
            assert len(forms) == m + m * (m - 1) ** 2

    def test_feasibility_guard(self):
        with pytest.raises(BudgetExceededError):
            check_injectivity_on_M1(5)


class TestFactorization:
    CARRIERS = [
        (2, lambda a, b, c: (a - b + c) % 2),
        (3, lambda a, b, c: (a - b + c) % 3),
        (4, lambda a, b, c: (a - b + c) % 4),
        (5, lambda a, b, c: (a - b + c) % 5),
    ]

    @pytest.mark.parametrize("size,op", CARRIERS)
    def test_random_terms_factor(self, size, op):
        rng = random.Random(8)
        for _ in range(500):
            t = random_term(rng, GENS3, 5)
            assignment = {g: rng.randrange(size) for g in GENS3}
            assert factors_through_normalization(t, assignment, op)

    def test_projection_does_not_factor(self):
        # first projection is not a cancellation operation, and indeed fails
        t = parse_term("mu(y,y,x)")
        proj = lambda a, b, c: a
        assert not factors_through_normalization(t, {"x": 1, "y": 0}, proj)


class TestDistinguish:
    def test_distinct_generators(self):
        assert distinguish_in_small_groups(X, Y)

    def test_equal_terms_are_never_distinguished(self):
        t = parse_term("mu(x,y,z)")
        assert not distinguish_in_small_groups(t, t)

    def test_rate_on_random_distinct_normal_forms(self):
        rng = random.Random(0)
        distinguished = total = 0
        while total < 300:
            t = normalize(random_term(rng, GENS3, 5))
            s = normalize(random_term(rng, GENS3, 5))
            if t == s:
                continue
            total += 1
            distinguished += distinguish_in_small_groups(t, s)
        assert distinguished / total >= 0.95
