import itertools
import random
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maltsev.errors import (
    ArityMismatchError,
    BudgetExceededError,
    MaltsevError,
    NameCollisionError,
    TermSyntaxError,
)
from maltsev.terms import (
    IDENT_RE,
    MALTSEV_SIGNATURE,
    MU,
    App,
    Signature,
    Var,
    count_W,
    count_W_levels,
    enumerate_up_to,
    format_term,
    mu,
    parse_term,
    substitute,
    term_depth,
    term_size,
    validate_term,
    variables,
)

from conftest import subterms, term_strategy

X, Y, Z = Var("x"), Var("y"), Var("z")

GROUP_SIGNATURE = Signature((("mul", 2), ("inv", 1), ("e", 0)))


def enumerate_level(gens: tuple[str, ...], n: int, budget: int = 10**6) -> list:
    """Oracle: the terms of depth exactly n, in enumeration order, after
    checking the generators and then W_n against the budget."""
    if sorted(gens) != list(gens) or len(set(gens)) != len(gens):
        raise ValueError("generators must be distinct and sorted")
    if next(itertools.islice(count_W_levels(len(gens)), n, None)) > budget:
        raise BudgetExceededError(f"enumerating W_{n} over {len(gens)} generators")
    return [t for t in enumerate_up_to(gens, n, budget) if term_depth(t) == n]


# ---------------------------------------------------------------------------
# The recursive-descent parser that parse_term replaced, kept as the
# reference for its terms, messages and positions.


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def expect(self, char):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise TermSyntaxError(f"expected {char!r}", self.pos)
        self.pos += 1

    def ident(self):
        self.skip_ws()
        m = IDENT_RE.match(self.text, self.pos)
        if not m:
            raise TermSyntaxError("expected an identifier", self.pos)
        self.pos = m.end()
        return m.group(), m.start()


def reference_parse(text, sig=MALTSEV_SIGNATURE):
    if not text or text.isspace():
        raise TermSyntaxError("empty term", 0)
    toks = _Tokens(text)
    t = _reference_parse(toks, sig)
    toks.skip_ws()
    if toks.pos != len(text):
        raise TermSyntaxError("trailing input after term", toks.pos)
    return t


def _reference_parse(toks, sig):
    name, start = toks.ident()
    if toks.peek() == "(":
        if name not in sig:
            raise TermSyntaxError(f"unknown operation symbol {name!r}", start)
        toks.expect("(")
        args = [_reference_parse(toks, sig)]
        while toks.peek() == ",":
            toks.expect(",")
            args.append(_reference_parse(toks, sig))
        toks.expect(")")
        expected = dict(sig.symbols)[name]
        if len(args) != expected:
            raise ArityMismatchError(
                f"{name!r} expects {expected} argument(s), got {len(args)}"
                f" (at position {start})"
            )
        return App(name, tuple(args))
    if name in sig:
        arity = dict(sig.symbols)[name]
        if arity == 0:
            return App(name, ())
        raise NameCollisionError(
            f"{name!r} is an operation symbol of arity {arity},"
            f" not a variable (at position {start})"
        )
    return Var(name)


def reference_format(t):
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.symbol
    return f"{t.symbol}({','.join(reference_format(a) for a in t.args)})"


def parse_outcome(parse, text, sig):
    """The term, or the error's type, message and position."""
    try:
        return parse(text, sig)
    except MaltsevError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


TOKENS = ["mu", "mul", "inv", "e", "x", "y", "f", "(", ")", ",", " ", "\t", "1", ""]


def mangled(texts):
    """Texts with one token inserted, or one character replaced or deleted."""
    return st.builds(
        _mangle, texts, st.integers(0, 200), st.sampled_from(TOKENS),
        st.sampled_from(("insert", "replace", "delete")),
    )


def _mangle(text, i, token, how):
    i %= len(text) + 1
    if how == "delete":
        return text[:i] + text[i + 1 :]
    if how == "replace":
        return text[:i] + token + text[i + 1 :]
    return text[:i] + token + text[i:]


# Two ternary symbols, so that one first argument opens applications of both.
TWIN_SIGNATURE = Signature(((MU, 3), ("nu", 3)))


def spaced(t, rng):
    """format_term(t) with whitespace drawn from rng after each token."""
    tokens = format_term(t).replace("(", " ( ").replace(",", " , ").replace(")", " ) ").split()
    return "".join(token + rng.choice(("", "", " ", "\n", " \t ")) for token in tokens)


def repeating_text(t, v, levels, seed):
    """(text, start): the text of mu(n, twin, n), each copy of a subterm
    spaced anew, where n is t doubled ``levels`` times by s -> f(s, v, s),
    f taking mu and nu in turn, and twin has n's arguments under the other
    symbol; start is where the last copy of n begins."""
    rng = random.Random(seed)
    n = t
    for level in range(levels):
        n = App(("nu", MU)[level % 2], (n, v, n))
    twin = App("nu" if n.symbol == MU else MU, n.args)
    head = f"mu({spaced(n, rng)},{spaced(twin, rng)},"
    return head + spaced(n, rng) + ")", len(head)


def repeating_texts():
    """repeating_text over drawn terms: the longer ones repeat runs that
    parse_term remembers and skips."""
    return st.builds(
        repeating_text, term_strategy(max_leaves=8), term_strategy(max_leaves=3),
        st.integers(4, 7), st.integers(0, 2**32),
    )


def mangled_later_copy():
    """A repeating text with one edit in the last copy of its run: anywhere
    in it (i >= 0), or among the text's last characters (i < 0), where the
    copy ends."""
    return st.builds(
        lambda text_start, i, token, how: _mangle(
            text_start[0],
            len(text_start[0]) + i if i < 0 else text_start[1] + i % (len(text_start[0]) - text_start[1]),
            token, how,
        ),
        repeating_texts(), st.integers(0, 10**6) | st.integers(-12, -1), st.sampled_from(TOKENS),
        st.sampled_from(("insert", "replace", "delete")),
    )


def line_events(fn, *args):
    """The number of line events in fn's own frame while fn(*args) runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is fn.__code__ else None)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


class TestAgainstReferenceParser:
    @given(term_strategy())
    def test_same_terms(self, t):
        text = reference_format(t)
        assert parse_term(text) == reference_parse(text) == t
        assert format_term(t) == text

    @given(st.lists(st.sampled_from(TOKENS), max_size=25).map("".join), st.booleans())
    def test_same_outcome_on_token_soup(self, text, group):
        sig = GROUP_SIGNATURE if group else MALTSEV_SIGNATURE
        assert parse_outcome(parse_term, text, sig) == parse_outcome(reference_parse, text, sig)

    @given(mangled(term_strategy().map(reference_format)))
    def test_same_outcome_on_mangled_mu_terms(self, text):
        sig = MALTSEV_SIGNATURE
        assert parse_outcome(parse_term, text, sig) == parse_outcome(reference_parse, text, sig)

    def test_same_outcome_on_known_malformed_texts(self):
        for text in ("", " ", "mu(x,,y)", "x)", "mu(x y)", "mu(x,y", "mu (x , y , z) )",
                     "mu(mu,y,z)", "f(x,y)", "mul(e,x,y)", "inv", "e(x)", "mul(\u2003x,e)"):
            for sig in (MALTSEV_SIGNATURE, GROUP_SIGNATURE):
                assert parse_outcome(parse_term, text, sig) == parse_outcome(reference_parse, text, sig)

    @given(repeating_texts())
    def test_same_terms_on_repeated_runs(self, text_start):
        text = text_start[0]
        t = parse_term(text, TWIN_SIGNATURE)
        assert t == reference_parse(text, TWIN_SIGNATURE)
        assert t.args[0] is t.args[2] and t.args[1] != t.args[0]
        nodes = list(subterms(t))
        assert len({id(s) for s in nodes}) == len(set(nodes))

    @given(mangled_later_copy())
    def test_same_outcome_on_an_edit_in_a_later_copy(self, text):
        sig = TWIN_SIGNATURE
        assert parse_outcome(parse_term, text, sig) == parse_outcome(reference_parse, text, sig)

    def test_same_outcome_on_an_edit_where_a_later_copy_ends(self):
        # The last copies of all the nested runs end together, just before
        # the text's final ")": edit each of the last ")".
        t = parse_term("mu(mu(x,y,z),mu(y,z,x),mu(z,x,y))")
        for seed in range(3):
            text, _ = repeating_text(t, X, 5, seed)
            ends = [i for i, c in enumerate(text) if c == ")"][-8:]
            for i, how, token in itertools.product(
                ends, ("insert", "replace", "delete"), (",", ")", "x")
            ):
                bad = _mangle(text, i, token, how)
                sig = TWIN_SIGNATURE
                assert parse_outcome(parse_term, bad, sig) == parse_outcome(reference_parse, bad, sig)


class TestParse:
    def test_mu_application(self):
        assert parse_term("mu(x,y,y)") == mu(X, Y, Y)

    def test_single_variable(self):
        assert parse_term("x") == X

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            parse_term("mu(x,y)")

    def test_whitespace_insensitive(self):
        assert parse_term(" mu( x ,y, z )  ") == mu(X, Y, Z)

    def test_nested(self):
        assert parse_term("mu(mu(x,y,z),x,x)") == mu(mu(X, Y, Z), X, X)

    def test_syntax_error_reports_position(self):
        with pytest.raises(TermSyntaxError) as exc:
            parse_term("mu(x,,y)")
        assert exc.value.position == 5

    def test_empty_input(self):
        with pytest.raises(TermSyntaxError):
            parse_term("   ")

    def test_trailing_garbage(self):
        with pytest.raises(TermSyntaxError):
            parse_term("x)")

    def test_symbol_as_variable_is_collision(self):
        with pytest.raises(NameCollisionError):
            parse_term("mu(mu,y,z)")

    def test_unknown_symbol_applied(self):
        with pytest.raises(TermSyntaxError):
            parse_term("f(x,y)")

    def test_constant_written_bare(self):
        sig = Signature((("mul", 2), ("e", 0)))
        assert parse_term("mul(e,x)", sig) == App("mul", (App("e", ()), X))

    def test_generic_signature(self):
        sig = Signature((("star", 2), ("ldiv", 2)))
        t = parse_term("star(x,ldiv(y,z))", sig)
        assert t == App("star", (X, App("ldiv", (Y, Z))))


def doubling_text(levels=10):
    """A text in the shape of the benchmark's large terms: a level is
    mu(s, v, s) for the level below s, some levels wrapped in the axiom
    instance mu(s, w, w), so the text repeats a few subterms many times."""
    text = "mu(mu(x,y,z),z,mu(y,x,w))"
    for i in range(levels):
        v = ("mu(x,y,z)", "mu(y,z,w)", "mu(w,x,y)")[i % 3]
        inner = f"mu({text},w,w)" if i % 3 == 0 else text
        text = f"mu({inner},{v},{inner})"
    return text


class TestSharedParse:
    def test_one_object_per_distinct_subterm(self):
        text = doubling_text()
        t = parse_term(text)
        nodes = list(subterms(t))
        assert len(nodes) > 10**4
        assert len({id(s) for s in nodes}) == len(set(nodes)) < 60
        assert format_term(t) == text

    @given(term_strategy())
    def test_repeated_subterms_are_shared(self, t):
        u = parse_term(format_term(mu(t, t, X)))
        assert u == mu(t, t, X)
        assert u.args[0] is u.args[1]
        assert len({id(s) for s in subterms(u)}) == len(set(subterms(u)))

    def test_no_table_outlives_a_call(self):
        first, second = parse_term("mu(x,y,x)"), parse_term("mu(x,y,x)")
        assert first == second and first is not second
        assert first.args[0] is first.args[2] and first.args[0] is not second.args[0]

    def test_constants_are_shared(self):
        t = parse_term("mul(e,mul(e,x))", GROUP_SIGNATURE)
        assert t.args[0] is t.args[1].args[0]

    def test_a_repeated_run_is_read_once(self):
        # doubling_text(12) is about four times as long as doubling_text(10)
        # and repeats the same few runs: read once each, they cost the
        # parser less than twice as many steps, not four times as many.
        shorter, longer = (line_events(parse_term, doubling_text(n)) for n in (10, 12))
        assert longer < 2 * shorter


class TestFormat:
    def test_direct_rendering(self):
        assert format_term(mu(X, Y, Z)) == "mu(x,y,z)"

    def test_variable(self):
        assert format_term(X) == "x"

    def test_nested(self):
        assert format_term(mu(mu(X, Y, Z), X, X)) == "mu(mu(x,y,z),x,x)"

    @given(term_strategy())
    def test_parse_format_round_trip(self, t):
        assert parse_term(format_term(t)) == t

    def test_format_parse_round_trip_on_canonical_strings(self):
        for text in ("x", "mu(x,y,z)", "mu(mu(x,y,y),z,mu(x,x,x))"):
            assert format_term(parse_term(text)) == text


class TestEquality:
    def test_structural(self):
        assert mu(X, mu(Y, Z, Z), X) == mu(X, mu(Y, Z, Z), X)
        assert mu(X, Y, Z) != mu(X, Z, Y) and X != mu(X, X, X) and mu(X, X, X) != X
        assert hash(mu(X, Y, Z)) == hash(mu(X, Y, Z))

    def test_equal_hashes_are_not_trusted(self):
        # A hash collision must not make different terms equal.
        t, s = App("f", (mu(X, Y, Z),)), App("g", (mu(X, Y, Z),))
        s._hash = t._hash
        assert t != s
        u, v = mu(X, Y, Var("u")), mu(X, Y, Var("v"))
        v._hash, v.args[2]._hash = u._hash, u.args[2]._hash
        assert u != v


def doubling(levels, leaf="x", odd_level=None):
    """s_levels, where s_0 = leaf and s_{i+1} = mu(s_i, y, s_i), built with
    fresh Var objects; at odd_level the y is a w instead."""
    t = Var(leaf)
    for i in range(levels):
        t = mu(t, Var("w" if i == odd_level else "y"), t)
    return t


def copy_hashes(src, dst):
    """Give each node of dst the hash of the node at its place in src, so
    that only the walk of == tells them apart."""
    stack, seen = [(src, dst)], set()
    while stack:
        a, b = stack.pop()
        if id(b) not in seen:
            seen.add(id(b))
            b._hash = a._hash
            if b.__class__ is App:
                stack.extend(zip(a.args, b.args))


class TestSharedEquality:
    """Separately built copies of s_200, a tree of 3 * 2**200 - 2 nodes on
    401 objects, compare in time linear in the objects: a walk of the tree
    takes seconds at 22 levels, and would never finish at 200."""

    def test_equal_copies(self):
        for levels in (22, 200):
            start = time.perf_counter()
            assert doubling(levels) == doubling(levels)
            assert time.perf_counter() - start < 0.5, levels

    def test_copies_unequal_at_one_leaf(self):
        start = time.perf_counter()
        assert doubling(200) != doubling(200, leaf="z")
        a, b = doubling(200), doubling(200, odd_level=150)
        copy_hashes(a, b)
        assert a != b and b != a
        assert time.perf_counter() - start < 0.5

    def test_a_shared_node_is_compared_with_each_partner(self):
        # s occurs twice in t; u pairs it with an equal copy and with one
        # that differs in a leaf
        s = doubling(3)
        t, u = mu(s, Y, s), mu(doubling(3), Y, doubling(3, odd_level=1))
        copy_hashes(t, u)
        assert t != u and u != t


class TestSubstitute:
    def test_basic(self):
        a, b = Var("a"), Var("b")
        assert substitute(mu(X, Y, Y), {"x": a, "y": b}) == mu(a, b, b)

    def test_identity(self):
        assert substitute(X, {}) == X

    def test_inner_term(self):
        assert substitute(mu(X, Y, Z), {"y": mu(X, X, X)}) == mu(X, mu(X, X, X), Z)

    @given(term_strategy())
    def test_renaming_preserves_depth(self, t):
        renamed = substitute(t, {"x": Var("u"), "y": Var("v"), "z": Var("w")})
        assert term_depth(renamed) == term_depth(t)


class TestDepth:
    def test_variable(self):
        assert term_depth(X) == 0

    def test_flat(self):
        assert term_depth(mu(X, Y, Z)) == 1

    def test_nested(self):
        assert term_depth(mu(mu(X, Y, Z), X, X)) == 2

    def test_constant_depth_zero(self):
        assert term_depth(App("e", ())) == 0


class TestValidate:
    def test_accepts_wellformed(self):
        validate_term(mu(X, Y, Z), MALTSEV_SIGNATURE)

    def test_rejects_bad_arity(self):
        with pytest.raises(ArityMismatchError):
            validate_term(App("mu", (X, Y)), MALTSEV_SIGNATURE)

    def test_rejects_variable_shadowing_symbol(self):
        with pytest.raises(NameCollisionError):
            validate_term(Var("mu"), MALTSEV_SIGNATURE)

    def test_first_fault_in_post_order(self):
        # The root's arity comes first in pre-order, its argument's name
        # first in post-order.
        with pytest.raises(NameCollisionError, match="'mu' is an operation symbol"):
            validate_term(App("mu", (Var("mu"), X)), MALTSEV_SIGNATURE)


class TestCounting:
    def test_two_generators_level_one(self):
        assert count_W(2, 1) == 8

    def test_two_generators_level_two(self):
        # (2 + 8)^3 - 2^3
        assert count_W(2, 2) == 992

    def test_one_generator_level_one(self):
        assert count_W(1, 1) == 1

    @pytest.mark.parametrize("m,n", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 1)])
    def test_count_matches_enumeration(self, m, n):
        gens = tuple("abcdef"[:m])
        assert count_W(m, n) == len(enumerate_level(gens, n))

    def test_enumeration_depths_are_exact(self):
        for n in range(3):
            for t in enumerate_level(("x", "y"), n):
                assert term_depth(t) == n

    def test_enumeration_is_deterministic_and_duplicate_free(self):
        first = enumerate_level(("x", "y"), 2)
        second = enumerate_level(("x", "y"), 2)
        assert first == second
        assert len(set(first)) == len(first)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            enumerate_level(("x", "y"), 3, budget=10**4)

    def test_count_up_to(self):
        assert list(itertools.islice(count_W_levels(2), 3)) == [2, 2 + 8, 2 + 8 + 992]

    def test_count_up_to_is_the_sum_of_the_levels(self):
        for m in (1, 2, 3):
            levels = list(itertools.islice(count_W_levels(m), 6))
            for n in range(6):
                assert levels[n] == sum(count_W(m, i) for i in range(n + 1))

    def test_enumerate_up_to_orders_by_level(self):
        terms = list(enumerate_up_to(("x", "y"), 1))
        assert [term_depth(t) for t in terms] == [0] * 2 + [1] * 8

    def test_enumerate_up_to_is_the_levels_in_turn(self):
        for gens, n in ((("x",), 3), (("x", "y"), 2), (("x", "y", "z"), 1)):
            levels = [enumerate_level(gens, d) for d in range(n + 1)]
            assert list(enumerate_up_to(gens, n)) == [t for level in levels for t in level]

    def test_enumerate_up_to_builds_over_the_terms_it_yielded(self):
        terms = list(enumerate_up_to(("x", "y"), 2))
        lower = {id(t) for t in terms if term_depth(t) < 2}
        assert all(id(a) in lower for t in terms if term_depth(t) == 2 for a in t.args)

    def test_enumerate_up_to_yields_the_levels_within_budget_then_raises(self):
        # 2 + 8 terms fit in a budget of 10; level 2 would make 1002.
        out = []
        with pytest.raises(BudgetExceededError, match="W_2 over 2 generators needs 1002"):
            for t in enumerate_up_to(("x", "y"), 3, budget=10):
                out.append(t)
        assert [term_depth(t) for t in out] == [0] * 2 + [1] * 8

    def test_enumerate_level_checks_its_level_first(self):
        with pytest.raises(BudgetExceededError, match="W_3 over 2 generators"):
            enumerate_level(("x", "y"), 3, budget=10)
        with pytest.raises(ValueError, match="distinct and sorted"):
            enumerate_level(("y", "x"), 3, budget=10)
        with pytest.raises(ValueError, match="distinct and sorted"):
            next(enumerate_up_to(("x", "x"), 1))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            count_W(0, 1)
        with pytest.raises(ValueError):
            count_W(2, -1)


class TestSignature:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Signature((("f", 1), ("f", 2)))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Signature((("", 1),))

    def test_negative_arity_rejected(self):
        with pytest.raises(ValueError):
            Signature((("f", -1),))

    def test_lookup(self):
        sig = Signature((("f", 2), ("c", 0)))
        assert dict(sig.symbols)["f"] == 2
        assert "c" in sig and "g" not in sig
        assert tuple(dict(sig.symbols)) == ("f", "c")


@given(term_strategy())
def test_size_positive_and_consistent(t):
    assert term_size(t) >= 1
    assert (term_size(t) == 1) == isinstance(t, Var)


@given(term_strategy())
def test_variables_are_first_occurrence_ordered(t):
    names = variables(t)
    assert len(set(names)) == len(names)
    rendered = format_term(t)
    positions = [rendered.index(n) for n in names]
    assert positions == sorted(positions)
