import itertools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maltsev import words
from maltsev.errors import TermSyntaxError
from maltsev.homomorphisms import hom_to_group
from maltsev.sampling import random_heap_word, random_letters
from maltsev.terms import Var, mu
from maltsev.words import (
    HeapWord,
    Letter,
    ReducedWord,
    fg_inv,
    fg_mul,
    format_word,
    heap_group_ops,
    heap_mu,
    is_heap_word,
    parse_letters,
    reduce,
)

from conftest import (
    heap_word_strategy,
    heap_words_up_to,
    letter_strategy,
    para_associative,
    random_order_reduction,
    raw_word_strategy,
)


EMPTY_WORD = ReducedWord(())


def w(text: str) -> ReducedWord:
    return reduce(parse_letters(text))


def hw(text: str) -> HeapWord:
    return HeapWord(w(text))


def in_F_k(a: ReducedWord, k: int) -> bool:
    """Membership in the k-th length stratum of the free group."""
    return len(a) <= k


def heap_closure(gens, max_len: int) -> set[ReducedWord]:
    """Breadth-first closure of the generators under the heap operation,
    keeping only words of length <= max_len.  Oracle for is_heap_word."""
    current = {ReducedWord((Letter(g, 1),)) for g in gens}
    frontier = set(current)
    while frontier:
        new: set[ReducedWord] = set()
        pool = [HeapWord(w) for w in current]
        for a in pool:
            for b in pool:
                for c in pool:
                    w = heap_mu(a, b, c).word
                    if len(w) <= max_len and w not in current:
                        new.add(w)
        current |= new
        frontier = new
    return current


class TestReduce:
    def test_textbook_example(self):
        assert format_word(w("x y z z^-1 y^-1 x")) == "x x"

    def test_full_cancellation(self):
        assert w("x x^-1") == EMPTY_WORD

    def test_already_reduced(self):
        assert format_word(w("x y^-1 z")) == "x y^-1 z"

    def test_cascading_cancellation(self):
        assert w("x y y^-1 x^-1") == EMPTY_WORD

    @given(raw_word_strategy())
    def test_result_is_reduced(self, raw):
        word = reduce(raw)
        for a, b in zip(word.letters, word.letters[1:]):
            assert not (a.gen == b.gen and a.sign == -b.sign)

    @given(raw_word_strategy())
    def test_idempotent(self, raw):
        word = reduce(raw)
        assert reduce(word.letters) == word

    def test_order_independence(self):
        rng = random.Random(4)
        for _ in range(2000):
            raw = random_letters(rng, ("a", "b", "c"), rng.randrange(13))
            expected = reduce(raw)
            for _ in range(3):
                assert random_order_reduction(rng, raw) == expected

    def test_reduced_word_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError):
            ReducedWord((Letter("x", 1), Letter("x", -1)))


class TestGroupLaws:
    def test_multiplication_example(self):
        assert format_word(fg_mul(w("x y z"), w("z^-1 y^-1 x"))) == "x x"

    def test_identity_laws(self):
        a = w("a b^-1 c")
        assert fg_mul(a, EMPTY_WORD) == a
        assert fg_mul(EMPTY_WORD, a) == a

    def test_full_cancellation_product(self):
        assert fg_mul(w("x y^-1"), w("y x^-1")) == EMPTY_WORD

    def test_inverse_reverses_and_flips(self):
        assert format_word(fg_inv(w("x y^-1 z"))) == "z^-1 y x^-1"
        assert fg_inv(EMPTY_WORD) == EMPTY_WORD

    @given(raw_word_strategy(), raw_word_strategy(), raw_word_strategy())
    def test_associativity(self, ra, rb, rc):
        a, b, c = reduce(ra), reduce(rb), reduce(rc)
        assert fg_mul(fg_mul(a, b), c) == fg_mul(a, fg_mul(b, c))

    @given(raw_word_strategy())
    def test_inverses(self, raw):
        a = reduce(raw)
        assert fg_mul(a, fg_inv(a)) == EMPTY_WORD
        assert fg_mul(fg_inv(a), a) == EMPTY_WORD
        assert fg_inv(fg_inv(a)) == a


class TestStrata:
    def test_product_lands_in_F2(self):
        assert in_F_k(w("x x"), 2)
        assert in_F_k(w("x x"), 3)

    def test_empty_word_in_F0(self):
        assert in_F_k(EMPTY_WORD, 0)

    def test_length_three_not_in_F2(self):
        assert not in_F_k(w("x y^-1 z"), 2)


class TestHeapMembership:
    def test_generator(self):
        assert is_heap_word(w("x"))

    def test_first_stratum(self):
        assert is_heap_word(w("x y^-1 z"))

    def test_even_length_rejected(self):
        assert not is_heap_word(w("x y"))

    def test_wrong_sign_pattern_rejected(self):
        assert not is_heap_word(w("x^-1 y x"))
        assert not is_heap_word(w("x y z"))

    def test_agrees_with_closure_oracle(self):
        gens = ("a", "b")
        closure = heap_closure(gens, 7)
        alphabet = [Letter(g, s) for g in gens for s in (1, -1)]
        words = [()]
        frontier = [()]
        for _ in range(7):
            frontier = [
                t + (l,)
                for t in frontier
                for l in alphabet
                if not (t and t[-1].gen == l.gen and t[-1].sign == -l.sign)
            ]
            words += frontier
        checked = 0
        for letters in words:
            word = ReducedWord(tuple(letters))
            assert is_heap_word(word) == (word in closure)
            checked += 1
        assert checked >= 4000


class TestHeapOperation:
    def test_cancellation(self):
        a, b = hw("a b^-1 c"), hw("b")
        assert heap_mu(a, b, b) == a
        assert heap_mu(b, b, a) == a

    def test_generators_multiply_to_first_stratum(self):
        assert format_word(heap_mu(hw("x"), hw("y"), hw("z"))) == "x y^-1 z"

    @given(heap_word_strategy(), heap_word_strategy(), heap_word_strategy())
    def test_closure(self, a, b, c):
        result = heap_mu(a, b, c)
        assert is_heap_word(result.word)

    @given(heap_word_strategy(), heap_word_strategy(), heap_word_strategy())
    def test_stratum_arithmetic(self, a, b, c):
        result = heap_mu(a, b, c)
        assert result.stratum <= a.stratum + b.stratum + c.stratum + 1

    def test_para_associativity_exhaustive_short_words(self):
        words = heap_words_up_to(("a", "b"), 3)
        for a, b, c, d, e in itertools.product(words, repeat=5):
            assert para_associative(a, b, c, d, e)

    def test_para_associativity_random_larger(self):
        rng = random.Random(5)
        gens = ("a", "b", "c")
        for _ in range(2000):
            a, b, c, d, e = (random_heap_word(rng, gens, 4) for _ in range(5))
            assert para_associative(a, b, c, d, e)


class TestDerivedGroup:
    def test_base_is_identity(self):
        group = heap_group_ops(hw("a b^-1 a"))
        u = hw("b a^-1 b")
        assert group.mul(group.identity, u) == u
        assert group.mul(u, group.identity) == u

    def test_inverses(self):
        rng = random.Random(6)
        for _ in range(500):
            base = random_heap_word(rng, ("a", "b"), 3)
            group = heap_group_ops(base)
            u = random_heap_word(rng, ("a", "b"), 3)
            assert group.mul(u, group.inv(u)) == group.identity
            assert group.mul(group.inv(u), u) == group.identity

    def test_associativity_exhaustive_on_short_words(self):
        words = heap_words_up_to(("a", "b"), 3)
        for base in words:
            group = heap_group_ops(base)
            for u, v, t in itertools.product(words, repeat=3):
                assert group.mul(group.mul(u, v), t) == group.mul(u, group.mul(v, t))


class TestWordSyntax:
    def test_parse_rejects_garbage(self):
        from maltsev.errors import TermSyntaxError

        with pytest.raises(TermSyntaxError):
            parse_letters("x ^-1")

    def test_bad_letter_position_is_its_own_offset(self):
        # '1' occurs first inside the valid letter x1; the bad letter starts at 3.
        with pytest.raises(TermSyntaxError, match=r"invalid letter '1' \(at position 3\)") as info:
            parse_letters("x1 1")
        assert info.value.position == 3

    def test_empty_text_is_empty_word(self):
        assert reduce(parse_letters("")) == EMPTY_WORD

    def test_format_empty(self):
        assert format_word(EMPTY_WORD) == ""

    @given(raw_word_strategy())
    def test_round_trip(self, raw):
        word = reduce(raw)
        assert reduce(parse_letters(format_word(word))) == word


# ---------------------------------------------------------------------------
# The word operations as they were before the engine trusted its own output:
# every result goes through the checking constructors, and a product reduces
# the whole concatenation.


def reference_reduce(raw):
    stack = []
    for letter in raw:
        if stack and stack[-1].gen == letter.gen and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return ReducedWord(tuple(stack))


def reference_fg_mul(a, b):
    return reference_reduce(a.letters + b.letters)


def reference_fg_inv(a):
    return ReducedWord(tuple(Letter(l.gen, -l.sign) for l in reversed(a.letters)))


def reference_heap_mu(a, b, c):
    return HeapWord(reference_fg_mul(a.word, reference_fg_mul(reference_fg_inv(b.word), c.word)))


def reference_is_heap_word(a):
    if len(a) % 2 == 0:
        return False
    return all(l.sign == (1 if i % 2 == 0 else -1) for i, l in enumerate(a.letters))


def shared_letters(raw):
    """The same word with one Letter object per generator and sign, as
    hom_to_group and fg_inv build them."""
    one = {}
    return [one.setdefault(l, l) for l in raw]


raw_words = st.one_of(raw_word_strategy(max_size=30), raw_word_strategy(max_size=30).map(shared_letters))


class TestAgainstReferenceOperations:
    @given(raw_words)
    def test_reduce(self, raw):
        assert reduce(raw) == reference_reduce(raw)

    @given(raw_words, raw_words)
    def test_fg_mul(self, ra, rb):
        a, b = reduce(ra), reduce(rb)
        assert fg_mul(a, b) == reference_fg_mul(a, b)

    @given(raw_words)
    def test_fg_inv(self, raw):
        a = reduce(raw)
        assert fg_inv(a) == reference_fg_inv(a)

    @given(heap_word_strategy(("a", "b", "c"), 6), heap_word_strategy(("a", "b", "c"), 6),
           heap_word_strategy(("a", "b", "c"), 6))
    def test_heap_mu(self, a, b, c):
        assert heap_mu(a, b, c) == reference_heap_mu(a, b, c)

    @given(raw_words)
    def test_is_heap_word(self, raw):
        a = reduce(raw)
        assert is_heap_word(a) == reference_is_heap_word(a)

    @given(st.lists(letter_strategy(), max_size=9))
    def test_is_heap_word_on_alternating_prefixes(self, raw):
        # Reduced words that are heap words up to one letter.
        alternating = [Letter(l.gen, 1 if i % 2 == 0 else -1) for i, l in enumerate(raw)]
        for word in (reduce(alternating), reduce(alternating + raw[:1])):
            assert is_heap_word(word) == reference_is_heap_word(word)


class TestTrustBoundary:
    """Words are checked once, where they come from outside: parse_letters
    and the public constructors.  The engine never re-checks a name or
    re-scans a word it built."""

    @pytest.fixture()
    def checks(self, monkeypatch):
        counts = Counter()
        pattern = words.IDENT_RE

        class CountingPattern:
            def fullmatch(self, text):
                counts["fullmatch"] += 1
                return pattern.fullmatch(text)

        monkeypatch.setattr(words, "IDENT_RE", CountingPattern())
        # The constructors check; words._trusted bypasses them.
        for cls in (Letter, ReducedWord, HeapWord):

            def counting(self, *args, init=cls.__init__, name=cls.__name__):
                counts[name] += 1
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    @staticmethod
    def long_words():
        rng = random.Random(8)
        gens = ("a", "b", "c", "d")
        return tuple(
            HeapWord(reduce([Letter(rng.choice(gens), 1 - 2 * (i % 2)) for i in range(20001)]))
            for _ in range(3)
        )

    def test_engine_never_rechecks_words(self, checks):
        a, b, c = self.long_words()
        assert min(map(len, (a, b, c))) > 10**4
        checks.clear()
        product = fg_mul(a.word, fg_inv(b.word))
        heap = heap_mu(a, b, c)
        group = heap_group_ops(c)
        group.mul(a, group.inv(b))
        assert checks == Counter()
        assert product == reference_fg_mul(a.word, reference_fg_inv(b.word))
        assert heap == reference_heap_mu(a, b, c)

    def test_hom_to_group_checks_each_generator_once(self, checks):
        # x, then mu(t, b, c) with b never the last letter of t: no letter
        # cancels, so the image has 2 * 5001 + 1 letters.
        t = Var("x")
        for i in range(5001):
            b, c = (("y", "z"), ("x", "y"), ("z", "x"))[i % 3]
            t = mu(t, Var(b), Var(c))
        checks.clear()
        word = hom_to_group(t)
        assert len(word) == 10003
        assert checks == Counter({"fullmatch": 3, "Letter": 3})

    def test_checks_run_at_the_boundary(self, checks):
        assert len(reduce(parse_letters("x y^-1 z"))) == 3
        assert checks["fullmatch"] == 6  # parse_letters and Letter, per letter
        assert checks["Letter"] == 3
        HeapWord(ReducedWord((Letter("x", 1),)))
        assert checks["ReducedWord"] == 1 and checks["HeapWord"] == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Letter("1x", 1),
            lambda: Letter("x", 0),
            lambda: ReducedWord((Letter("x", 1), Letter("x", -1))),
            lambda: HeapWord(reduce(parse_letters("x y"))),
            lambda: HeapWord(reduce(parse_letters("x^-1"))),
            lambda: hom_to_group(mu(Var("x"), Var("y"), Var("x")), {"x": "a", "y": "b c"}),
        ],
    )
    def test_invalid_public_constructions_raise(self, build):
        with pytest.raises(ValueError):
            build()

    def test_invalid_letter_text_raises(self):
        with pytest.raises(TermSyntaxError):
            parse_letters("x y^-2")
