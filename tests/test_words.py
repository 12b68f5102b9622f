import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maltsev import cli, words
from maltsev.errors import BudgetExceededError, TermSyntaxError
from maltsev.homomorphisms import hom_to_group
from maltsev.sampling import random_heap_word, random_letters
from maltsev.terms import Var, mu
from maltsev.words import (
    HeapWord,
    Letter,
    ReducedWord,
    encode,
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
    GENS3,
    alphabet_strategy,
    heap_word_strategy,
    heap_words_up_to,
    letter_strategy,
    para_associative,
    random_order_reduction,
    raw_word_strategy,
    reference_fg_inv,
    reference_fg_mul,
    reference_heap_mu,
    reference_hom_to_group,
    reference_is_heap_word,
    reference_reduce,
    term_strategy,
)


EMPTY_WORD = ReducedWord("")


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
    current = {ReducedWord(encode([Letter(g, 1)])) for g in gens}
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
            ReducedWord(encode([Letter("x", 1), Letter("x", -1)]))


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
            word = ReducedWord(encode(letters))
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
        from maltsev.errors import BudgetExceededError, TermSyntaxError

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


def checked(letters):
    """The word of reduced letters through the checking constructor."""
    return ReducedWord(encode(letters))


def word_tuples(n, max_size=30):
    """n raw words over one drawn alphabet (see alphabet_strategy)."""
    return alphabet_strategy().flatmap(
        lambda gens: st.tuples(*[raw_word_strategy(gens, max_size)] * n)
    )


@st.composite
def cancelling_pairs(draw):
    """Two raw words over two drawn alphabets, the second starting with the
    inverse of up to 200 letters at the end of the first."""
    x = reference_reduce(draw(raw_word_strategy(draw(alphabet_strategy()), 200)))
    k = draw(st.integers(0, len(x)))
    rest = draw(raw_word_strategy(draw(alphabet_strategy()), 20))
    return x, reference_fg_inv(x[len(x) - k :]) + tuple(rest)


class TestAgainstReferenceOperations:
    """Every word operation equals the tuple oracle of conftest, on narrow,
    UCS-2, UCS-4 and mixed code strings."""

    @given(word_tuples(1))
    def test_reduce(self, raw):
        (raw,) = raw
        word = reduce(raw)
        assert word.letters == reference_reduce(raw)
        assert word == checked(reference_reduce(raw))

    @given(word_tuples(2) | cancelling_pairs())
    def test_fg_mul(self, pair):
        x, y = map(reference_reduce, pair)
        product = fg_mul(reduce(x), reduce(y))
        assert product.letters == reference_fg_mul(x, y)
        assert product == checked(reference_fg_mul(x, y))

    @given(word_tuples(1))
    def test_fg_inv(self, raw):
        x = reference_reduce(raw[0])
        assert fg_inv(reduce(x)) == checked(reference_fg_inv(x))

    @given(alphabet_strategy().flatmap(lambda gens: st.tuples(*[heap_word_strategy(gens, 6)] * 3)))
    def test_heap_mu(self, abc):
        expected = reference_heap_mu(*(w.word.letters for w in abc))
        assert heap_mu(*abc) == HeapWord(checked(expected))

    @given(word_tuples(1))
    def test_is_heap_word(self, raw):
        x = reference_reduce(raw[0])
        assert is_heap_word(reduce(x)) == reference_is_heap_word(x)

    @given(alphabet_strategy().flatmap(lambda gens: st.lists(letter_strategy(gens), max_size=9)))
    def test_is_heap_word_on_alternating_prefixes(self, raw):
        # Reduced words that are heap words up to one letter.
        alternating = [Letter(l.gen, 1 if i % 2 == 0 else -1) for i, l in enumerate(raw)]
        for letters in (alternating, alternating + raw[:1]):
            assert is_heap_word(reduce(letters)) == reference_is_heap_word(reference_reduce(letters))

    @given(term_strategy(), alphabet_strategy())
    def test_hom_to_group(self, t, gens):
        gen_map = dict(zip(GENS3, gens))
        assert hom_to_group(t, gen_map) == checked(reference_hom_to_group(t, gen_map))

    @given(word_tuples(1))
    def test_parse_format_round_trip(self, raw):
        x = reference_reduce(raw[0])
        assert parse_letters(format_word(reduce(x))) == x


class TestCodes:
    """Codes are indexes into one table per process."""

    def test_a_word_pickles_by_its_names(self):
        # Another process interns other names first, so its codes differ.
        script = (
            "import pickle, sys\n"
            "from maltsev.words import HeapWord, Letter, encode, parse_letters, reduce\n"
            "encode(Letter(f'other{i}', 1) for i in range(300))\n"
            "w = reduce(parse_letters('x y^-1 z'))\n"
            "sys.stdout.buffer.write(pickle.dumps((w.codes, w, HeapWord(w))))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(words.__file__)))
        argv = [sys.executable, "-c", script]
        out = subprocess.run(argv, capture_output=True, env=env, check=True, timeout=60)
        codes, word, heap = pickle.loads(out.stdout)
        local = w("x y^-1 z")
        assert codes != local.codes
        assert word == local and heap == HeapWord(local)
        assert copy.deepcopy(local) == local

    def test_a_word_is_built_from_codes(self):
        assert ReducedWord(encode(parse_letters("x y^-1"))) == w("x y^-1")
        with pytest.raises(TypeError, match="a word is a str of codes"):
            ReducedWord((Letter("x", 1),))

    def test_threads_never_give_two_names_one_index(self):
        batches = [[Letter(f"thread{k}_{i}", 1) for i in range(300)] for k in range(6)]
        threads = [threading.Thread(target=encode, args=(batch,)) for batch in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        letters = [letter for batch in batches for letter in batch]
        word = reduce(letters)
        assert len(set(word.codes)) == len(letters) and word.letters == tuple(letters)

    def test_the_table_holds_at_most_557056_names(self, monkeypatch):
        # A stand-in table one name short of full; the other tables are
        # copied so the codes it hands out stay in this test.
        class AlmostFull(type(words.CODES)):
            def __len__(self):
                return 557_055 + super().__len__()

        for name in ("_FLIP", "_SIGNS", "_LETTERS"):
            monkeypatch.setattr(words, name, dict(getattr(words, name)))
        monkeypatch.setattr(words, "CODES", AlmostFull())
        last = reduce(parse_letters("last^-1"))
        assert list(map(ord, last.codes)) == [0x10FFFF]
        assert format_word(fg_inv(last)) == "last"
        with pytest.raises(BudgetExceededError, match="more than 557056 generator names"):
            reduce(parse_letters("last one_more"))
        code, out = cli.run(["--format", "json", "fg", "reduce", "--word", "one_more"])
        assert code == 2
        assert json.loads(out)["error"] == "more than 557056 generator names in one process"


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
        assert product.letters == reference_fg_mul(a.word.letters, reference_fg_inv(b.word.letters))
        letters = (a.word.letters, b.word.letters, c.word.letters)
        assert heap.word.letters == reference_heap_mu(*letters)

    def test_hom_to_group_checks_each_generator_once(self, checks):
        # x, then mu(t, b, c) with b never the last letter of t: no letter
        # cancels, so the image has 2 * 5001 + 1 letters.  The variables map
        # to names no other test uses: the first call gives them their codes,
        # checking each name once, and no later call checks them again.
        t = Var("x")
        for i in range(5001):
            b, c = (("y", "z"), ("x", "y"), ("z", "x"))[i % 3]
            t = mu(t, Var(b), Var(c))
        gen_map = {v: f"checked_once_{v}" for v in "xyz"}
        checks.clear()
        for _ in range(2):
            assert len(hom_to_group(t, gen_map)) == 10003
            assert checks == Counter({"fullmatch": 3})

    def test_a_rejected_name_is_never_interned(self):
        encode([Letter("a", 1)])
        before = len(words.CODES)
        with pytest.raises(ValueError, match="invalid generator name '1a'"):
            hom_to_group(mu(Var("x"), Var("y"), Var("x")), {"x": "a", "y": "1a"})
        with pytest.raises(ValueError, match="invalid generator name '1a'"):
            words.CODES["1a"]
        assert len(words.CODES) == before and "1a" not in words.CODES

    def test_letter_checks_its_name_through_codes(self):
        before = len(words.CODES)
        with pytest.raises(ValueError, match="^invalid generator name '1x'$"):
            Letter("1x", 1)
        assert len(words.CODES) == before and "1x" not in words.CODES
        with pytest.raises(ValueError, match="^letter sign must be"):
            Letter("letter_with_bad_sign", 0)
        assert "letter_with_bad_sign" not in words.CODES
        letter = Letter("registered_by_letter", -1)
        assert len(words.CODES) == before + 1
        code, inverse = words.CODES["registered_by_letter"][0]
        assert encode([letter]) == inverse
        assert ReducedWord(code).letters == (Letter("registered_by_letter", 1),)

    def test_checks_run_at_the_boundary(self, checks):
        # Names new to the process: CODES checks each once, on its first
        # letter, and parse_letters hands out the letters CODES stored.
        text = "parsed_once_a parsed_once_b^-1 parsed_once_a"
        letters = parse_letters(text)
        assert checks["fullmatch"] == 2
        assert checks["Letter"] == 0
        assert letters[0] is letters[2] and letters[1] == Letter("parsed_once_b", -1)
        assert parse_letters(text) == letters and checks["fullmatch"] == 2
        assert len(reduce(letters)) == 3
        HeapWord(ReducedWord(encode([Letter("x", 1)])))
        assert checks["ReducedWord"] == 1 and checks["HeapWord"] == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Letter("1x", 1),
            lambda: Letter("x", 0),
            lambda: ReducedWord(encode([Letter("x", 1), Letter("x", -1)])),
            lambda: ReducedWord(chr(0x10FFFF)),  # no generator has this code
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
