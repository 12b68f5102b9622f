"""Reduced words: the free group on a generator set, and the free heap as
the odd-length alternating words inside it.

A raw word reduces by deleting adjacent pairs of mutually inverse letters,
in any order (cancellation is confluent).  Heap words are the words of
shape x1 x2^-1 x3 ... x(2n)^-1 x(2n+1); they are closed under the operation
mu(a,b,c) = a b^-1 c and satisfy the para-associativity law
mu(mu(a,b,c),d,e) = mu(a,mu(d,c,b),e) = mu(a,b,mu(c,d,e)).

A word is a str of codes, one per letter: chr(2g) for the generator of
index g in ``CODES``, the process's one append-only table of names (at most
557 056, as chr stops at 0x10FFFF), and chr(2g + 1) for its inverse.  Equal
words are equal strings, and the word operations are C-level string
operations.  Codes hold only in their process: a word pickles by its names.

Words are checked once, where they come from outside: parse_letters, which
checks each name and builds its letters unchecked, and the public Letter,
ReducedWord and HeapWord constructors; ``CODES`` checks a name before it
gives it a code.  The engine trusts its own output: reduce, fg_mul, fg_inv
and heap_mu build their results reduced (and heap-shaped) by construction
and wrap them unchecked.
"""

from __future__ import annotations

import re
import sys
from _thread import allocate_lock
from typing import Iterable

from .errors import BudgetExceededError, TermSyntaxError
from .terms import IDENT_RE, Record, _trusted


class Letter(Record):
    __slots__ = ("gen", "sign")

    def __init__(self, gen: str, sign: int):
        if sign not in (1, -1):
            raise ValueError("letter sign must be +1 or -1")
        if not IDENT_RE.fullmatch(gen):
            raise ValueError(f"invalid generator name {gen!r}")
        super().__init__(gen, sign)


_FLIP: dict[int, int] = {}  # code -> its inverse's code
_SIGNS: dict[int, str] = {}  # code -> "+" or "-"
_LETTERS: dict[str, Letter] = {}  # code -> its letter
_TEXTS: dict[str, str] = {}  # code -> its letter's text, "x" or "x^-1"
_NEW_NAME = allocate_lock()  # threading.Lock, without importing threading


class _Codes(dict):
    # name -> ((code, inverse), (inverse, code)), indexed by sign < 0; one str
    # object per code, compared by identity.  A valid new name gets the next
    # index and fills the tables above under a lock, so no two names share one.
    def __missing__(self, gen: str) -> tuple:
        if not IDENT_RE.fullmatch(gen):
            raise ValueError(f"invalid generator name {gen!r}")
        with _NEW_NAME:
            if gen in self:
                return self[gen]
            g = 2 * len(self)
            if g > sys.maxunicode:
                raise BudgetExceededError(f"more than {g // 2} generator names in one process")
            code, inverse = chr(g), chr(g + 1)
            _FLIP[g], _FLIP[g + 1], _SIGNS[g], _SIGNS[g + 1] = g + 1, g, "+", "-"
            _LETTERS[code], _LETTERS[inverse] = _trusted(Letter, gen, 1), _trusted(Letter, gen, -1)
            _TEXTS[code], _TEXTS[inverse] = gen, f"{gen}^-1"
            self[gen] = pairs = (code, inverse), (inverse, code)
            return pairs


CODES = _Codes()


def encode(letters: Iterable[Letter]) -> str:
    return "".join([CODES[l.gen][l.sign < 0][0] for l in letters])


class ReducedWord(Record):
    """A word as its str of codes, no letter next to its inverse ("" is the identity)."""

    __slots__ = ("codes",)

    def __init__(self, codes: str):
        if not isinstance(codes, str):
            raise TypeError(f"a word is a str of codes (see encode), not {type(codes).__name__}")
        if codes and ord(max(codes)) >= 2 * len(CODES):
            raise ValueError(f"no generator has the code {ord(max(codes))}")
        for inverse, code in zip(codes[:-1].translate(_FLIP), codes[1:]):
            if inverse == code:
                raise ValueError(f"word is not reduced at {_LETTERS[code].gen!r}")
        super().__init__(codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __reduce__(self):
        return reduce, (self.letters,)

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(map(_LETTERS.__getitem__, self.codes))


def reduce(raw: Iterable[Letter]) -> ReducedWord:
    """Delete cancelling adjacent pairs to a fixpoint (single stack pass)."""
    stack: list[int] = []
    for code in map(ord, encode(raw)):
        if stack and stack[-1] == code ^ 1:
            stack.pop()
        else:
            stack.append(code)
    return _trusted(ReducedWord, "".join(map(chr, stack)))


def fg_mul(a: ReducedWord, b: ReducedWord) -> ReducedWord:
    """Concatenation followed by reduction.  Both words are reduced, so letters
    cancel only where they meet."""
    x, y = a.codes, b.codes
    k = _cancelling(x, y)
    return _trusted(ReducedWord, x[: len(x) - k] + y[k:])


def _cancelling(x: str, y: str) -> int:
    """How many letters cancel from each side where the reduced code strings
    x and y meet: as far as y starts with the inverse u of x's tail, found
    in one comparison or in O(log k) doubling, then halving ones."""
    u = x[len(x) - min(len(x), len(y)) :][::-1].translate(_FLIP)
    k, step = (len(u), 1) if y.startswith(u) else (0, 1)
    while k < len(u) and y.startswith(u[k : k + step], k):
        k, step = k + step, 2 * step
    while step > 1:  # y starts with u[:k] and not with u[: k + step]
        step //= 2
        if y.startswith(u[k : k + step], k):
            k += step
    return k


def _splice(out: list[str], codes: str, inverted: int) -> None:
    """Append the reduced code string codes, or its inverse if inverted, to
    the reduced codes in out, cancelling letters where the two meet.  out
    holds "" below its first code (see homomorphisms.hom_to_group)."""
    if inverted:
        codes = codes[::-1].translate(_FLIP)
    if out[-1] == codes[0].translate(_FLIP):
        k = _cancelling("".join(out[-len(codes) :]), codes)
        del out[len(out) - k :]
        codes = codes[k:]
    out += codes


def fg_inv(a: ReducedWord) -> ReducedWord:
    """The reversed word with every sign flipped."""
    return _trusted(ReducedWord, a.codes[::-1].translate(_FLIP))


def is_heap_word(a: ReducedWord) -> bool:
    """Odd length with strictly alternating signs starting and ending +1.
    Coincides with membership in the closure of the generators under the
    heap operation (checked against that oracle in the test suite)."""
    return a.codes.translate(_SIGNS) == "+-" * (len(a.codes) // 2) + "+"


class HeapWord(Record):
    __slots__ = ("word",)

    def __init__(self, word: ReducedWord):
        if not is_heap_word(word):
            raise ValueError("not a heap word (odd alternating +,-,...,+)")
        super().__init__(word)

    def __len__(self) -> int:
        return len(self.word)

    @property
    def stratum(self) -> int:
        return (len(self.word) - 1) // 2


def heap_mu(a: HeapWord, b: HeapWord, c: HeapWord) -> HeapWord:
    """a b^-1 c, reduced.  Closure holds: cancellation preserves the
    alternating pattern and parity, so the result is again a heap word and
    is wrapped unchecked."""
    return _trusted(HeapWord, fg_mul(a.word, fg_mul(fg_inv(b.word), c.word)))


class HeapGroup(Record):
    """The group derived from the heap by fixing a basepoint as identity:
    u * v = mu(u, base, v), inverse u -> mu(base, u, base)."""

    __slots__ = ("base",)

    @property
    def identity(self) -> HeapWord:
        return self.base

    def mul(self, u: HeapWord, v: HeapWord) -> HeapWord:
        return heap_mu(u, self.base, v)

    def inv(self, u: HeapWord) -> HeapWord:
        return heap_mu(self.base, u, self.base)


heap_group_ops = HeapGroup


# ---------------------------------------------------------------------------
# Word syntax: whitespace-separated letters, `x` or `x^-1`.


def parse_letters(text: str) -> tuple[Letter, ...]:
    letters = []
    for match in re.finditer(r"\S+", text):
        chunk = match.group()
        name, sign = (chunk[:-3], -1) if chunk.endswith("^-1") else (chunk, 1)
        if not IDENT_RE.fullmatch(name):
            raise TermSyntaxError(f"invalid letter {chunk!r}", match.start())
        letters.append(_trusted(Letter, name, sign))
    return tuple(letters)


def format_word(w: ReducedWord | HeapWord) -> str:
    if isinstance(w, HeapWord):
        w = w.word
    return " ".join(map(_TEXTS.__getitem__, w.codes))
