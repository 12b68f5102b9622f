"""Reduced words: the free group on a generator set, and the free heap as
the odd-length alternating words inside it.

A raw word reduces by deleting adjacent pairs of mutually inverse letters;
the single left-to-right stack pass below is linear and, by confluence of
cancellation, independent of deletion order.  Heap words are the words of
shape x1 x2^-1 x3 ... x(2n)^-1 x(2n+1); they are closed under the operation
mu(a,b,c) = a b^-1 c and satisfy the para-associativity law
mu(mu(a,b,c),d,e) = mu(a,mu(d,c,b),e) = mu(a,b,mu(c,d,e)).

Words are checked once, where they come from outside: parse_letters and the
public Letter, ReducedWord and HeapWord constructors.  The engine trusts its
own output: reduce, fg_mul, fg_inv, heap_mu and Letter.inverse build their
results reduced (and heap-shaped) by construction and wrap them unchecked.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import TermSyntaxError
from .terms import IDENT_RE, Record, _trusted


class Letter(Record):
    __slots__ = ("gen", "sign")

    def __init__(self, gen: str, sign: int):
        if sign not in (1, -1):
            raise ValueError("letter sign must be +1 or -1")
        if not IDENT_RE.fullmatch(gen):
            raise ValueError(f"invalid generator name {gen!r}")
        super().__init__(gen, sign)

    def inverse(self) -> "Letter":
        return _trusted(Letter, self.gen, -self.sign)


class ReducedWord(Record):
    """A word with no adjacent pair of equal generators with opposite signs.
    The empty word is the group identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[Letter, ...]):
        for a, b in zip(letters, letters[1:]):
            if a.gen == b.gen and a.sign == -b.sign:
                raise ValueError(f"word is not reduced at {a.gen!r}")
        super().__init__(letters)

    def __len__(self) -> int:
        return len(self.letters)


def reduce(raw: Sequence[Letter] | Iterable[Letter]) -> ReducedWord:
    """Delete cancelling adjacent pairs to a fixpoint (single stack pass)."""
    stack: list[Letter] = []
    for letter in raw:
        if stack and stack[-1].gen == letter.gen and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return _trusted(ReducedWord, tuple(stack))


def fg_mul(a: ReducedWord, b: ReducedWord) -> ReducedWord:
    """Concatenation followed by reduction.  Both words are reduced, so
    letters cancel only where they meet: the product costs the cancelled
    letters plus one copy."""
    x, y = a.letters, b.letters
    k, n = 0, min(len(x), len(y))
    while k < n and x[-1 - k].gen == y[k].gen and x[-1 - k].sign == -y[k].sign:
        k += 1
    return _trusted(ReducedWord, x[: len(x) - k] + y[k:])


def fg_inv(a: ReducedWord) -> ReducedWord:
    """The reversed word with every sign flipped.  Each distinct letter
    object is inverted once; the word is then mapped through those."""
    ids = list(map(id, a.letters))
    inverse = {i: l.inverse() for i, l in dict(zip(ids, a.letters)).items()}
    return _trusted(ReducedWord, tuple(map(inverse.__getitem__, reversed(ids))))


_sign = attrgetter("sign")


def is_heap_word(a: ReducedWord) -> bool:
    """Odd length with strictly alternating signs starting and ending +1.
    Coincides with membership in the closure of the generators under the
    heap operation (checked against that oracle in the test suite)."""
    signs = list(map(_sign, a.letters))
    return len(signs) % 2 == 1 and -1 not in signs[::2] and 1 not in signs[1::2]


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
        if chunk.endswith("^-1"):
            name, sign = chunk[:-3], -1
        else:
            name, sign = chunk, 1
        if not IDENT_RE.fullmatch(name):
            raise TermSyntaxError(f"invalid letter {chunk!r}", match.start())
        letters.append(Letter(name, sign))
    return tuple(letters)


def format_word(w: ReducedWord | HeapWord) -> str:
    if isinstance(w, HeapWord):
        w = w.word
    return " ".join(l.gen if l.sign == 1 else f"{l.gen}^-1" for l in w.letters)
