"""Signatures and the term language: the absolutely free algebra over a set
of generators, with parsing, formatting, substitution and level-wise
enumeration.

A term is either a variable or an application of an operation symbol to a
tuple of argument terms.  The layer is signature-generic; the ternary symbol
``mu`` is merely a convention used by the rewriting and homomorphism layers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    NameCollisionError,
    TermSyntaxError,
)

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

MU = "mu"


@dataclass(frozen=True)
class Signature:
    """An ordered list of (name, arity) pairs with pairwise-distinct names."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if not name or not IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid symbol name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol name {name!r}")
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")
            seen.add(name)

    def arity(self, name: str) -> int:
        for sym, ar in self.symbols:
            if sym == name:
                return ar
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)

    def names(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.symbols)


MALTSEV_SIGNATURE = Signature(((MU, 3),))


class Term:
    """Base class; instances are always Var or App."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class App(Term):
    symbol: str
    args: tuple[Term, ...]


def mu(a: Term, b: Term, c: Term) -> App:
    return App(MU, (a, b, c))


def term_size(t: Term) -> int:
    """Total node count (variables and applications)."""
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def term_depth(t: Term) -> int:
    """Nesting depth: 0 for variables and constants, 1 + max over arguments
    otherwise.  A term lies in stratum n of the absolutely free algebra iff
    its depth equals n."""
    if isinstance(t, Var):
        return 0
    if not t.args:
        return 0
    return 1 + max(term_depth(a) for a in t.args)


def variables(t: Term) -> tuple[str, ...]:
    """Variable names in order of first occurrence (left to right)."""
    out: list[str] = []
    seen: set[str] = set()

    def walk(s: Term):
        if isinstance(s, Var):
            if s.name not in seen:
                seen.add(s.name)
                out.append(s.name)
        else:
            for a in s.args:
                walk(a)

    walk(t)
    return tuple(out)


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous first-order substitution; unmapped variables stay fixed."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    return App(t.symbol, tuple(substitute(a, mapping) for a in t.args))


def positions(t: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """Every (path, subterm) pair of t in pre-order, left to right."""
    stack: list[tuple[tuple[int, ...], Term]] = [((), t)]
    while stack:
        path, s = stack.pop()
        yield path, s
        if isinstance(s, App):
            stack.extend(((*path, i), s.args[i]) for i in reversed(range(len(s.args))))


def replace_at(t: Term, path: tuple[int, ...], s: Term) -> Term:
    """t with the subterm at the position path replaced by s."""
    if not path:
        return s
    i, rest = path[0], path[1:]
    return App(t.symbol, t.args[:i] + (replace_at(t.args[i], rest, s),) + t.args[i + 1 :])


def validate_term(t: Term, sig: Signature) -> None:
    """Check the signature invariants: declared arities respected, variable
    names disjoint from symbol names."""
    if isinstance(t, Var):
        if t.name in sig:
            raise NameCollisionError(
                f"{t.name!r} is an operation symbol, not a variable"
            )
        return
    if t.symbol not in sig:
        raise NameCollisionError(f"unknown operation symbol {t.symbol!r}")
    expected = sig.arity(t.symbol)
    if len(t.args) != expected:
        raise ArityMismatchError(
            f"{t.symbol!r} expects {expected} argument(s), got {len(t.args)}"
        )
    for a in t.args:
        validate_term(a, sig)


# ---------------------------------------------------------------------------
# Parsing and formatting.
#
# Grammar (whitespace-insensitive):
#   term  := IDENT | IDENT "(" term ("," term)* ")"
#   IDENT := [A-Za-z_][A-Za-z0-9_]*
# An IDENT is an operation symbol iff declared in the signature, else a
# variable.  Declared constants (arity 0) are written without parentheses.


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def expect(self, char: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise TermSyntaxError(f"expected {char!r}", self.pos)
        self.pos += 1

    def ident(self) -> tuple[str, int]:
        self.skip_ws()
        m = IDENT_RE.match(self.text, self.pos)
        if not m:
            raise TermSyntaxError("expected an identifier", self.pos)
        self.pos = m.end()
        return m.group(), m.start()


def parse_term(text: str, sig: Signature = MALTSEV_SIGNATURE) -> Term:
    """Parse term text against a signature.

    Unknown identifiers become variables only when not declared as symbols;
    a declared symbol of positive arity used without arguments is a name
    collision, and wrong argument counts are arity mismatches (both with the
    offending position in the message).
    """
    if not text or text.isspace():
        raise TermSyntaxError("empty term", 0)
    toks = _Tokens(text)
    t = _parse(toks, sig)
    toks.skip_ws()
    if toks.pos != len(text):
        raise TermSyntaxError("trailing input after term", toks.pos)
    return t


def _parse(toks: _Tokens, sig: Signature) -> Term:
    name, start = toks.ident()
    if toks.peek() == "(":
        if name not in sig:
            raise TermSyntaxError(f"unknown operation symbol {name!r}", start)
        toks.expect("(")
        args = [_parse(toks, sig)]
        while toks.peek() == ",":
            toks.expect(",")
            args.append(_parse(toks, sig))
        toks.expect(")")
        expected = sig.arity(name)
        if len(args) != expected:
            raise ArityMismatchError(
                f"{name!r} expects {expected} argument(s), got {len(args)}"
                f" (at position {start})"
            )
        return App(name, tuple(args))
    if name in sig:
        if sig.arity(name) == 0:
            return App(name, ())
        raise NameCollisionError(
            f"{name!r} is an operation symbol of arity {sig.arity(name)},"
            f" not a variable (at position {start})"
        )
    return Var(name)


def format_term(t: Term) -> str:
    """Canonical rendering; parse_term(format_term(t)) == t."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.symbol
    return f"{t.symbol}({','.join(format_term(a) for a in t.args)})"


# ---------------------------------------------------------------------------
# Level-wise enumeration and counting of the absolutely free mu-term algebra.
# Enumeration order is lexicographic by argument tuples over the enumeration
# of lower levels, which fixes deterministic outputs downstream.


def count_W(m: int, n: int) -> int:
    """Number of mu-terms of depth exactly n over m generators, exactly.

    Level 0 holds the m generators; level n >= 1 holds the triples whose
    maximal argument level is n - 1, so with S(k) the cumulative count up to
    level k the answer is S(n-1)**3 - S(n-2)**3.
    """
    if m < 1:
        raise ValueError("need at least one generator")
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n == 0:
        return m
    cumulative = m  # S(n-1)
    previous = 0  # S(n-2)
    for _ in range(n - 1):
        level = cumulative**3 - previous**3
        previous = cumulative
        cumulative += level
    return cumulative**3 - previous**3


def count_W_up_to(m: int, n: int) -> int:
    return sum(count_W(m, i) for i in range(n + 1))


def default_generators(m: int) -> tuple[str, ...]:
    """Canonical generator names in lexicographic order."""
    if m < 1:
        raise ValueError("need at least one generator")
    if m <= 3:
        return ("x", "y", "z")[:m]
    return tuple(f"x{i}" for i in range(m))


def enumerate_level(gens: tuple[str, ...], n: int, budget: int = 10**6) -> list[Term]:
    """All terms of depth exactly n over the given generators, in enumeration
    order.  Raises BudgetExceededError before materializing oversized levels.
    """
    if sorted(gens) != list(gens) or len(set(gens)) != len(gens):
        raise ValueError("generators must be distinct and sorted")
    if count_W_up_to(len(gens), n) > budget:
        raise BudgetExceededError(
            f"enumerating W_{n} over {len(gens)} generators needs "
            f"{count_W_up_to(len(gens), n)} terms > budget {budget}"
        )
    levels: list[list[Term]] = [[Var(g) for g in gens]]
    for d in range(1, n + 1):
        below: list[tuple[Term, int]] = [
            (t, i) for i, lvl in enumerate(levels) for t in lvl
        ]
        level: list[Term] = []
        for a, da in below:
            for b, db in below:
                for c, dc in below:
                    if max(da, db, dc) == d - 1:
                        level.append(App(MU, (a, b, c)))
        levels.append(level)
    return levels[n]


def enumerate_up_to(gens: tuple[str, ...], n: int, budget: int = 10**6) -> Iterator[Term]:
    """Terms of depth <= n, level by level, each level in enumeration order."""
    for d in range(n + 1):
        yield from enumerate_level(gens, d, budget=budget)
