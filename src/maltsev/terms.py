"""Signatures and the term language: the absolutely free algebra over a set
of generators, with parsing, formatting, substitution and level-wise
enumeration.

A term is either a variable or an application of an operation symbol to a
tuple of argument terms.  The layer is signature-generic; the ternary symbol
``mu`` is merely a convention used by the rewriting and homomorphism layers.

Every layer imports this module, so it also holds ``Record``, the base of
the package's read-only records, and ``_trusted``, which builds one
unchecked.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Iterator, Mapping, TypeVar

from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    EvaluationError,
    NameCollisionError,
    TermSyntaxError,
)

T = TypeVar("T")

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

MU = "mu"


class Record:
    """Base of the package's read-only records.  A subclass names its fields
    in ``__slots__`` and is built with one value per field, by position.  A
    class with a check defines ``__init__`` to check the values and then
    passes them to ``Record.__init__``.  After that no field can be assigned
    or deleted.  ``_trusted`` builds a record without the check.  Records of
    one class are equal when their fields are, and hash as the tuple of
    their fields."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{self.__class__.__name__}({', '.join(self.__slots__)}) got {len(values)} value(s)"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor; the
        # default would set each slot with the refused __setattr__.
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {self.__class__.__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {self.__class__.__name__}.{name}")


def _trusted(cls, *values):
    """A record of class cls from its fields in order, which the engine
    built valid, without the checks of its constructor."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class Signature(Record):
    """An ordered list of (name, arity) pairs with pairwise-distinct names."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[tuple[str, int], ...]):
        seen = set()
        for name, arity in symbols:
            if not name or not IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid symbol name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol name {name!r}")
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")
            seen.add(name)
        super().__init__(symbols)

    def arity(self, name: str) -> int:
        return dict(self.symbols)[name]

    def __contains__(self, name: str) -> bool:
        return name in dict(self.symbols)

    def names(self) -> tuple[str, ...]:
        return tuple(dict(self.symbols))


MALTSEV_SIGNATURE = Signature(((MU, 3),))


class Term:
    """Base class; instances are always Var or App."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(name)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return other.__class__ is Var and self.name == other.name

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


class App(Term):
    """An operation symbol applied to a tuple of argument terms.

    Every walk over terms is a loop over an explicit stack, so a term of any
    depth works.  Both term classes keep plain slots and a hash computed once,
    at construction, from the arguments' hashes (a frozen guard would double
    the cost of building a node); equality compares two trees on a stack and
    stops at the first unequal hash.
    """

    __slots__ = ("symbol", "args", "_hash")

    def __init__(self, symbol: str, args: tuple[Term, ...]):
        self.symbol = symbol
        self.args = args
        self._hash = hash((symbol, args))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not App or self._hash != other._hash:
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.symbol != b.symbol or len(a.args) != len(b.args):
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if x.__class__ is not y.__class__ or x._hash != y._hash:
                    return False
                if x.__class__ is App:
                    stack.append((x, y))
                elif x.name != y.name:
                    return False
        return True

    def __repr__(self) -> str:
        return f"<App {format_term(self)}>"


def mu(a: Term, b: Term, c: Term) -> App:
    return App(MU, (a, b, c))


def subterms(t: Term) -> Iterator[Term]:
    """Every subterm of t in pre-order, left to right."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, App):
            stack.extend(reversed(s.args))


def interpret(t: Term, env: Mapping[str, T], apply: Callable[..., T]) -> T:
    """The value of t with each variable read from env and each application
    computed by apply(symbol, *argument values), in post-order, left to right."""
    order = []  # subterms in right-to-left pre-order, the reverse of post-order
    stack = [t]
    while stack:
        s = stack.pop()
        order.append(s)
        if isinstance(s, App):
            stack += s.args
    values: list = []
    for s in reversed(order):
        if isinstance(s, Var):
            if s.name not in env:
                raise EvaluationError(f"unassigned variable {s.name!r}")
            values.append(env[s.name])
        else:
            split = len(values) - len(s.args)
            values[split:] = [apply(s.symbol, *values[split:])]
    return values[0]


def term_size(t: Term) -> int:
    """Total node count (variables and applications)."""
    return sum(1 for _ in subterms(t))


def term_depth(t: Term) -> int:
    """Nesting depth: 0 for variables and constants, 1 + max over arguments
    otherwise.  A term lies in stratum n of the absolutely free algebra iff
    its depth equals n."""
    env = dict.fromkeys(variables(t), 0)
    return interpret(t, env, lambda _, *depths: (1 + max(depths)) if depths else 0)


def variables(t: Term) -> tuple[str, ...]:
    """Variable names in order of first occurrence (left to right)."""
    return tuple(dict.fromkeys(s.name for s in subterms(t) if isinstance(s, Var)))


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous first-order substitution; unmapped variables stay fixed."""
    env = {name: mapping.get(name, Var(name)) for name in variables(t)}
    return interpret(t, env, lambda symbol, *args: App(symbol, args))


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
    above = []
    for i in path:
        above.append(t)
        t = t.args[i]
    for node, i in zip(reversed(above), reversed(path)):
        s = App(node.symbol, node.args[:i] + (s,) + node.args[i + 1 :])
    return s


def validate_term(t: Term, sig: Signature) -> None:
    """Check the signature invariants: declared arities respected, variable
    names disjoint from symbol names."""
    arities = dict(sig.symbols)
    for s in subterms(t):
        if isinstance(s, Var):
            if s.name in arities:
                raise NameCollisionError(
                    f"{s.name!r} is an operation symbol, not a variable"
                )
        elif s.symbol not in arities:
            raise NameCollisionError(f"unknown operation symbol {s.symbol!r}")
        elif len(s.args) != arities[s.symbol]:
            raise ArityMismatchError(
                f"{s.symbol!r} expects {arities[s.symbol]} argument(s), got {len(s.args)}"
            )


# ---------------------------------------------------------------------------
# Parsing and formatting.
#
# Grammar (whitespace-insensitive):
#   term  := IDENT | IDENT "(" term ("," term)* ")"
#   IDENT := [A-Za-z_][A-Za-z0-9_]*
# An IDENT is an operation symbol iff declared in the signature, else a
# variable.  Declared constants (arity 0) are written without parentheses.

# An identifier and the delimiter after it; a delimiter after a ')'.
_TOKEN = re.compile(rf"\s*({IDENT_RE.pattern})?\s*([(,)]?)")
_AFTER_CLOSE = re.compile(r"\s*([,)]?)")


def parse_term(text: str, sig: Signature = MALTSEV_SIGNATURE) -> Term:
    """Parse term text against a signature.

    Unknown identifiers become variables only when not declared as symbols;
    a declared symbol of positive arity used without arguments is a name
    collision, and wrong argument counts are arity mismatches (both with the
    offending position in the message).

    Equal subterms come back as one shared object: the parse keeps one table
    of the subterms it has built, keyed by name and argument objects, so a
    text that repeats a subterm yields a DAG with one node per distinct
    subterm.  The table lives for this call only.
    """
    if not text or text.isspace():
        raise TermSyntaxError("empty term", 0)
    arities = dict(sig.symbols)
    # Open applications, innermost last: symbol, its position, arguments read.
    frames: list[tuple[str, int, list[Term]]] = []
    # Each distinct subterm built so far: leaves by name, applications by
    # (symbol, argument objects), whose arguments are themselves shared.
    shared: dict = {}
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        (name, delimiter), pos = m.groups(), m.end()
        if name is None:
            raise TermSyntaxError("expected an identifier", pos - len(delimiter))
        if delimiter == "(":
            if name not in arities:
                raise TermSyntaxError(f"unknown operation symbol {name!r}", m.start(1))
            frames.append((name, m.start(1), []))
            continue
        if arities.get(name, 0):
            raise NameCollisionError(
                f"{name!r} is an operation symbol of arity {arities[name]},"
                f" not a variable (at position {m.start(1)})"
            )
        t = shared.get(name)
        if t is None:
            t = shared[name] = App(name, ()) if name in arities else Var(name)
        # t ends an argument: read the next one, or close applications.
        while frames:
            frames[-1][2].append(t)
            if delimiter == ",":
                break
            if delimiter != ")":
                raise TermSyntaxError("expected ')'", pos)
            name, start, args = frames.pop()
            if len(args) != arities[name]:
                raise ArityMismatchError(
                    f"{name!r} expects {arities[name]} argument(s), got {len(args)}"
                    f" (at position {start})"
                )
            key = (name, tuple(args))
            t = shared.get(key)
            if t is None:
                t = shared[key] = App(*key)
            m = _AFTER_CLOSE.match(text, pos)
            delimiter, pos = m.group(1), m.end()
        else:
            if pos != len(text) or delimiter:
                raise TermSyntaxError("trailing input after term", pos - len(delimiter))
            return t


def format_term(t: Term) -> str:
    """Canonical rendering; parse_term(format_term(t)) == t."""
    parts = []
    stack: list = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            parts.append(s)
        elif isinstance(s, Var):
            parts.append(s.name)
        elif not s.args:
            parts.append(s.symbol)
        else:
            parts.append(s.symbol + "(")
            stack.append(")")
            for a in reversed(s.args[1:]):
                stack += (a, ",")
            stack.append(s.args[0])
    return "".join(parts)


# ---------------------------------------------------------------------------
# Level-wise enumeration and counting of the absolutely free mu-term algebra.
# Enumeration order is lexicographic by argument tuples over the enumeration
# of lower levels, which fixes deterministic outputs downstream.


def count_W(m: int, n: int) -> int:
    """Number of mu-terms of depth exactly n over m generators, exactly:
    S(n) - S(n-1), with S from ``count_W_levels``."""
    if m < 1:
        raise ValueError("need at least one generator")
    if n < 0:
        raise ValueError("level must be nonnegative")
    *_, previous, cumulative = 0, *itertools.islice(count_W_levels(m), n + 1)
    return cumulative - previous


def count_W_levels(m: int) -> Iterator[int]:
    """S(0), S(1), ...: the number of mu-terms of depth <= k over m generators.
    Level 0 holds the m generators; level k >= 1 the triples whose maximal
    argument level is k - 1, so S(k) - S(k-1) = S(k-1)**3 - S(k-2)**3."""
    previous, cumulative = 0, m
    while True:
        yield cumulative
        previous, cumulative = cumulative, cumulative + cumulative**3 - previous**3


def count_W_up_to(m: int, n: int) -> int:
    """S(n), the number of mu-terms of depth <= n over m generators."""
    if m < 1:
        raise ValueError("need at least one generator")
    return next(itertools.islice(count_W_levels(m), n, None)) if n >= 0 else 0


def default_generators(m: int) -> tuple[str, ...]:
    """Canonical generator names in lexicographic order."""
    if m < 1:
        raise ValueError("need at least one generator")
    if m <= 3:
        return ("x", "y", "z")[:m]
    return tuple(f"x{i}" for i in range(m))


def enumerate_up_to(gens: tuple[str, ...], n: int, budget: int = 10**6) -> Iterator[Term]:
    """Terms of depth <= n, level by level, each level in enumeration order;
    the levels are built once, each over the terms of the ones below.  A
    level past the budget raises BudgetExceededError after the levels below
    it have been yielded."""
    if sorted(gens) != list(gens) or len(set(gens)) != len(gens):
        raise ValueError("generators must be distinct and sorted")
    below: list[tuple[Term, int]] = []  # every term built, with its depth
    for d, total in zip(range(n + 1), count_W_levels(len(gens))):
        if total > budget:
            raise BudgetExceededError(
                f"enumerating W_{d} over {len(gens)} generators needs "
                f"{total} terms > budget {budget}"
            )
        if d == 0:
            level: list[Term] = [Var(g) for g in gens]
        else:
            level = [
                App(MU, (a, b, c))
                for (a, da), (b, db), (c, dc) in itertools.product(below, repeat=3)
                if max(da, db, dc) == d - 1
            ]
        below += ((t, d) for t in level)
        yield from level
