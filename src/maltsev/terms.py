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
import operator
import re
from sys import getrefcount
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

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

    def __init_subclass__(cls, **kwargs) -> None:
        # One C-level reader of the fields per class, giving a tuple even
        # for a one-field class.
        super().__init_subclass__(**kwargs)
        get = operator.attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor; the
        # default would set each slot with the refused __setattr__.
        return self.__class__, self._fields(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {self.__class__.__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {self.__class__.__name__}.{name}")


def _trusted(cls, *values):
    """A record of class cls from its fields in order, which the engine
    built valid, without the checks of its constructor."""
    obj = object.__new__(cls)
    Record.__init__(obj, *values)
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

    def __contains__(self, name: str) -> bool:
        return name in dict(self.symbols)


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

    def __reduce__(self):
        # A hash holds only under its process's string-hash seed.
        return Var, (self.name,)

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


# repr prints the text of an application of at most this many nodes as a
# tree, and past that only its root symbol and its counts: the text of a
# term that shares its subterms grows exponentially in its objects.
REPR_NODES = 10_000


class App(Term):
    """An operation symbol applied to a tuple of argument terms.

    Every walk over terms is a loop, so a term of any depth works, and each
    walk that computes a value from a term computes a node shared by several
    parents once.  Most are a ``fold``; ``format_term`` and
    ``homomorphisms.hom_to_group``, whose texts and words are as long as the
    tree, are loops of their own.

    Both term classes keep plain slots.  A Var hashes as its name, at once.
    An application is hashed on first use, as hash((symbol, args)), bottom-up
    over the nodes below it that have no hash yet; most terms are never
    hashed, since the engine keys its tables by id.  Equality compares two
    terms on a stack, each pair of nodes once, and stops at the first
    unequal hash.  ``rewriting.normalize`` and ``rewriting.equal_in_free``
    keep the normal form of an application in ``_nf``.  A term pickles as a
    post-order table of its nodes, which ``rebuild_term`` reads back, so it
    keeps the sharing and works at any depth, and drops both remembered
    values.
    """

    __slots__ = ("symbol", "args", "_hash", "_nf")

    def __init__(self, symbol: str, args: tuple[Term, ...]):
        self.symbol = symbol
        self.args = args

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        stack = [self]
        while stack:
            s = stack.pop()
            if hasattr(s, "_hash"):  # hashed since it was stacked
                continue
            below = [a for a in s.args if not hasattr(a, "_hash")]  # a Var has one
            if below:
                stack += (s, *below)
            else:
                s._hash = hash((s.symbol, s.args))
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not App or hash(self) != hash(other):
            return False
        stack = [(self, other)]
        matched = {}  # id of a left application -> the right node it was paired with
        while stack:
            a, b = stack.pop()
            if a.symbol != b.symbol or len(a.args) != len(b.args):
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if x.__class__ is not y.__class__ or hash(x) != hash(y):
                    return False
                if x.__class__ is App:
                    if matched.get(id(x)) is not y:  # a pair already stacked is compared once
                        matched[id(x)] = y
                        stack.append((x, y))
                elif x.name != y.name:
                    return False
        return True

    def __reduce__(self):
        table: list = []

        def add(entry) -> int:
            table.append(entry)
            return len(table) - 1

        fold(self, lambda v: add(v.name), lambda s, *below: add((s.symbol, *below)))
        return rebuild_term, (table, len(table) - 1)

    def __repr__(self) -> str:
        objects = set()

        def count(s: Term, *sizes: int) -> int:
            objects.add(id(s))
            return 1 + sum(sizes)

        size = fold(self, count, count)
        if size > REPR_NODES:
            return f"<App {self.symbol}(...) of {size} nodes on {len(objects)} objects>"
        return f"<App {format_term(self)}>"


def rebuild_term(table: list, i: int) -> Term:
    """The term of entry i of table, in which a name is a variable and
    (symbol, *indexes) the application of symbol to the terms of those
    entries.  Depth first from i, so only the entries i reaches are built,
    each once, after its arguments, and shared where it recurs."""
    built: dict[int, Term] = {}
    stack = [i]
    while stack:
        j = stack.pop()
        if j in built:  # stacked again by a later parent before it was built
            continue
        entry = table[j]
        if entry.__class__ is str:
            built[j] = Var(entry)
        elif todo := [k for k in entry[1:] if k not in built]:
            stack += (j, *todo)
        else:
            built[j] = App(entry[0], tuple(map(built.__getitem__, entry[1:])))
    return built[i]


def mu(a: Term, b: Term, c: Term) -> App:
    return App(MU, (a, b, c))


_APPLY = object()  # on fold's stack, marks an application whose arguments are done


def fold(t: Term, leaf: Callable[[Var], T], apply: Callable[..., T]) -> T:
    """The value of t computed bottom-up: leaf(v) at each variable v and
    apply(s, *argument values) at each application s, in post-order, left
    to right, a node shared by several parents computed once.  Its value is
    kept only when sys.getrefcount shows the node referenced beyond the one
    parent slot the walk came through, so an unshared node's value is
    dropped once its parent reads it; the rule never changes a value."""
    kept, values, stack = {}, [], [t]
    while stack:
        s = stack.pop()
        if s is _APPLY:
            s = stack.pop()
            split = len(values) - len(s.args)
            value = apply(s, *values[split:])
            del values[split:]
        elif (value := kept.get(id(s), _APPLY)) is not _APPLY:  # _APPLY: none kept
            values.append(value)
            continue
        elif s.__class__ is Var:
            value = leaf(s)
        else:
            stack += (s, _APPLY, *s.args[::-1])
            continue
        if getrefcount(s) > 3:  # s, the call's argument and one parent slot
            kept[id(s)] = value
        values.append(value)
    return values[0]


def interpret(t: Term, env: Mapping[str, T], apply: Callable[..., T]) -> T:
    """The fold of t that reads each variable from env, which must assign
    it, and computes each application s by apply(s, *argument values)."""
    def lookup(v: Var) -> T:
        if v.name not in env:
            raise EvaluationError(f"unassigned variable {v.name!r}")
        return env[v.name]

    return fold(t, lookup, apply)


def term_size(t: Term) -> int:
    """Node count of t as a tree: every occurrence of a shared subterm counts."""
    return fold(t, lambda _: 1, lambda _, *sizes: 1 + sum(sizes))


def term_depth(t: Term) -> int:
    """Nesting depth: 0 for variables and constants, 1 + max over arguments
    otherwise.  A term lies in stratum n of the absolutely free algebra iff
    its depth equals n."""
    return fold(t, lambda _: 0, lambda _, *depths: 1 + max(depths) if depths else 0)


def variables(t: Term) -> tuple[str, ...]:
    """Variable names in order of first occurrence (left to right)."""
    names: dict[str, None] = {}
    fold(t, lambda v: names.setdefault(v.name), lambda *_: None)
    return tuple(names)


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous first-order substitution; unmapped variables stay fixed."""
    return fold(t, lambda v: mapping.get(v.name, v), lambda s, *args: App(s.symbol, args))


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
    """Check that t keeps the declared arities and names no symbol as a
    variable; raises at the first fault in post-order, left to right."""
    arities = dict(sig.symbols)

    def check(s: Term, *_) -> None:
        if s.__class__ is Var:
            if s.name in arities:
                raise NameCollisionError(f"{s.name!r} is an operation symbol, not a variable")
        elif s.symbol not in arities:
            raise NameCollisionError(f"unknown operation symbol {s.symbol!r}")
        elif len(s.args) != arities[s.symbol]:
            raise ArityMismatchError(
                f"{s.symbol!r} expects {arities[s.symbol]} argument(s), got {len(s.args)}"
            )

    fold(t, check, check)


# ---------------------------------------------------------------------------
# Parsing and formatting.
#
# Grammar (whitespace-insensitive):
#   term  := IDENT | IDENT "(" term ("," term)* ")"
#   IDENT := [A-Za-z_][A-Za-z0-9_]*
# An IDENT is an operation symbol iff declared in the signature, else a
# variable.  Declared constants (arity 0) are written without parentheses.

# The tokens of a text are its delimiters and the runs of other characters
# between whitespace and delimiters.  parse_term reads them from one
# str.split; this pattern finds where a token starts, on the error path only.
_TOKEN = re.compile(r"[(),]|[^\s(),]+")

# parse_term remembers an application whose token run has at least this
# many tokens after its first.
_RUN = 256


def parse_term(text: str, sig: Signature = MALTSEV_SIGNATURE) -> Term:
    """Parse term text against a signature.

    Unknown identifiers become variables only when not declared as symbols;
    a declared symbol of positive arity used without arguments is a name
    collision, and wrong argument counts are arity mismatches (both with the
    offending position in the message).

    The tokens come from one C-level split of the text with its delimiters
    padded; an error finds its token's position by scanning the text again.
    Equal subterms come back as one shared object: a table of the subterms
    built in this call keys leaves by name and applications by the name and
    the ids of their arguments, so a text that repeats a subterm yields a
    DAG, and no lookup compares or hashes a term.

    A long run of tokens that the text repeats is read once.  An
    application with a long run is remembered under the id of its first
    argument (see the comments below: a chain remembers O(log n) of its
    levels, a doubling term every level); where that argument completes
    again, one comparison of token slices decides whether the same run
    follows.  Equal runs parse to the same object and a run that parsed once
    holds no error, so a skip changes no term, no sharing and no error.  A
    failed comparison forgets its key: each run is compared in vain at most once.
    """
    if not text or text.isspace():
        raise TermSyntaxError("empty term", 0)
    arities = dict(sig.symbols)
    tokens = text.replace("(", " ( ").replace(",", " , ").replace(")", " ) ").split()
    tokens += ("", "")  # past the end: no identifier and no delimiter
    # Open applications, innermost last: symbol, its token index, arguments read.
    frames: list[tuple[str, int, list[Term]]] = []
    # Each distinct subterm built so far: leaves by name, applications by
    # (symbol, *argument ids).
    shared: dict = {}
    # Remembered runs: the id of an application's first argument -> the
    # start and end of its token run and its term, or None once a check
    # against the run failed.
    runs: dict = {}
    # Where the run remembered or skipped last starts, and twice its length
    # after its first token; before any, past the end and _RUN.
    last_start, need = len(tokens), _RUN
    i = 0
    while True:
        name, delimiter = tokens[i], tokens[i + 1]
        if delimiter == "(":
            if name not in arities:
                raise _identifier_error(text, i, name, arities, True, bool(frames))
            frames.append((name, i, []))
            i += 2
            continue
        t = shared.get(name)
        if t is None:
            if arities.get(name, 0) or not IDENT_RE.fullmatch(name):
                raise _identifier_error(text, i, name, arities, False, bool(frames))
            t = shared[name] = App(name, ()) if name in arities else Var(name)
        i += 1
        # t ends an argument: read the next one, or close applications.
        while frames:
            frames[-1][2].append(t)
            if delimiter == ",":
                i += 1
                break
            if delimiter != ")":
                raise TermSyntaxError("expected ')'", _position(text, i))
            name, start, args = frames.pop()
            if len(args) != arities[name]:
                raise ArityMismatchError(
                    f"{name!r} expects {arities[name]} argument(s), got {len(args)}"
                    f" (at position {_position(text, start)})"
                )
            key = (name, *map(id, args))
            t = shared.get(key)
            if t is None:
                t = shared[key] = App(name, tuple(args))
                if i - start >= need or (start > last_start and i - start >= _RUN):
                    runs.setdefault(id(args[0]), (start, i + 1, t))
                    last_start, need = start, 2 * (i - start)
            else:
                # t was built before.  While it opens the arguments of an
                # application, and a remembered run with the same first
                # argument goes on as the tokens after t do, skip that run.
                while runs and frames and not frames[-1][2]:
                    run = runs.get(id(t))
                    if run is None:
                        break
                    run_start, run_end, u = run
                    start = frames[-1][1]
                    end = start + run_end - run_start
                    if tokens[start] != tokens[run_start] or (
                        tokens[i + 1 : end] != tokens[run_start + i + 1 - start : run_end]
                    ):
                        runs[id(t)] = None
                        break
                    frames.pop()
                    t, i = u, end - 1
                    last_start, need = start, 2 * (i - start)
            i += 1
            delimiter = tokens[i]
        else:
            if delimiter:
                raise TermSyntaxError("trailing input after term", _position(text, i))
            return t


def _position(text: str, i: int) -> int:
    """Where token i of text starts, or len(text) past its last token."""
    m = next(itertools.islice(_TOKEN.finditer(text), i, None), None)
    return len(text) if m is None else m.start()


def _identifier_error(text, i, name, arities, opens, nested) -> Exception:
    """The error at token i, which stands where an identifier belongs and
    is no symbol (if opens, as "(" follows it) or no leaf, inside an
    application if nested.  A token that starts with an identifier and goes
    on with other characters is that identifier, used as a leaf, followed
    by those characters."""
    m = IDENT_RE.match(name)
    if m is None:
        return TermSyntaxError("expected an identifier", _position(text, i))
    ident = m.group()
    if opens and ident == name:
        return TermSyntaxError(f"unknown operation symbol {name!r}", _position(text, i))
    if arities.get(ident, 0):
        return NameCollisionError(
            f"{ident!r} is an operation symbol of arity {arities[ident]},"
            f" not a variable (at position {_position(text, i)})"
        )
    after = _position(text, i) + m.end()
    if nested:
        return TermSyntaxError("expected ')'", after)
    return TermSyntaxError("trailing input after term", after)


def format_term(t: Term) -> str:
    """Canonical rendering; parse_term(format_term(t)) == t.  A run of
    variables that ends an argument list goes on the stack as one text.  An
    unshared node's parts go straight into the output, so a chain costs no
    copy per level.  A shared application (by fold's rule) is rendered once:
    its parts are joined into one text at its second occurrence, which every
    later one appends."""
    parts: list[str] = []
    stack: list = [t]
    # The id of each shared application met -> the start and end of its
    # parts, or its text once it occurs again.
    spans: dict = {}
    while stack:
        s = stack.pop()
        if s.__class__ is str:
            parts.append(s)
        elif s.__class__ is Var:
            parts.append(s.name)
        elif s.__class__ is tuple:  # a shared application's parts end here
            spans[s[0]] = s[1], len(parts)
        elif not s.args:
            parts.append(s.symbol)
        else:
            if getrefcount(s) > 3:  # s, the call's argument and one parent slot
                span = spans.get(id(s))
                if span is None:
                    stack.append((id(s), len(parts)))
                else:
                    if span.__class__ is tuple:
                        span = spans[id(s)] = "".join(parts[span[0] : span[1]])
                    parts.append(span)
                    continue
            args = s.args
            k = len(args) - 1
            text = ")"
            while k and args[k].__class__ is Var:
                text = f",{args[k].name}{text}"
                k -= 1
            stack.append(text)
            while k:
                stack += (args[k], ",")
                k -= 1
            stack.append(args[0])
            parts.append(s.symbol + "(")
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


def default_generators(m: int) -> tuple[str, ...]:
    """Canonical generator names in lexicographic order."""
    if m < 1:
        raise ValueError("need at least one generator")
    if m <= 3:
        return ("x", "y", "z")[:m]
    return tuple(f"x{i}" for i in range(m))


def enumerate_up_to(gens: tuple[str, ...], n: int, budget: int = 10**6) -> Iterator[Term]:
    """Terms of depth <= n, level by level, each level in enumeration order;
    the levels below n are built once, as lists, each over the terms of the
    ones below it.  Level n is yielded term by term as it is built and kept
    nowhere, so a caller that drops each term holds only the lower levels.
    A level past the budget raises BudgetExceededError after the levels
    below it have been yielded."""
    if sorted(gens) != list(gens) or len(set(gens)) != len(gens):
        raise ValueError("generators must be distinct and sorted")
    below: list[tuple[Term, int]] = []  # every term of the lists, with its depth
    for d, total in zip(range(n + 1), count_W_levels(len(gens))):
        if total > budget:
            raise BudgetExceededError(
                f"enumerating W_{d} over {len(gens)} generators needs "
                f"{total} terms > budget {budget}"
            )
        if d == 0:
            level: Iterable[Term] = (Var(g) for g in gens)
        else:
            level = (
                App(MU, (a, b, c))
                for (a, da), (b, db), (c, dc) in itertools.product(below, repeat=3)
                if max(da, db, dc) == d - 1
            )
        if d < n:
            level = list(level)
            below += ((t, d) for t in level)
        yield from level
