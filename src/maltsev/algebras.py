"""Finite algebras as flat operation tables, identity checking, and the
construction of ternary cancellation operations from groups, left loops,
quasigroups and retractions of the free algebra.

Carriers are always {0..n-1}; named elements are a document-level aliasing
concern.  Tables are flat and row-major with the last argument varying
fastest.  OperationTable's methods turn arguments into a flat index or
back; the one other reader of the layout is termsearch's packed pair
vectors, which sum flat indices themselves.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Iterable, Iterator, Mapping

from .errors import (
    ArityMismatchError,
    AxiomError,
    SchemaError,
    UnknownSymbolError,
)
from .terms import (
    App,
    MU,
    Record,
    Signature,
    Term,
    Var,
    format_term,
    interpret,
    parse_term,
    validate_term,
    variables,
)


class OperationTable(Record):
    __slots__ = ("arity", "entries")

    def columns(self, size: int, *columns: Iterable[int], width: int) -> Iterator[int]:
        """The values at ``width`` argument tuples, columns[i][j] being argument
        i of tuple j, as a lazy iterator: each flat index is built from the
        columns and the table read once per tuple, so a constant is its entry
        repeated.  A wrong number of columns raises at the call."""
        if len(columns) != self.arity:
            raise ArityMismatchError(
                f"table of arity {self.arity} applied to {len(columns)} argument(s)"
            )
        index = (0,) * width
        for column in columns:
            index = map(add, map(size.__mul__, index), column)
        return map(self.entries.__getitem__, index)

    def translations(self, size: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """(position, index, values) per basic translation x -> f(..., x at
        position, ...), by position, then fixed arguments: ``index`` is the
        flat index of the fixed arguments with 0 at position, ``values`` the
        stride slice entries[index : index + n*stride : stride], stride =
        n**(k-1-position)."""
        for position in range(self.arity):
            stride = size ** (self.arity - 1 - position)
            span = size * stride
            for start in range(0, len(self.entries), span):
                for index in range(start, start + stride):
                    yield position, index, self.entries[index : index + span : stride]

    def arguments(self, size: int, index: int) -> tuple[int, ...]:
        """The argument tuple at flat index ``index``."""
        return tuple(index // size**i % size for i in reversed(range(self.arity)))


def tuple_columns(size: int, arity: int) -> list[tuple[int, ...]]:
    """Column i holds argument i of every arity-tuple, in flat-index order."""
    return list(zip(*itertools.product(range(size), repeat=arity)))


def maltsev_columns(size: int) -> tuple[tuple[int, ...], ...]:
    """The columns x, y, z and target over the 2n^2 coordinates of a pair:
    (a, b, b) at each pair (a, b) in flat-index order, then (b, b, a), and a
    at both.  A ternary t satisfies t(x,y,y) = x = t(y,y,x) exactly when t
    of the x, y, z columns is the target column."""
    firsts, seconds = tuple_columns(size, 2)
    return firsts + seconds, seconds + seconds, seconds + firsts, firsts + firsts


def table_from_function(size: int, arity: int, fn) -> OperationTable:
    entries = tuple(
        fn(*args) for args in itertools.product(range(size), repeat=arity)
    )
    return OperationTable(arity, entries)


class FiniteAlgebra(Record):
    __slots__ = ("name", "size", "signature", "tables")

    def table(self, symbol: str) -> OperationTable:
        for sym, tab in self.tables:
            if sym == symbol:
                return tab
        names = ", ".join(sym for sym, _ in self.tables)
        raise UnknownSymbolError(f"unknown operation symbol {symbol!r} (operations: {names})")


def make_algebra(
    name: str, size: int, operations: Mapping[str, OperationTable]
) -> FiniteAlgebra:
    """An algebra from tables built valid; documents are checked by load_algebra."""
    sig = Signature(tuple((sym, tab.arity) for sym, tab in operations.items()))
    return FiniteAlgebra(name, size, sig, tuple(operations.items()))


# ---------------------------------------------------------------------------
# Algebra documents.
# {"name": str, "size": n, "operations": [{"symbol": s, "arity": k,
#  "table": [...]}]} with flat row-major tables, last index fastest.


def load_algebra(document: dict) -> FiniteAlgebra:
    if not isinstance(document, dict):
        raise SchemaError("document must be an object", "$")
    name = document.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("name must be a string", "name")
    size = document.get("size")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise SchemaError("size must be a positive integer", "size")
    ops = document.get("operations")
    if not isinstance(ops, list):
        raise SchemaError("operations must be a list", "operations")
    operations: dict[str, OperationTable] = {}
    for i, entry in enumerate(ops):
        where = f"operations[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError("operation must be an object", where)
        sym = entry.get("symbol")
        arity = entry.get("arity")
        table = entry.get("table")
        if not isinstance(sym, str) or not sym:
            raise SchemaError("symbol must be a nonempty string", where + ".symbol")
        if sym in operations:
            raise SchemaError(f"duplicate symbol {sym!r}", where + ".symbol")
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
            raise SchemaError("arity must be a nonnegative integer", where + ".arity")
        if not isinstance(table, list):
            raise SchemaError("table must be a list", where + ".table")
        operations[sym] = OperationTable(arity, tuple(table))
    try:
        alg = make_algebra(name, size, operations)
    except ValueError as exc:
        raise SchemaError(str(exc), "operations") from exc
    for i, (sym, tab) in enumerate(alg.tables):
        where = f"operations[{i}] ({sym!r}).table"
        length, arity = len(tab.entries), tab.arity
        # With size >= 2, size**arity exceeds the length once the arity passes
        # the length's bit count, or once size passes it with arity >= 2: the
        # power is then neither built nor printed.
        if size > 1 and (arity > length.bit_length() or (arity > 1 and size > length)):
            raise SchemaError(f"table has {length} entries, expected {size}**{arity}", where)
        if length != size**arity:
            raise SchemaError(f"table has {length} entries, expected {size**arity}", where)
        for k, e in enumerate(tab.entries):
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < size:
                raise SchemaError(f"entry {e!r} out of range 0..{size - 1}", f"{where}[{k}]")
    return alg


def dump_algebra(alg: FiniteAlgebra) -> dict:
    return {
        "name": alg.name,
        "size": alg.size,
        "operations": [
            {"symbol": sym, "arity": tab.arity, "table": list(tab.entries)}
            for sym, tab in alg.tables
        ],
    }


# ---------------------------------------------------------------------------
# Identity checking.


class Identity(Record):
    __slots__ = ("lhs", "rhs", "variables")

    def __init__(self, lhs: Term, rhs: Term, names: tuple[str, ...]):
        if not set(variables(lhs)) | set(variables(rhs)) <= set(names):
            raise ValueError("identity quantifies fewer variables than used")
        super().__init__(lhs, rhs, names)


def parse_identity(text: str, sig: Signature) -> Identity:
    if text.count("=") != 1:
        raise SchemaError("identity must contain exactly one '='", "identity")
    lhs_text, rhs_text = text.split("=")
    lhs = parse_term(lhs_text.strip(), sig)
    rhs = parse_term(rhs_text.strip(), sig)
    names = sorted(set(variables(lhs)) | set(variables(rhs)))
    return Identity(lhs, rhs, tuple(names))


def evaluate_columns(
    alg: FiniteAlgebra, t: Term, columns: Mapping[str, tuple[int, ...]], width: int
) -> tuple[int, ...]:
    """The values of t at ``width`` assignments at once, by
    OperationTable.columns: columns[v][i] is the value of variable v in
    assignment i.  It fails at the first failing node in post-order.  Each
    node's values are built into a tuple before its parent reads them: lazy
    maps nested as deep as t would be consumed through C-level recursion."""
    n = alg.size
    return interpret(
        t, columns, lambda s, *args: tuple(alg.table(s.symbol).columns(n, *args, width=width))
    )


# The most assignments check_identity evaluates in one vector.
CHUNK = 4096


def check_identity(alg: FiniteAlgebra, ident: Identity) -> dict[str, int] | None:
    """Exhaustively check the identity; None means it holds, otherwise the
    lexicographically first failing assignment is returned.  Both sides are
    evaluated as vectors over chunks of at most CHUNK assignments, each of
    which fixes the leading variables."""
    validate_term(ident.lhs, alg.signature)
    validate_term(ident.rhs, alg.signature)
    n, names = alg.size, ident.variables
    tail = len(names)  # the variables that vary within a chunk
    while n**tail > CHUNK:
        tail -= 1
    width = n**tail
    trailing = tuple_columns(n, tail)
    for leading in itertools.product(range(n), repeat=len(names) - tail):
        columns = dict(zip(names, [(v,) * width for v in leading] + trailing))
        lhs = evaluate_columns(alg, ident.lhs, columns, width)
        rhs = evaluate_columns(alg, ident.rhs, columns, width)
        if lhs != rhs:
            i = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            return {name: column[i] for name, column in columns.items()}
    return None


def is_maltsev_operation(alg: FiniteAlgebra, symbol: str) -> bool:
    """Both cancellation equations t(x,y,y)=x and t(y,y,x)=x over all pairs."""
    tab = alg.table(symbol)
    if tab.arity != 3:
        raise ArityMismatchError(f"{symbol!r} has arity {tab.arity}, need 3")
    *columns, target = maltsev_columns(alg.size)
    return tuple(tab.columns(alg.size, *columns, width=len(target))) == target


# ---------------------------------------------------------------------------
# Deriving ternary cancellation operations.
#
# Symbol conventions for documents: groups use mul/inv/e, left loops use
# star/ldiv/e, quasigroups use star with left division ldiv and right
# division rdiv.  Missing quasigroup divisions are solved from the Latin
# square of star.

GROUP_AXIOMS = (
    "mul(mul(x,y),z)=mul(x,mul(y,z))",
    "mul(x,e)=x",
    "mul(e,x)=x",
    "mul(x,inv(x))=e",
    "mul(inv(x),x)=e",
)

LEFT_LOOP_AXIOMS = (
    "star(x,ldiv(x,y))=y",
    "ldiv(x,star(x,y))=y",
    "star(x,e)=x",
)

QUASIGROUP_AXIOMS = (
    "star(rdiv(y,x),x)=y",
    "rdiv(star(y,x),x)=y",
    "star(x,ldiv(x,y))=y",
    "ldiv(x,star(x,y))=y",
)


def _derive(alg: FiniteAlgebra, axioms: tuple[str, ...], term: str) -> OperationTable:
    """The ternary operation of term in x, y, z, by one vector evaluation over
    every triple, after checking the axioms."""
    for text in axioms:
        failure = check_identity(alg, parse_identity(text, alg.signature))
        if failure is not None:
            raise AxiomError(f"axiom {text!r} fails at {failure}")
    n = alg.size
    columns = dict(zip("xyz", tuple_columns(n, 3)))
    return OperationTable(3, evaluate_columns(alg, parse_term(term, alg.signature), columns, n**3))


def maltsev_from_group(alg: FiniteAlgebra) -> OperationTable:
    """x * y^-1 * z, after verifying the group axioms."""
    return _derive(alg, GROUP_AXIOMS, "mul(x,mul(inv(y),z))")


def maltsev_from_left_loop(alg: FiniteAlgebra) -> OperationTable:
    """x * (y \\ z), after verifying the left-loop axioms."""
    return _derive(alg, LEFT_LOOP_AXIOMS, "star(x,ldiv(y,z))")


def maltsev_from_quasigroup(alg: FiniteAlgebra) -> OperationTable:
    """(x / (y \\ y)) * (y \\ z), after verifying the quasigroup axioms.

    Either division may be omitted from the input; omitted divisions are
    solved from the Latin square of star.
    """
    alg = _with_solved_divisions(alg)
    return _derive(alg, QUASIGROUP_AXIOMS, "star(rdiv(x,ldiv(y,y)),ldiv(y,z))")


def is_latin_square(alg: FiniteAlgebra, symbol: str) -> bool:
    """Binary, with every translation (each row and each column) a permutation."""
    tab, n = alg.table(symbol), alg.size
    return tab.arity == 2 and all(len(set(t)) == n for _, _, t in tab.translations(n))


def _with_solved_divisions(alg: FiniteAlgebra) -> FiniteAlgebra:
    have = {sym for sym, _ in alg.tables}
    if "rdiv" in have and "ldiv" in have:
        return alg
    if not is_latin_square(alg, "star"):
        raise AxiomError("'star' is not a Latin square; divisions are not solvable")
    n, star = alg.size, alg.table("star")
    # The inverse permutations of the columns a -> a * x, then of the rows b -> x * b.
    inverses = [sorted(range(n), key=t.__getitem__) for _, _, t in star.translations(n)]
    ops = dict(alg.tables)
    if "ldiv" not in have:
        # x \ y: the unique b with x * b = y.
        ops["ldiv"] = table_from_function(n, 2, lambda x, y: inverses[n + x][y])
    if "rdiv" not in have:
        # y / x: the unique a with a * x = y.
        ops["rdiv"] = table_from_function(n, 2, lambda y, x: inverses[x][y])
    return make_algebra(alg.name, n, ops)


def maltsev_from_retraction(
    gens: tuple[str, ...], retraction: Mapping[Term, str]
) -> OperationTable:
    """The ternary operation r(j1(x,y,z)) induced by a retraction r of the
    depth <= 1 stratum of the free algebra onto the generators.

    The retraction must be total on the depth <= 1 normal forms and fix
    every generator.
    """
    from .rewriting import enumerate_normal_forms, normalize

    m = len(gens)
    index = {g: i for i, g in enumerate(gens)}
    forms = enumerate_normal_forms(tuple(sorted(gens)), 1)
    for t in forms:
        if t not in retraction:
            raise AxiomError(f"retraction is not defined on {format_term(t)}")
        if retraction[t] not in index:
            raise AxiomError(f"retraction image {retraction[t]!r} is not a generator")
    for g in gens:
        if retraction[Var(g)] != g:
            raise AxiomError(f"retraction does not fix generator {g!r}")
    return table_from_function(
        m,
        3,
        lambda i, j, k: index[
            retraction[normalize(App(MU, (Var(gens[i]), Var(gens[j]), Var(gens[k]))))]
        ],
    )


def with_operation(alg: FiniteAlgebra, symbol: str, table: OperationTable) -> FiniteAlgebra:
    ops = dict(alg.tables)
    ops[symbol] = table
    return make_algebra(alg.name, alg.size, ops)


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product; element (i, j) is encoded as i * b.size + j."""
    if a.signature != b.signature:
        raise ValueError("product requires identical signatures")
    n, m = a.size * b.size, b.size
    ops: dict[str, OperationTable] = {}
    for sym, tab in a.tables:
        columns, width = tuple_columns(n, tab.arity), n**tab.arity
        lefts = tab.columns(a.size, *([x // m for x in c] for c in columns), width=width)
        rights = b.table(sym).columns(m, *([x % m for x in c] for c in columns), width=width)
        ops[sym] = OperationTable(tab.arity, tuple(x * m + y for x, y in zip(lefts, rights)))
    return make_algebra(f"{a.name}x{b.name}", n, ops)
