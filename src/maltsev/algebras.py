"""Finite algebras as flat operation tables, identity checking, and the
construction of ternary cancellation operations from groups, left loops,
quasigroups and retractions of the free algebra.

Carriers are always {0..n-1}; named elements are a document-level aliasing
concern.  Tables are flat and row-major with the last argument varying
fastest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    ArityMismatchError,
    AxiomError,
    EvaluationError,
    SchemaError,
    UnknownSymbolError,
)
from .rewriting import enumerate_normal_forms, normalize
from .terms import (
    IDENT_RE,
    App,
    MU,
    Signature,
    Term,
    Var,
    parse_term,
    validate_term,
    variables,
)


@dataclass(frozen=True)
class OperationTable:
    arity: int
    entries: tuple[int, ...]

    def apply(self, size: int, *args: int) -> int:
        if len(args) != self.arity:
            raise ArityMismatchError(
                f"table of arity {self.arity} applied to {len(args)} argument(s)"
            )
        index = 0
        for a in args:
            index = index * size + a
        return self.entries[index]


def table_from_function(size: int, arity: int, fn) -> OperationTable:
    entries = tuple(
        fn(*args) for args in itertools.product(range(size), repeat=arity)
    )
    return OperationTable(arity, entries)


@dataclass(frozen=True, eq=True)
class FiniteAlgebra:
    name: str
    size: int
    signature: Signature
    tables: tuple[tuple[str, OperationTable], ...]

    def table(self, symbol: str) -> OperationTable:
        for sym, tab in self.tables:
            if sym == symbol:
                return tab
        names = ", ".join(sym for sym, _ in self.tables)
        raise UnknownSymbolError(f"unknown operation symbol {symbol!r} (operations: {names})")

    def apply(self, symbol: str, *args: int) -> int:
        return self.table(symbol).apply(self.size, *args)

    def elements(self) -> range:
        return range(self.size)


def make_algebra(
    name: str, size: int, operations: Mapping[str, OperationTable]
) -> FiniteAlgebra:
    sig = Signature(tuple((sym, tab.arity) for sym, tab in operations.items()))
    alg = FiniteAlgebra(name, size, sig, tuple(operations.items()))
    _validate_tables(alg)
    return alg


def _validate_tables(alg: FiniteAlgebra) -> None:
    if alg.size < 1:
        raise SchemaError("size must be positive", "size")
    for i, (sym, tab) in enumerate(alg.tables):
        where = f"operations[{i}] ({sym!r})"
        expected = alg.size**tab.arity
        if len(tab.entries) != expected:
            raise SchemaError(
                f"table has {len(tab.entries)} entries, expected {expected}",
                where + ".table",
            )
        for k, e in enumerate(tab.entries):
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < alg.size:
                raise SchemaError(
                    f"entry {e!r} out of range 0..{alg.size - 1}",
                    f"{where}.table[{k}]",
                )


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
        return make_algebra(name, size, operations)
    except ValueError as exc:
        raise SchemaError(str(exc), "operations") from exc


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


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term
    variables: tuple[str, ...]

    def __post_init__(self):
        used = set(variables(self.lhs)) | set(variables(self.rhs))
        if not used <= set(self.variables):
            raise ValueError("identity quantifies fewer variables than used")


def parse_identity(text: str, sig: Signature) -> Identity:
    if text.count("=") != 1:
        raise SchemaError("identity must contain exactly one '='", "identity")
    lhs_text, rhs_text = text.split("=")
    lhs = parse_term(lhs_text.strip(), sig)
    rhs = parse_term(rhs_text.strip(), sig)
    names = sorted(set(variables(lhs)) | set(variables(rhs)))
    return Identity(lhs, rhs, tuple(names))


def evaluate(alg: FiniteAlgebra, t: Term, env: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        if t.name not in env:
            raise EvaluationError(f"unassigned variable {t.name!r}")
        return env[t.name]
    args = tuple(evaluate(alg, a, env) for a in t.args)
    return alg.apply(t.symbol, *args)


def check_identity(alg: FiniteAlgebra, ident: Identity) -> dict[str, int] | None:
    """Exhaustively check the identity; None means it holds, otherwise the
    lexicographically first failing assignment is returned."""
    validate_term(ident.lhs, alg.signature)
    validate_term(ident.rhs, alg.signature)
    for values in itertools.product(alg.elements(), repeat=len(ident.variables)):
        env = dict(zip(ident.variables, values))
        if evaluate(alg, ident.lhs, env) != evaluate(alg, ident.rhs, env):
            return env
    return None


def is_maltsev_operation(alg: FiniteAlgebra, symbol: str) -> bool:
    """Both cancellation equations t(x,y,y)=x and t(y,y,x)=x over all pairs."""
    tab = alg.table(symbol)
    if tab.arity != 3:
        raise ArityMismatchError(f"{symbol!r} has arity {tab.arity}, need 3")
    n = alg.size
    for x in range(n):
        for y in range(n):
            if tab.apply(n, x, y, y) != x or tab.apply(n, y, y, x) != x:
                return False
    return True


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


def _require_axioms(alg: FiniteAlgebra, axioms: tuple[str, ...]) -> None:
    for text in axioms:
        ident = parse_identity(text, alg.signature)
        failure = check_identity(alg, ident)
        if failure is not None:
            raise AxiomError(f"axiom {text!r} fails at {failure}")


def maltsev_from_group(
    alg: FiniteAlgebra, mul: str = "mul", inv: str = "inv", unit: str = "e"
) -> OperationTable:
    """x * y^-1 * z, after verifying the group axioms."""
    _require_axioms(alg, _rename_axioms(GROUP_AXIOMS, {"mul": mul, "inv": inv, "e": unit}))
    n = alg.size
    return table_from_function(
        n, 3, lambda x, y, z: alg.apply(mul, x, alg.apply(mul, alg.apply(inv, y), z))
    )


def maltsev_from_left_loop(
    alg: FiniteAlgebra, star: str = "star", ldiv: str = "ldiv", unit: str = "e"
) -> OperationTable:
    """x * (y \\ z), after verifying the left-loop axioms."""
    _require_axioms(
        alg, _rename_axioms(LEFT_LOOP_AXIOMS, {"star": star, "ldiv": ldiv, "e": unit})
    )
    n = alg.size
    return table_from_function(
        n, 3, lambda x, y, z: alg.apply(star, x, alg.apply(ldiv, y, z))
    )


def maltsev_from_quasigroup(
    alg: FiniteAlgebra, star: str = "star", rdiv: str = "rdiv", ldiv: str = "ldiv"
) -> OperationTable:
    """(x / (y \\ y)) * (y \\ z), after verifying the quasigroup axioms.

    Either division may be omitted from the input; omitted divisions are
    solved from the Latin square of star.
    """
    alg = _with_solved_divisions(alg, star, rdiv, ldiv)
    _require_axioms(
        alg,
        _rename_axioms(QUASIGROUP_AXIOMS, {"star": star, "rdiv": rdiv, "ldiv": ldiv}),
    )
    n = alg.size
    return table_from_function(
        n,
        3,
        lambda x, y, z: alg.apply(
            star,
            alg.apply(rdiv, x, alg.apply(ldiv, y, y)),
            alg.apply(ldiv, y, z),
        ),
    )


def _rename_axioms(axioms: tuple[str, ...], mapping: dict[str, str]) -> tuple[str, ...]:
    # Single simultaneous pass over whole identifiers; naive str.replace would
    # corrupt names that occur inside other names.
    return tuple(
        IDENT_RE.sub(lambda m: mapping.get(m.group(), m.group()), text)
        for text in axioms
    )


def is_latin_square(alg: FiniteAlgebra, symbol: str) -> bool:
    tab = alg.table(symbol)
    if tab.arity != 2:
        return False
    n = alg.size
    full = set(range(n))
    for i in range(n):
        if {tab.apply(n, i, j) for j in range(n)} != full:
            return False
        if {tab.apply(n, j, i) for j in range(n)} != full:
            return False
    return True


def _with_solved_divisions(
    alg: FiniteAlgebra, star: str, rdiv: str, ldiv: str
) -> FiniteAlgebra:
    have = {sym for sym, _ in alg.tables}
    if rdiv in have and ldiv in have:
        return alg
    if not is_latin_square(alg, star):
        raise AxiomError(f"{star!r} is not a Latin square; divisions are not solvable")
    n = alg.size
    ops = dict(alg.tables)
    if ldiv not in have:
        # x \ y: the unique b with x * b = y.
        ops[ldiv] = table_from_function(
            n, 2, lambda x, y: next(b for b in range(n) if alg.apply(star, x, b) == y)
        )
    if rdiv not in have:
        # y / x: the unique a with a * x = y.
        ops[rdiv] = table_from_function(
            n, 2, lambda y, x: next(a for a in range(n) if alg.apply(star, a, x) == y)
        )
    return make_algebra(alg.name, n, ops)


def maltsev_from_retraction(
    gens: tuple[str, ...], retraction: Mapping[Term, str]
) -> OperationTable:
    """The ternary operation r(j1(x,y,z)) induced by a retraction r of the
    depth <= 1 stratum of the free algebra onto the generators.

    The retraction must be total on the depth <= 1 normal forms and fix
    every generator.
    """
    m = len(gens)
    index = {g: i for i, g in enumerate(gens)}
    forms = enumerate_normal_forms(tuple(sorted(gens)), 1)
    for t in forms:
        if t not in retraction:
            raise AxiomError(f"retraction is not defined on {t!r}")
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
    n = a.size * b.size
    ops: dict[str, OperationTable] = {}
    for sym, tab in a.tables:
        arity = tab.arity

        def fn(*args, sym=sym):
            lefts = tuple(x // b.size for x in args)
            rights = tuple(x % b.size for x in args)
            return a.apply(sym, *lefts) * b.size + b.apply(sym, *rights)

        ops[sym] = table_from_function(n, arity, fn)
    return make_algebra(f"{a.name}x{b.name}", n, ops)
