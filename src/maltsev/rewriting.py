"""Convergent rewriting for the Mal'tsev identities.

The system is fixed: mu(x,y,y) -> x and mu(y,y,x) -> x.  Both rules are
size-decreasing, so every reduction terminates; uniqueness of normal forms
is certified by the critical-pair check below rather than assumed.  The
normal form of a term is the canonical representative of its class in the
free algebra on its generators, and structural equality of normal forms is
element identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .errors import BudgetExceededError
from .terms import (
    MU,
    App,
    Term,
    Var,
    count_W_up_to,
    default_generators,
    enumerate_up_to,
    positions,
    replace_at,
    substitute,
    term_depth,
    term_size,
    variables,
)


@dataclass(frozen=True)
class RewriteSystem:
    """Ordered rewrite rules (lhs, rhs).

    Construction enforces the termination witness: each rhs is strictly
    smaller than its lhs and introduces no new variables.
    """

    rules: tuple[tuple[Term, Term], ...]

    def __post_init__(self):
        for lhs, rhs in self.rules:
            if not isinstance(lhs, App):
                raise ValueError("rule lhs must be an application")
            if not set(variables(rhs)) <= set(variables(lhs)):
                raise ValueError("rule rhs introduces new variables")
            if term_size(rhs) >= term_size(lhs):
                raise ValueError("rule rhs must be strictly smaller than lhs")


_x, _y = Var("x"), Var("y")
MALTSEV_SYSTEM = RewriteSystem(
    (
        (App(MU, (_x, _y, _y)), _x),
        (App(MU, (_y, _y, _x)), _x),
    )
)


def _check_mu_signature(t: Term) -> None:
    if isinstance(t, App):
        if t.symbol != MU or len(t.args) != 3:
            raise ValueError(f"term is not over the mu signature: {t.symbol!r}")
        for a in t.args:
            _check_mu_signature(a)


def rewrite_once(t: Term) -> Term | None:
    """One leftmost-innermost step of the Mal'tsev system, or None when t is
    already a normal form.  The result is strictly smaller in node count."""
    if isinstance(t, Var):
        return None
    for i, a in enumerate(t.args):
        r = rewrite_once(a)
        if r is not None:
            return App(t.symbol, t.args[:i] + (r,) + t.args[i + 1 :])
    return _root_step(t)


def rewrite_once_outermost(t: Term) -> Term | None:
    """One leftmost-outermost step; used to witness strategy independence."""
    if isinstance(t, Var):
        return None
    r = _root_step(t)
    if r is not None:
        return r
    for i, a in enumerate(t.args):
        r = rewrite_once_outermost(a)
        if r is not None:
            return App(t.symbol, t.args[:i] + (r,) + t.args[i + 1 :])
    return None


def _root_step(t: App) -> Term | None:
    if t.symbol != MU or len(t.args) != 3:
        return None
    a, b, c = t.args
    if b == c:
        return a
    if a == b:
        return c
    return None


def normalize(t: Term) -> Term:
    """The unique normal form of t (innermost evaluation in a single pass).

    Agrees with iterating rewrite_once to a fixpoint, and with the outermost
    strategy, by convergence of the system.
    """
    _check_mu_signature(t)
    return _normalize(t)


def _normalize(t: Term) -> Term:
    if isinstance(t, Var):
        return t
    a = _normalize(t.args[0])
    b = _normalize(t.args[1])
    c = _normalize(t.args[2])
    if b == c:
        return a
    if a == b:
        return c
    return App(MU, (a, b, c))


def is_normal_form(t: Term) -> bool:
    if isinstance(t, Var):
        return True
    a, b, c = t.args
    return a != b and b != c and all(is_normal_form(s) for s in t.args)


def equal_in_free(t: Term, s: Term) -> bool:
    """Word problem: do t and s denote the same element of the free algebra?"""
    return normalize(t) == normalize(s)


def level(t: Term) -> int:
    """Depth of the normal form: least k such that t's class lies in the
    k-th stratum of the free algebra."""
    return term_depth(normalize(t))


# ---------------------------------------------------------------------------
# Counting classes of the free algebra by stratum.


def count_M(m: int, n: int, oracle: bool = False, budget: int = 10**6) -> int:
    """Number of distinct normal forms of depth <= n over m generators.

    Fast mode counts irreducible terms directly: an application is
    irreducible iff its arguments are irreducible, the first two differ and
    the last two differ.  Oracle mode enumerates all terms of depth <= n,
    normalizes and deduplicates; both modes agree by convergence.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    if oracle:
        return _count_M_oracle(m, n, budget)
    # t_d: irreducible terms of depth exactly d; c_d cumulative.
    t_d = m
    c_prev, c_cur = 0, m
    for _ in range(n):
        t_d = (c_cur**3 - c_prev**3) - 2 * (c_cur**2 - c_prev**2) + t_d
        c_prev, c_cur = c_cur, c_cur + t_d
    return c_cur


def _count_M_oracle(m: int, n: int, budget: int) -> int:
    total = count_W_up_to(m, n)
    if total > budget:
        raise BudgetExceededError(
            f"oracle enumeration needs {total} terms > budget {budget}"
        )
    gens = default_generators(m)
    seen: set[Term] = set()
    for t in enumerate_up_to(gens, n, budget=budget):
        seen.add(_normalize(t))
    return len(seen)


def enumerate_normal_forms(
    gens: tuple[str, ...], n: int, budget: int = 10**6
) -> list[Term]:
    """All normal forms of depth <= n over the given generators, in term
    enumeration order."""
    return [t for t in enumerate_up_to(gens, n, budget=budget) if is_normal_form(t)]


# ---------------------------------------------------------------------------
# Critical pairs and local confluence.
#
# This is completion machinery for the fixed system only: it certifies that
# normalize computes a well-defined canonical form.  Overlaps of a rule with
# a renamed copy of itself at the root are trivial and skipped; symmetric
# root overlaps of distinct rules are deduplicated modulo renaming and swap.


@dataclass(frozen=True)
class CriticalPair:
    peak: Term
    left_result: Term
    right_result: Term
    position: tuple[int, ...]


@dataclass(frozen=True)
class ConfluenceReport:
    entries: tuple[tuple[CriticalPair, bool], ...]

    @property
    def locally_confluent(self) -> bool:
        return all(joinable for _, joinable in self.entries)


def rename_vars(t: Term, suffix: str) -> Term:
    return substitute(t, {v: Var(v + suffix) for v in variables(t)})


def _walk(t: Term, subst: dict[str, Term]) -> Term:
    while isinstance(t, Var) and t.name in subst:
        t = subst[t.name]
    return t


def _occurs(name: str, t: Term, subst: dict[str, Term]) -> bool:
    t = _walk(t, subst)
    if isinstance(t, Var):
        return t.name == name
    return any(_occurs(name, a, subst) for a in t.args)


def unify(s: Term, t: Term) -> dict[str, Term] | None:
    """Most general unifier as a triangular substitution, or None."""
    subst: dict[str, Term] = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = _walk(a, subst), _walk(b, subst)
        if a == b:
            continue
        if isinstance(a, Var):
            if _occurs(a.name, b, subst):
                return None
            subst[a.name] = b
        elif isinstance(b, Var):
            if _occurs(b.name, a, subst):
                return None
            subst[b.name] = a
        elif a.symbol == b.symbol and len(a.args) == len(b.args):
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return subst


def resolve(t: Term, subst: dict[str, Term]) -> Term:
    t = _walk(t, subst)
    if isinstance(t, Var):
        return t
    return App(t.symbol, tuple(resolve(a, subst) for a in t.args))


def _canonical_key(ts: tuple[Term, ...]) -> tuple:
    """Serialize terms with variables renumbered by first occurrence, making
    renaming-equivalent tuples identical."""
    names: dict[str, int] = {}

    def enc(t: Term) -> tuple:
        if isinstance(t, Var):
            if t.name not in names:
                names[t.name] = len(names)
            return ("v", names[t.name])
        return ("a", t.symbol) + tuple(enc(a) for a in t.args)

    return tuple(enc(t) for t in ts)


def critical_pairs(rs: RewriteSystem) -> list[CriticalPair]:
    """All nontrivial critical pairs of rs, deduplicated modulo variable
    renaming and swapping of the two results."""
    out: list[CriticalPair] = []
    seen: set[tuple] = set()
    for i, (l1, r1) in enumerate(rs.rules):
        for j, (l2_raw, r2_raw) in enumerate(rs.rules):
            l2 = rename_vars(l2_raw, "_r")
            r2 = rename_vars(r2_raw, "_r")
            for path, sub in positions(l1):
                if not isinstance(sub, App) or (path == () and i == j):
                    continue
                sigma = unify(sub, l2)
                if sigma is None:
                    continue
                peak = resolve(l1, sigma)
                left = resolve(r1, sigma)
                right = resolve(replace_at(l1, path, r2), sigma)
                key = min(
                    _canonical_key((peak, left, right)),
                    _canonical_key((peak, right, left)),
                )
                if key in seen:
                    continue
                seen.add(key)
                out.append(CriticalPair(peak, left, right, path))
    return out


def match(pattern: Term, t: Term) -> dict[str, Term] | None:
    """One-sided matching (pattern variables only); handles repeated
    variables by consistency checking."""
    subst: dict[str, Term] = {}
    stack = [(pattern, t)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            if p.name in subst:
                if subst[p.name] != s:
                    return None
            else:
                subst[p.name] = s
        elif isinstance(s, App) and p.symbol == s.symbol and len(p.args) == len(s.args):
            stack.extend(zip(p.args, s.args))
        else:
            return None
    return subst


def rewrite_once_with(t: Term, rs: RewriteSystem) -> Term | None:
    """Generic leftmost-innermost step for an arbitrary system."""
    if isinstance(t, Var):
        return None
    for i, a in enumerate(t.args):
        r = rewrite_once_with(a, rs)
        if r is not None:
            return App(t.symbol, t.args[:i] + (r,) + t.args[i + 1 :])
    for lhs, rhs in rs.rules:
        sigma = match(lhs, t)
        if sigma is not None:
            # Plain substitution: the bound subject terms must not be
            # re-traversed (their variables may share pattern names).
            return substitute(rhs, sigma)
    return None


def normalize_with(t: Term, rs: RewriteSystem) -> Term:
    """Fixpoint of the generic step; total because rules are size-decreasing."""
    for _ in count():
        r = rewrite_once_with(t, rs)
        if r is None:
            return t
        t = r
    raise AssertionError("unreachable")


def check_confluence(rs: RewriteSystem = MALTSEV_SYSTEM) -> ConfluenceReport:
    """Join every critical pair by normalization; a fully joinable report
    certifies local confluence, hence convergence for this terminating
    system."""
    entries = []
    for pair in critical_pairs(rs):
        joinable = normalize_with(pair.left_result, rs) == normalize_with(
            pair.right_result, rs
        )
        entries.append((pair, joinable))
    return ConfluenceReport(tuple(entries))
