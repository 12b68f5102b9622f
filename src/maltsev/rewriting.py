"""Convergent rewriting for the Mal'tsev identities.

The system is fixed: mu(x,y,y) -> x and mu(y,y,x) -> x.  Both rules are
size-decreasing, so every reduction terminates; uniqueness of normal forms
is certified by the critical-pair check below rather than assumed.  The
normal form of a term is the canonical representative of its class in the
free algebra on its generators, and structural equality of normal forms is
element identity.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import BudgetExceededError
from .terms import (
    MU,
    App,
    Record,
    Term,
    Var,
    count_W_levels,
    default_generators,
    enumerate_up_to,
    fold,
    format_term,
    positions,
    replace_at,
    substitute,
    term_depth,
    term_size,
    variables,
)


class RewriteSystem(Record):
    """Ordered rewrite rules (lhs, rhs).

    Construction enforces the termination witness: each rhs is strictly
    smaller than its lhs and introduces no new variables.
    """

    __slots__ = ("rules",)

    def __init__(self, rules: tuple[tuple[Term, Term], ...]):
        for lhs, rhs in rules:
            if not isinstance(lhs, App):
                raise ValueError("rule lhs must be an application")
            if not set(variables(rhs)) <= set(variables(lhs)):
                raise ValueError("rule rhs introduces new variables")
            if term_size(rhs) >= term_size(lhs):
                raise ValueError("rule rhs must be strictly smaller than lhs")
        super().__init__(rules)


_x, _y = Var("x"), Var("y")
MALTSEV_SYSTEM = RewriteSystem(
    (
        (App(MU, (_x, _y, _y)), _x),
        (App(MU, (_y, _y, _x)), _x),
    )
)


def rewrite_once(t: Term) -> Term | None:
    """One leftmost-innermost step of the Mal'tsev system, or None when t is
    already a normal form.  The result is strictly smaller in node count."""
    return _rewrite_first(t, _root_step, outermost=False)


def rewrite_once_outermost(t: Term) -> Term | None:
    """One leftmost-outermost step; used to witness strategy independence."""
    return _rewrite_first(t, _root_step, outermost=True)


def _root_step(t: App) -> Term | None:
    if t.symbol != MU or len(t.args) != 3:
        return None
    a, b, c = t.args
    if b == c:
        return a
    if a == b:
        return c
    return None


def _rewrite_first(t: Term, step, outermost: bool) -> Term | None:
    """Rewrite t at its first redex in pre-order (outermost) or post-order
    (innermost), where step(s) is the root rewrite of s or None; None when
    no subterm is a redex."""
    if isinstance(t, Var):
        return None
    if outermost and (r := step(t)) is not None:
        return r
    frames = [[t, 0]]  # an application and the index of its next argument
    while frames:
        frame = frames[-1]
        node, i = frame
        if i < len(node.args):
            frame[1] = i + 1
            child = node.args[i]
            if isinstance(child, App):
                if outermost and (r := step(child)) is not None:
                    return replace_at(t, tuple(f[1] - 1 for f in frames), r)
                frames.append([child, 0])
            continue
        frames.pop()
        if not outermost and (r := step(node)) is not None:
            return replace_at(t, tuple(f[1] - 1 for f in frames), r)
    return None


_REDUCE = object()  # marks, on the work stack, an application whose arguments are done


def _normalize(t: Term, forms: dict) -> Term:
    """The normal form of t, hash-consed in forms, in O(distinct nodes).

    forms maps each variable name to its one Var, the id of each node seen
    below a root to its normal form, and the ids of the three consed
    arguments of each normal form application to that application.  Every
    lookup is by identity, so no step compares or hashes a term, and equal
    normal forms are one object.

    The root of a call gets no id entry.  Callers may share forms across
    calls and compare results with ``is`` while the subterms of every root
    passed in stay alive (an id is unique only among live objects); a root
    may be dropped right after its call, and the normal forms stay alive in
    forms.  Raises ValueError at the first application, in pre-order, that
    is not a ternary mu.
    """
    done: list[Term] = []
    stack: list = [t]
    get = forms.get
    while stack:
        s = stack.pop()
        if s is _REDUCE:
            s = stack.pop()
            c, b, a = done.pop(), done.pop(), done.pop()
        elif (r := get(id(s))) is not None:
            done.append(r)
            continue
        elif s.__class__ is Var:
            r = forms.setdefault(s.name, s)
            if stack:
                forms[id(s)] = r
            done.append(r)
            continue
        elif s.symbol != MU or len(s.args) != 3:
            raise ValueError(f"term is not over the mu signature: {s.symbol!r}")
        else:
            x, y, z = s.args
            if (
                (a := get(id(x))) is None
                or (b := get(id(y))) is None
                or (c := get(id(z))) is None
            ):
                stack += (s, _REDUCE, z, y, x)
                continue
        # a, b and c are consed normal forms: one root step finishes s.
        r = _root_form(a, b, c, forms, s)
        if stack:  # s is not the root
            forms[id(s)] = r
        done.append(r)
    return done[0]


def _root_form(a: Term, b: Term, c: Term, forms: dict, s: App | None = None) -> Term:
    """The consed normal form of mu(a, b, c), where a, b and c are normal
    forms consed in forms: one root step, else the application consed by
    the ids of its arguments.  A new normal form is s, the term being
    normalized if the caller passes one, when its arguments are a, b and c
    themselves, and otherwise a new App."""
    if b is c:
        return a
    if a is b:
        return c
    key = (id(a), id(b), id(c))
    r = forms.get(key)
    if r is None:
        if s is None or s.args[0] is not a or s.args[1] is not b or s.args[2] is not c:
            s = App(MU, (a, b, c))
        r = forms[key] = s
    return r


def normalize(t: Term) -> Term:
    """The unique normal form of t, in time and memory O(distinct nodes):
    a subterm that occurs many times as one object is normalized once.  An
    application remembers its normal form, which this function or
    equal_in_free computed, so normalizing it again costs nothing.

    Agrees with iterating rewrite_once to a fixpoint, and with the outermost
    strategy, by convergence of the system.  Raises ValueError at the first
    application, in pre-order, that is not a ternary mu.
    """
    try:
        nf = t._nf
    except AttributeError:  # not normalized yet, or a variable
        return _remember(t, _normalize(t, {}))
    return t if nf is None else nf


def _remember(t: Term, nf: Term) -> Term:
    """nf, kept as the normal form of t when t is an application.  A term
    that is its own normal form keeps None, as a reference to itself would
    make a cycle that only the garbage collector frees.

    Only normalize reads what is kept.  _normalize and _root_form never do:
    their ``is`` rules hold only among the normal forms of one table, and a
    normal form kept from another table would break them."""
    if t.__class__ is not Var:
        t._nf = None if nf is t else nf
    return nf


def is_normal_form(t: Term) -> bool:
    """Whether no subterm of t is a redex, so that rewrite_once(t) is None."""
    return fold(t, lambda _: True, lambda s, *below: all(below) and _root_step(s) is None)


def equal_in_free(t: Term, s: Term) -> bool:
    """Word problem: do t and s denote the same element of the free algebra?
    Both sides are normalized over one table, in O(distinct nodes), and the
    consed normal forms are compared by identity.  The table conses by the
    ids of normal arguments, so the nodes of s that normalize as nodes of t
    did find t's normal forms and build nothing.  Each side remembers its
    normal form, which a later normalize of that side returns."""
    forms: dict = {}
    return _remember(t, _normalize(t, forms)) is _remember(s, _normalize(s, forms))


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
    the last two differ.  Oracle mode normalizes every term of depth <= n,
    those of depth n from the normal forms of their arguments, and counts
    the distinct normal forms; both modes agree by convergence.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    if oracle:
        return _count_M_oracle(m, n, budget)
    for count in itertools.islice(count_M_levels(m), n + 1):
        pass
    return count


def count_M_levels(m: int) -> Iterator[int]:
    """count_M(m, 0), count_M(m, 1), ... in fast mode, for m >= 1.  It ends
    only where no new irreducible term appears, since the count then holds
    at every later level: m = 1 ends after level 0, and no m > 1 ends."""
    # t_d: irreducible terms of depth exactly d; c_d cumulative.
    t_d = m
    c_prev, c_cur = 0, m
    while True:
        yield c_cur
        t_d = (c_cur**3 - c_prev**3) - 2 * (c_cur**2 - c_prev**2) + t_d
        if t_d == 0:  # then c_cur and t_d stay put at every later level
            return
        c_prev, c_cur = c_cur, c_cur + t_d


def _count_M_oracle(m: int, n: int, budget: int) -> int:
    """count_M(m, n) by normalizing every term of depth <= n over one table
    and counting the distinct consed normal forms.  The terms below level n
    are enumerated and normalized one by one, and their normal forms kept
    in enumeration order, repeats included.  Level n is never built: each
    of its S(n) - S(n-1) argument triples, those with an argument at depth
    n - 1, takes its normal form by one root step on the normal forms of
    its arguments, which is the step _normalize ends each term with.

    The budget is checked level by level first.  The error names the count
    at level n, or 2**2000 once a count over budget passes it: counts about
    cube per level, and 603 digits print under any int-to-str limit.
    """
    for d, total in zip(range(n + 1), count_W_levels(m)):
        if total > budget and (d == n or total >> 2000):
            shown = "more than 2**2000" if total >> 2000 else total
            raise BudgetExceededError(f"oracle enumeration needs {shown} terms > budget {budget}")
    if n == 0:
        return m
    forms: dict = {}
    gens = default_generators(m)
    lower = [_normalize(t, forms) for t in enumerate_up_to(gens, n - 1, budget=budget)]
    *_, split = 0, *itertools.islice(count_W_levels(m), n - 1)  # S(n-2), or 0
    old, top = lower[:split], lower[split:]  # depth below n - 1, depth n - 1
    seen = {id(r) for r in lower}
    for a, b, c in itertools.chain(
        itertools.product(top, lower, lower),
        itertools.product(old, top, lower),
        itertools.product(old, old, top),
    ):
        seen.add(id(_root_form(a, b, c, forms)))
    return len(seen)


def enumerate_normal_forms(gens: tuple[str, ...], n: int) -> list[Term]:
    """All normal forms of depth <= n over the given generators, in term
    enumeration order."""
    return [t for t in enumerate_up_to(gens, n) if is_normal_form(t)]


# ---------------------------------------------------------------------------
# Critical pairs and local confluence.
#
# This is completion machinery for the fixed system only: it certifies that
# normalize computes a well-defined canonical form.  Overlaps of a rule with
# a renamed copy of itself at the root are trivial and skipped; symmetric
# root overlaps of distinct rules are deduplicated modulo renaming and swap.


class CriticalPair(Record):
    __slots__ = ("peak", "left_result", "right_result", "position")


class ConfluenceReport(Record):
    __slots__ = ("entries",)

    @property
    def locally_confluent(self) -> bool:
        return all(joinable for _, joinable in self.entries)


def unify(s: Term, t: Term) -> dict[str, Term] | None:
    """Most general unifier, or None.  The substitution is idempotent (no
    bound variable occurs in a bound term), so one substitute applies it."""
    subst: dict[str, Term] = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = substitute(a, subst), substitute(b, subst)
        if a == b:
            continue
        if not isinstance(a, Var) and isinstance(b, Var):
            a, b = b, a
        if isinstance(a, Var):
            if a.name in variables(b):
                return None
            bound = {a.name: b}
            for name, u in subst.items():
                subst[name] = substitute(u, bound)
            subst[a.name] = b
        elif a.symbol == b.symbol and len(a.args) == len(b.args):
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return subst


def _canonical_key(ts: tuple[Term, ...]) -> tuple[str, ...]:
    """The texts of ts with their variables renamed 0, 1, ... by first
    occurrence, making renaming-equivalent tuples identical.  A digit string
    is no symbol, so a text names its term (format_term is injective)."""
    names = dict.fromkeys(name for t in ts for name in variables(t))
    renamed = {name: Var(str(k)) for k, name in enumerate(names)}
    return tuple(format_term(substitute(t, renamed)) for t in ts)


def critical_pairs(rs: RewriteSystem) -> list[CriticalPair]:
    """All nontrivial critical pairs of rs, deduplicated modulo variable
    renaming and swapping of the two results."""
    out: list[CriticalPair] = []
    seen: set[tuple[str, ...]] = set()
    for i, (l1, r1) in enumerate(rs.rules):
        for j, (l2_raw, r2_raw) in enumerate(rs.rules):
            # A renamed copy; rhs variables are among the lhs variables.
            renamed = {v: Var(v + "_r") for v in variables(l2_raw)}
            l2, r2 = substitute(l2_raw, renamed), substitute(r2_raw, renamed)
            for path, sub in positions(l1):
                if not isinstance(sub, App) or (path == () and i == j):
                    continue
                sigma = unify(sub, l2)
                if sigma is None:
                    continue
                peak = substitute(l1, sigma)
                left = substitute(r1, sigma)
                right = substitute(replace_at(l1, path, r2), sigma)
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


def fixpoint(t: Term, step) -> Term:
    """step applied until it returns None."""
    while (r := step(t)) is not None:
        t = r
    return t


def normalize_with(t: Term, rs: RewriteSystem) -> Term:
    """Fixpoint of the generic leftmost-innermost step; total because rules
    are size-decreasing."""

    def step(s: App) -> Term | None:
        for lhs, rhs in rs.rules:
            sigma = match(lhs, s)
            if sigma is not None:
                # Plain substitution: the bound subject terms must not be
                # re-traversed (their variables may share pattern names).
                return substitute(rhs, sigma)
        return None

    return fixpoint(t, lambda s: _rewrite_first(s, step, outermost=False))


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
