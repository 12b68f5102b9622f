"""Known-answer checks, written independently of maltsev.

Nothing here imports the program under test.  Expected answers come from the
way an input was built (a term is an axiom walk away from a known normal
form; an algebra is a relabeled copy of one whose congruences are known) or
from theory (normal subgroups give the congruences of a group; a quasigroup
of prime order is simple; intervals give the congruences of a chain).

Terms are the benchmark's own: a variable is a ``str``, ``mu(a,b,c)`` is the
tuple ``(a, b, c)``.  Words are tuples of ``(generator, sign)`` pairs.  Walks
over terms and words are iterative, so deep inputs cannot exhaust the stack.
"""

from __future__ import annotations

import itertools
import re


# ---------------------------------------------------------------------------
# Free-group and heap words: a stack reducer.


def reduce_word(letters) -> tuple:
    """Cancel adjacent inverse pairs in one left-to-right stack pass."""
    stack: list = []
    for gen, sign in letters:
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


def invert_word(word) -> tuple:
    return tuple((gen, -sign) for gen, sign in reversed(word))


def heap_op(a, b, c) -> tuple:
    """a b^-1 c, reduced."""
    return reduce_word(a + invert_word(b) + c)


def is_heap_word(word) -> bool:
    """Odd length, signs alternating +,-,...,+ (reduced input)."""
    return len(word) % 2 == 1 and all(
        sign == (1 if i % 2 == 0 else -1) for i, (_, sign) in enumerate(word)
    )


def word_text(word) -> str:
    return " ".join(g if s == 1 else f"{g}^-1" for g, s in word)


# ---------------------------------------------------------------------------
# The benchmark's own mu-terms (str or 3-tuple), walked iteratively with a memo
# keyed by object identity so that shared subterms are visited once.


def _postorder(t, leaf, node):
    """Fold a term bottom-up: leaf(name) at variables, node(a, b, c) over the
    folded arguments of each application, once per shared subterm."""
    if isinstance(t, str):
        return leaf(t)
    memo: dict[int, object] = {}
    stack = [t]
    while stack:
        s = stack[-1]
        if id(s) in memo:
            stack.pop()
            continue
        pending = [a for a in s if not isinstance(a, str) and id(a) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[id(s)] = node(*(leaf(a) if isinstance(a, str) else memo[id(a)] for a in s))
    return memo[id(t)]


def term_text(t) -> str:
    """Canonical text, as maltsev's documented syntax prints it."""
    return _postorder(t, lambda v: v, lambda a, b, c: f"mu({a},{b},{c})")


def node_count(t) -> int:
    """Tree size (shared subterms counted once per occurrence)."""
    return _postorder(t, lambda v: 1, lambda a, b, c: 1 + a + b + c)


def hom_word(t) -> tuple:
    """Image in the free group: x -> x, mu(a,b,c) -> a b^-1 c."""
    return _postorder(t, lambda v: ((v, 1),), heap_op)


def leaf_parity(t, witness: str) -> int:
    """Value of t in the two-element group (mu = xor) under the indicator of
    the witness: the parity of the witness's leaf occurrences."""
    return _postorder(t, lambda v: 1 if v == witness else 0, lambda a, b, c: a ^ b ^ c)


def is_normal_form(t) -> bool:
    """No subterm mu(a,b,c) with a = b or b = c (small terms only: equality of
    nested tuples recurses)."""
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            continue
        a, b, c = s
        if a == b or b == c:
            return False
        stack.extend(s)
    return True


def count_normal_forms(m: int, n: int) -> int:
    """Distinct elements of depth <= n in the free algebra on m generators.

    An application is irreducible iff its arguments are, the first two differ
    and the last two differ.  Over c cumulative irreducibles (p of them below
    the last level) the triples reaching the last level number c^3 - p^3, of
    which c^2 - p^2 have a = b, as many have b = c, and t (the last level's
    size) have a = b = c.
    """
    t, p, c = m, 0, m
    for _ in range(n):
        t = (c**3 - p**3) - 2 * (c**2 - p**2) + t
        p, c = c, c + t
    return c


# ---------------------------------------------------------------------------
# General terms in CLI output (any signature), parsed and evaluated on tables.

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[(),])")


def parse_general(text: str):
    """``name`` or ``name(arg, ...)`` into ("name", (args...)); variables and
    constants are ("name", ())."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def term():
        nonlocal pos
        name = tokens[pos]
        pos += 1
        args = []
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            args.append(term())
            while tokens[pos] == ",":
                pos += 1
                args.append(term())
            if tokens[pos] != ")":
                raise ValueError(f"bad term text {text!r}")
            pos += 1
        return (name, tuple(args))

    out = term()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


def evaluate(doc: dict, term, env: dict[str, int]) -> int:
    name, args = term
    if not args and name in env:
        return env[name]
    op = _op(doc, name)
    values = [evaluate(doc, a, env) for a in args]
    return op["table"][flat_index(doc["size"], values)]


def _op(doc: dict, symbol: str) -> dict:
    for op in doc["operations"]:
        if op["symbol"] == symbol:
            return op
    raise KeyError(symbol)


def flat_index(n: int, values) -> int:
    index = 0
    for v in values:
        index = index * n + v
    return index


def is_maltsev_witness(doc: dict, term) -> bool:
    """t(x,y,y) = x = t(y,y,x) for every x, y of the algebra."""
    n = doc["size"]
    for x in range(n):
        for y in range(n):
            if evaluate(doc, term, {"x": x, "y": y, "z": y}) != x:
                return False
            if evaluate(doc, term, {"x": y, "y": y, "z": x}) != x:
                return False
    return True


def is_maltsev_table(n: int, table) -> bool:
    return all(
        table[flat_index(n, (x, y, y))] == x and table[flat_index(n, (y, y, x))] == x
        for x in range(n)
        for y in range(n)
    )


# ---------------------------------------------------------------------------
# Term-condition closures, independent of maltsev's pair-vector search.


def two_element_has_maltsev(table8) -> bool:
    """Close the three ternary projections of {0,1} under the ternary
    operation (the ternary clone, at most 256 functions), level by level, and
    stop at the first member with t(x,y,y) = x = t(y,y,x)."""
    points = list(itertools.product((0, 1), repeat=3))
    position = {p: i for i, p in enumerate(points)}

    def maltsev(f) -> bool:
        return all(
            f[position[(x, y, y)]] == x and f[position[(y, y, x)]] == x
            for x in (0, 1)
            for y in (0, 1)
        )

    clone = [tuple(p[i] for p in points) for i in range(3)]
    seen = set(clone)
    start = 0
    while True:
        end = len(clone)
        for a, b, c in itertools.product(range(end), repeat=3):
            if max(a, b, c) < start:
                continue
            f, g, h = clone[a], clone[b], clone[c]
            v = tuple(table8[4 * f[k] + 2 * g[k] + h[k]] for k in range(8))
            if v not in seen:
                if maltsev(v):
                    return True
                seen.add(v)
                clone.append(v)
        if len(clone) == end:
            return False
        start = end


def pair_closure_size(doc: dict, limit: int) -> tuple[int, bool]:
    """Size of the closure of the x, y, z pair vectors (t(a,b,b), t(b,b,a) over
    all a, b) under the basic operations, stopping once it exceeds ``limit``.
    Returns (size, whether the Maltsev target vector was reached)."""
    n = doc["size"]
    pairs = [(a, b) for a in range(n) for b in range(n)]
    first = tuple(a for a, b in pairs)
    second = tuple(b for a, b in pairs)
    target = first + first
    elements = [first + second, second + second, second + first]
    seen = set(elements)
    ops = [(op["arity"], op["table"]) for op in doc["operations"]]
    width = 2 * n * n
    frontier_start = 0
    while True:
        end = len(elements)
        new = []
        for arity, table in ops:
            if arity == 0:
                vecs = [(table[0],) * width] if frontier_start == 0 else []
            else:
                vecs = (
                    tuple(
                        table[flat_index(n, [elements[i][c] for i in idxs])]
                        for c in range(width)
                    )
                    for idxs in itertools.product(range(end), repeat=arity)
                    if max(idxs) >= frontier_start
                )
            for vec in vecs:
                if vec not in seen:
                    seen.add(vec)
                    new.append(vec)
                    if len(seen) > limit:
                        return len(seen), target in seen
        if not new:
            return len(seen), target in seen
        elements.extend(new)
        frontier_start = end


# ---------------------------------------------------------------------------
# Congruences known from theory.  Partitions are label tuples with blocks
# numbered by least element.


def canonical(labels) -> tuple:
    remap: dict = {}
    return tuple(remap.setdefault(x, len(remap)) for x in labels)


def chain_congruences(order: list[int]) -> set[tuple]:
    """A chain (under meet) has exactly the partitions into intervals of its
    order as congruences: 2^(n-1) of them."""
    n = len(order)
    out = set()
    for cuts in itertools.product((0, 1), repeat=n - 1):
        labels = [0] * n
        block = 0
        for i, element in enumerate(order):
            if i and cuts[i - 1]:
                block += 1
            labels[element] = block
        out.add(canonical(labels))
    return out


def chain_principal(order: list[int], a: int, b: int) -> tuple:
    """Cg(a, b) in a chain: the interval between a and b, singletons elsewhere."""
    pos = {e: i for i, e in enumerate(order)}
    lo, hi = sorted((pos[a], pos[b]))
    return canonical([lo if lo <= pos[x] <= hi else len(order) + x for x in range(len(order))])


def group_normal_subgroups(mul, inv, n: int) -> list[frozenset]:
    """Every normal subgroup of a finite group given by its tables, found as
    the joins of normal closures of single elements."""
    closures = {normal_closure(mul, inv, n, g) for g in range(n)}
    found = set(closures)
    queue = list(closures)
    while queue:
        h = queue.pop()
        for k in list(found):
            j = _generated(mul, n, h | k)
            if j not in found:
                found.add(j)
                queue.append(j)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _generated(mul, n: int, gens) -> frozenset:
    members = set(gens)
    frontier = list(members)
    while frontier:
        g = frontier.pop()
        for h in list(members):
            for p in (mul[g * n + h], mul[h * n + g]):
                if p not in members:
                    members.add(p)
                    frontier.append(p)
    return frozenset(members)


def normal_closure(mul, inv, n: int, g: int) -> frozenset:
    identity = mul[g * n + inv[g]]
    conjugates = {mul[mul[x * n + g] * n + inv[x]] for x in range(n)}
    return _generated(mul, n, conjugates | {identity})


def coset_partition(mul, inv, n: int, subgroup) -> tuple:
    """x ~ y iff x^-1 y lies in the (normal) subgroup."""
    labels = [None] * n
    for x in range(n):
        if labels[x] is None:
            for h in subgroup:
                labels[mul[x * n + h]] = x
    return canonical(labels)


def group_congruences(d: dict) -> set[tuple]:
    """Congruences of a group document (mul, inv): the coset partitions of
    its normal subgroups."""
    mul, inv, n = _op(d, "mul")["table"], _op(d, "inv")["table"], d["size"]
    return {coset_partition(mul, inv, n, h) for h in group_normal_subgroups(mul, inv, n)}


def group_principal(d: dict, a: int, b: int) -> tuple:
    """Cg(a, b) in a group: cosets of the normal closure of a^-1 b."""
    mul, inv, n = _op(d, "mul")["table"], _op(d, "inv")["table"], d["size"]
    return coset_partition(mul, inv, n, normal_closure(mul, inv, n, mul[inv[a] * n + b]))


def is_homomorphic_image(src: dict, labels, dst: dict) -> bool:
    """The map x -> labels[x] is a homomorphism of src onto dst."""
    n, m = src["size"], dst["size"]
    if m != max(labels) + 1:
        return False
    for op in src["operations"]:
        target = _op(dst, op["symbol"])["table"]
        for args in itertools.product(range(n), repeat=op["arity"]):
            image = target[flat_index(m, [labels[a] for a in args])]
            if labels[op["table"][flat_index(n, args)]] != image:
                return False
    return True


def relation(labels) -> set:
    return {(x, y) for x in range(len(labels)) for y in range(len(labels)) if labels[x] == labels[y]}


def permutes(p, q) -> bool:
    """Relational products p;q and q;p coincide."""
    r, s = relation(p), relation(q)
    return _compose(r, s) == _compose(s, r)


def _compose(r, s) -> set:
    after: dict[int, set] = {}
    for y, z in s:
        after.setdefault(y, set()).add(z)
    return {(x, z) for x, y in r for z in after.get(y, ())}
