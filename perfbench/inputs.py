"""Seeded input generators.  Every input the benchmark sends is built here from
``random.Random(seed)``, without maltsev, so a change to the program cannot
change its inputs.  Terms use the representation of ``known`` (a variable is
a ``str``, ``mu(a,b,c)`` is a 3-tuple); algebras are JSON documents in the
format ``maltsev.algebras.load_algebra`` reads.
"""

from __future__ import annotations

import itertools
import random

from . import known

VARS = ("x", "y", "z", "w")


# ---------------------------------------------------------------------------
# Terms.


def expand(rng: random.Random, u):
    """One axiom instance read backwards: u becomes mu(u,w,w) or mu(w,w,u),
    with w a random term of four nodes."""
    w = tuple(rng.choice(VARS) for _ in range(3))
    return (u, w, w) if rng.random() < 0.5 else (w, w, u)


def axiom_walk(rng: random.Random, t, steps: int):
    """Apply ``steps`` backward axiom instances at random positions; the
    result has the same normal form as t."""
    for _ in range(steps):
        t = _expand_at(rng, t)
    return t


def _expand_at(rng: random.Random, t):
    if isinstance(t, str) or rng.random() < 0.3:
        return expand(rng, t)
    i = rng.randrange(3)
    return t[:i] + (_expand_at(rng, t[i]),) + t[i + 1 :]


def sized_normal_form(rng: random.Random, nodes: int):
    """A random normal form of exactly ``nodes`` nodes (nodes = 1 mod 3)."""
    if nodes == 1:
        return rng.choice(VARS)
    while True:
        # Argument sizes are 1 mod 3 and sum to nodes - 1.
        k = (nodes - 4) // 3
        i = rng.randint(0, k)
        j = rng.randint(0, k - i)
        a, b, c = (sized_normal_form(rng, 3 * m + 1) for m in (i, j, k - i - j))
        if a != b and b != c:
            return (a, b, c)


def small_pair(rng: random.Random, equal: bool, nodes: int = 40, steps: int = 5) -> dict:
    """An axiom-walk pair: normal forms of ``nodes`` nodes, each walked
    ``steps`` steps (nine nodes a step; 40 nodes and 5 steps give 85)."""
    core = sized_normal_form(rng, nodes)
    other = core
    while not equal and other == core:
        other = sized_normal_form(rng, nodes)
    lhs = axiom_walk(rng, core, steps)
    rhs = axiom_walk(rng, other, steps)
    return word_request(lhs, rhs, core, other, equal)


def large_pair(rng: random.Random, levels: int = 10) -> dict:
    """A term of 10^4 to 10^5 nodes built by doubling a shared subterm: the
    normal form is s_{i+1} = mu(s_i, v_i, s_i); the input wraps some shared
    levels in axiom instances, so every copy carries the redex."""
    core = sized_normal_form(rng, 13)
    while len(known.hom_word(core)) != 9:
        core = sized_normal_form(rng, 13)
    lhs = core
    word = known.hom_word(core)
    for level in range(levels):
        # v = mu(a,b,c) with a and c chosen so that no letters cancel where
        # h(s) h(v)^-1 h(s) is joined: every seed gets words of one length.
        a = rng.choice([g for g in VARS if g != word[0][0]])
        c = rng.choice([g for g in VARS if g != word[-1][0]])
        b = rng.choice([g for g in VARS if g not in (a, c)])
        v = (a, b, c)
        word = known.heap_op(word, known.hom_word(v), word)
        core = (core, v, core)
        inner = expand(rng, lhs) if level % 3 == 0 else lhs
        lhs = (inner, v, inner)
    return word_request(lhs, core, core, core, True)


def deep_pair(rng: random.Random, depth: int) -> dict:
    """A chain mu(...mu(mu(x,a0,b0),a1,b1)...) of the given depth with a few
    levels wrapped in axiom instances mu(s,w,w); the chain itself is the
    normal form.  Texts and words are built level by level, without nesting."""
    core: list[str] = []  # closing suffix of each chain level, innermost first
    lhs: list[str] = []
    word = [("x", 1)]
    for level in range(depth):
        a = rng.choice(VARS)
        b = rng.choice([v for v in VARS if v != a])
        if level == 0 and a == "x":
            a, b = b, a
        core.append(f",{a},{b})")
        lhs.append(f",{a},{b})")
        if rng.random() < 0.05:
            w = rng.choice(VARS)
            lhs.append(f",{w},{w})")
        for gen, sign in ((a, -1), (b, 1)):
            if word and word[-1] == (gen, -sign):
                word.pop()
            else:
                word.append((gen, sign))
    word = tuple(word)
    core_text = "mu(" * len(core) + "x" + "".join(core)
    return {
        "lhs": "mu(" * len(lhs) + "x" + "".join(lhs),
        "rhs": core_text,
        "equal": True,
        "normal_form": core_text,
        "lhs_nodes": 1 + 3 * len(lhs),
        "rhs_nodes": 1 + 3 * len(core),
        "nf_nodes": 1 + 3 * len(core),
        "lhs_word": word,
        "rhs_word": word,
        "quotient_word": (),
        "heap_word": word,
    }


def word_request(lhs, rhs, lhs_nf, rhs_nf, equal: bool) -> dict:
    """Texts to send plus the answers known by construction."""
    lhs_word = known.hom_word(lhs_nf)
    rhs_word = known.hom_word(rhs_nf)
    return {
        "lhs": known.term_text(lhs),
        "rhs": known.term_text(rhs),
        "equal": equal,
        "normal_form": known.term_text(lhs_nf),
        "lhs_nodes": known.node_count(lhs),
        "rhs_nodes": known.node_count(rhs),
        "nf_nodes": known.node_count(lhs_nf),
        "lhs_word": lhs_word,
        "rhs_word": rhs_word,
        "quotient_word": known.reduce_word(lhs_word + known.invert_word(rhs_word)),
        "heap_word": known.heap_op(lhs_word, rhs_word, lhs_word),
    }


def random_letters(rng: random.Random, length: int, gens=VARS[:3]) -> tuple:
    return tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(length))


def random_heap_word(rng: random.Random, stratum: int, gens=VARS[:3]) -> tuple:
    return known.reduce_word(
        (rng.choice(gens), 1 if i % 2 == 0 else -1) for i in range(2 * stratum + 1)
    )


# ---------------------------------------------------------------------------
# Algebra documents.  Carriers are 0..n-1; tables are flat, row-major, last
# argument fastest.


def op(symbol: str, n: int, arity: int, fn) -> dict:
    table = [fn(*args) for args in itertools.product(range(n), repeat=arity)]
    return {"symbol": symbol, "arity": arity, "table": table}


def doc(name: str, n: int, *ops: dict) -> dict:
    return {"name": name, "size": n, "operations": list(ops)}


def cyclic_group(n: int) -> dict:
    return doc(
        f"Z{n}",
        n,
        op("mul", n, 2, lambda a, b: (a + b) % n),
        op("inv", n, 1, lambda a: (-a) % n),
        op("e", n, 0, lambda: 0),
    )


def symmetric_group_3() -> dict:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(i, j):
        return index[tuple(perms[i][perms[j][k]] for k in range(3))]

    def inv(i):
        return index[tuple(perms[i].index(k) for k in range(3))]

    return doc("S3", 6, op("mul", 6, 2, mul), op("inv", 6, 1, inv), op("e", 6, 0, lambda: 0))


LOOP5_ROWS = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
)


def loop5() -> dict:
    """A non-associative loop of order 5 (a Latin square with identity 0)."""
    return doc(
        "loop5",
        5,
        op("star", 5, 2, lambda a, b: LOOP5_ROWS[a][b]),
        op("ldiv", 5, 2, lambda a, b: LOOP5_ROWS[a].index(b)),
        op("e", 5, 0, lambda: 0),
    )


def idempotent_quasigroup(n: int) -> dict:
    """x * y = 2x - y mod n (n odd): an idempotent quasigroup."""
    return doc(f"iq{n}", n, op("star", n, 2, lambda a, b: (2 * a - b) % n))


def subtraction_quasigroup(n: int) -> dict:
    return doc(f"qg{n}", n, op("star", n, 2, lambda a, b: (a - b) % n))


def chain(n: int) -> dict:
    return doc(f"chain{n}", n, op("meet", n, 2, min))


def chain_lattice(n: int) -> dict:
    return doc(f"lattice{n}", n, op("meet", n, 2, min), op("join", n, 2, max))


def boolean_lattice_4() -> dict:
    return doc(
        "bool4", 4, op("meet", 4, 2, lambda a, b: a & b), op("join", 4, 2, lambda a, b: a | b)
    )


def multiplicative_monoid(n: int) -> dict:
    return doc(f"mulmon{n}", n, op("mul", n, 2, lambda a, b: (a * b) % n))


def xor_mu() -> dict:
    return doc("mu2", 2, op("mu", 2, 3, lambda a, b, c: a ^ b ^ c))


def random_binary_3(rng: random.Random, label: str, min_level2: int = 140) -> dict:
    """A random binary operation on three elements whose pair-vector closure
    holds at least ``min_level2`` vectors after two levels, so that every seed
    draws a search of about the same cost."""
    while True:
        table = [rng.randrange(3) for _ in range(9)]
        d = {"name": f"r3-{label}", "size": 3, "operations": [{"symbol": "f", "arity": 2, "table": table}]}
        size, reached = _level2(d)
        if size >= min_level2 and not reached:
            return d


def _level2(d: dict) -> tuple[int, bool]:
    """Closure size after two levels, and whether the Maltsev target is in it."""
    n = d["size"]
    table = d["operations"][0]["table"]
    first = tuple(a for a in range(n) for b in range(n))
    second = tuple(b for a in range(n) for b in range(n))
    level = [first + second, second + second, second + first]
    seen = set(level)
    for _ in range(2):
        members = list(seen)
        for u in members:
            for v in members:
                seen.add(tuple(table[n * p + q] for p, q in zip(u, v)))
    return len(seen), first + first in seen


def product(a: dict, b: dict) -> dict:
    """Direct product; element (i, j) is i * |b| + j, as maltsev encodes it."""
    n, m = a["size"], b["size"]
    ops = []
    for oa in a["operations"]:
        ob = next(o for o in b["operations"] if o["symbol"] == oa["symbol"])

        def fn(*args, oa=oa, ob=ob):
            left = oa["table"][known.flat_index(n, [x // m for x in args])]
            right = ob["table"][known.flat_index(m, [x % m for x in args])]
            return left * m + right

        ops.append(op(oa["symbol"], n * m, oa["arity"], fn))
    return doc(f"{a['name']}x{b['name']}", n * m, *ops)


def relabel(d: dict, perm: list[int], name: str | None = None) -> dict:
    """The isomorphic copy in which element x is called perm[x]."""
    n = d["size"]
    ops = []
    for o in d["operations"]:
        table = [0] * len(o["table"])
        for args in itertools.product(range(n), repeat=o["arity"]):
            table[known.flat_index(n, [perm[x] for x in args])] = perm[
                o["table"][known.flat_index(n, args)]
            ]
        ops.append({"symbol": o["symbol"], "arity": o["arity"], "table": table})
    return {"name": name or d["name"], "size": n, "operations": ops}


def random_relabel(rng: random.Random, d: dict) -> tuple[dict, list[int]]:
    perm = list(range(d["size"]))
    rng.shuffle(perm)
    return relabel(d, perm), perm

