"""Terms of depth 5000 and more.  Every walk over a term is a loop, so
parsing, formatting, equality, hashing, normalization, evaluation and the
map into the free group work at any depth.  Each answer is checked against a
level-by-level computation along the chain that uses the recursive reference
implementations only on the small fillers."""

import functools
import re
import time
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from maltsev.algebras import OperationTable, check_identity, evaluate_columns, make_algebra, parse_identity
from maltsev.homomorphisms import eval_term, hom_to_group
from maltsev.rewriting import count_M, equal_in_free, is_normal_form, normalize
from maltsev.terms import (
    MALTSEV_SIGNATURE,
    MU,
    App,
    Var,
    format_term,
    mu,
    parse_term,
    substitute,
    term_depth,
    term_size,
    variables,
)
from maltsev.words import HeapWord

from conftest import (
    GENS3,
    Chain,
    apply,
    bundled_algebras,
    chain_strategy,
    evaluate,
    reference_hom_to_group,
    subterms,
    tree_format_term,
)
from test_rewriting import reference_normalize
from test_terms import parse_outcome, reference_format, reference_parse

X, Y, Z = Var("x"), Var("y"), Var("z")

DEEP = settings(max_examples=10, deadline=None)


def root_step(a, b, c):
    if b == c:
        return a
    if a == b:
        return c
    return App(MU, (a, b, c))


def perm_mul(p, q):
    """p then q."""
    return tuple(q[i] for i in p)


def perm_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


@DEEP
@given(chain_strategy())
def test_parse_format_round_trip(chain):
    t = chain.build()
    text = chain.fold(reference_format, lambda a, b, c: f"mu({a},{b},{c})")
    assert format_term(t) == text
    assert parse_term(text) == t


@DEEP
@given(chain_strategy())
def test_equality_and_hash(chain):
    t, u = chain.build(), chain.build()
    assert t is not u
    assert t == u and hash(t) == hash(u) and len({t, u}) == 1
    # The same chain on a different seed differs only at the bottom.
    v = chain._replace(seed=mu(chain.seed, X, Y)).build()
    assert t != v and not t == v


@DEEP
@given(chain_strategy())
def test_normalize(chain):
    t = chain.build()
    assert normalize(t) == chain.fold(reference_normalize, root_step)
    assert equal_in_free(t, mu(Y, Y, t))


@DEEP
@given(
    chain_strategy(),
    st.lists(st.integers(0, 2), min_size=27, max_size=27),
    st.tuples(*[st.integers(0, 2)] * 3),
)
def test_evaluate(chain, table, values):
    env = dict(zip(GENS3, values))
    alg = make_algebra("T", 3, {"mu": OperationTable(3, tuple(table))})
    op = functools.partial(apply, alg, "mu")
    expected = chain.fold(lambda s: evaluate(alg, s, env), op)
    t = chain.build()
    assert eval_term(t, env, op) == expected
    assert evaluate_columns(alg, t, {v: (x,) for v, x in env.items()}, 1) == (expected,)


@DEEP
@given(chain_strategy(), st.tuples(*[st.permutations(range(5))] * 3))
def test_hom_to_group(chain, perms):
    # Compared through a homomorphism of the free group into S5.
    image = {g: tuple(p) for g, p in zip(GENS3, perms)}

    def word_image(letters):
        out = tuple(range(5))
        for letter in letters:
            p = image[letter.gen]
            out = perm_mul(out, p if letter.sign == 1 else perm_inv(p))
        return out

    expected = chain.fold(
        lambda s: word_image(reference_hom_to_group(s)),
        lambda a, b, c: perm_mul(perm_mul(a, perm_inv(b)), c),
    )
    word = hom_to_group(chain.build())
    assert word_image(word.letters) == expected
    HeapWord(word)  # the constructor checks the heap-word shape


def zigzag(depth):
    """A depth-``depth`` chain whose deeper term moves through the three
    argument positions."""
    return Chain(X, ((0, Y, Z), (1, Z, X), (2, X, Y)), depth).build()


def test_every_entry_point_at_depth_20000():
    t = zigzag(20000)
    text = format_term(t)
    assert parse_term(text) == t and hash(parse_term(text)) == hash(t)
    assert equal_in_free(t, mu(t, Z, Z))
    assert normalize(t) == t  # no level is a redex
    assert len(hom_to_group(t)) % 2 == 1
    assert eval_term(t, {"x": 1, "y": 1, "z": 1}, lambda a, b, c: a ^ b ^ c) == 1
    z3 = bundled_algebras()["z3"]
    chain = "mul(" * 20000 + "x" + ",x)" * 20000
    # 20001 copies of x: 20001 = 0 (mod 3), so the chain is e.
    assert check_identity(z3, parse_identity(f"{chain} = e", z3.signature)) is None
    assert evaluate_columns(z3, parse_term(chain, z3.signature), {"x": (2,)}, 1) == (0,)


def test_shared_images_are_mapped_once():
    # s_{i+1} = mu(s_i, s_i, s_i): 201 distinct nodes, 3^200 leaves as a
    # tree.  Each level's image is s_0's, built once and spliced three times.
    s0 = mu(X, Y, Z)
    t = s0
    for _ in range(200):
        t = mu(t, t, t)
    start = time.perf_counter()
    assert hom_to_group(t) == hom_to_group(s0)
    assert time.perf_counter() - start < 1


def test_shared_texts_are_rendered_once():
    # s_{i+1} = mu(s_i, w, s_i) at i = 16: 2^17 - 1 applications as a tree.
    t = X
    for _ in range(16):
        t = mu(t, Var("w"), t)
    assert format_term(t) == tree_format_term(t)


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walkers_use_memory_linear_in_the_term():
    # 60001 nodes.  A walker that keeps a path or a copy per pending node
    # needs memory in the order of nodes * depth, about a gigabyte here.
    t = zigzag(20000)
    assert peak_bytes(variables, t) < 1_000_000
    # A fold keeps the pending nodes and argument values, about 0.7 MB
    # here, and a value only for a node with several parents.
    assert peak_bytes(term_size, t) < 1_000_000
    assert peak_bytes(term_depth, t) < 1_000_000
    assert peak_bytes(is_normal_form, t) < 1_000_000
    assert peak_bytes(eval_term, t, {"x": 1, "y": 1, "z": 1}, lambda a, b, c: a ^ b ^ c) < 1_000_000
    # The substituted term itself takes about 2.4 MB.
    assert peak_bytes(substitute, t, {"x": Y, "y": Z}) < 4_000_000
    assert peak_bytes(hom_to_group, t) < 4_000_000
    assert peak_bytes(normalize, t) < 8_000_000
    # The vector evaluator keeps one vector per pending argument, not one
    # per node: about 0.5 MB here, nearly all of it the fold's stack.
    z3 = bundled_algebras()["z3"]
    chain = "mul(" * 20000 + "x" + ",x)" * 20000
    assert peak_bytes(check_identity, z3, parse_identity(f"{chain} = e", z3.signature)) < 1_000_000


def test_parse_memory_is_linear_in_the_text():
    # 160001 characters, 140001 tokens: the token list with its 20000 "mu"
    # strings takes about 2 MB, the 20000 applications with their argument
    # tuples about 3 MB, and their cons keys of three ids about 3.5 MB.
    text = format_term(zigzag(20000))
    assert peak_bytes(parse_term, text) < 10_000_000


def test_count_m_oracle_keeps_only_the_lower_levels():
    # 27003 terms of depth <= 2 over three generators.  No level-2 term is
    # built: each takes its normal form from its arguments' normal forms, so
    # the peak is the 30 lower terms, the 2943 normal forms and the table:
    # about 1.2 MB, where keeping every term would take about 9 MB.
    assert peak_bytes(count_M, 3, 2, True) < 3_000_000


def balanced(depth):
    """The full ternary mu-term of the given depth over x, y, z, each level
    with its arguments in a different order."""
    t = [X, Y, Z]
    for d in range(depth):
        t = [mu(*t), mu(t[1], t[2], t[0]), mu(t[2], t[0], t[1])]
    return t[0]


def test_syntax_error_far_into_a_valid_prefix():
    # A shallow text, so the recursive reference parser can read it, with
    # its first error about 100 000 characters in.
    text = format_term(balanced(10))
    cut = text.index(",", 100_000)
    for bad in (
        text[:cut] + " $" + text[cut:],
        text[:cut] + text[cut + 1 :],
        text[:cut] + ",x" + text[cut:],
        text[:cut] + ")",
        text[:cut] + "(y)" + text[cut:],
        text[:cut] + ",mu" + text[cut:],
    ):
        outcome = parse_outcome(parse_term, bad, MALTSEV_SIGNATURE)
        assert outcome == parse_outcome(reference_parse, bad, MALTSEV_SIGNATURE)
        position = int(re.search(r"at position (\d+)", outcome[1]).group(1))
        assert 99_900 < position < 100_100


def test_long_texts_parse_to_one_object_per_distinct_subterm():
    # balanced(10) repeats runs of up to 26 000 characters, which parse_term
    # reads once each; zigzag(20000) repeats no run.
    for t in (balanced(10), zigzag(20000)):
        text = format_term(t)
        u = parse_term(text)
        assert u == t
        nodes = list(subterms(u))
        assert len({id(s) for s in nodes}) == len(set(nodes))
    # A valid edit in a later copy of a run: the copy is read token by token.
    text = format_term(balanced(10))
    for i in (text.index("x", 100_000), text.rindex("z")):
        edited = text[:i] + "y" + text[i + 1 :]
        assert parse_term(edited) == reference_parse(edited) != balanced(10)
