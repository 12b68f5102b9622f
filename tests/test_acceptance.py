"""Acceptance suite: every criterion at its stated scale, one PASS/FAIL
line per criterion (run with -s to watch them stream).

The randomized criteria all use fixed seeds; the whole module is expected
to finish well inside two minutes on ordinary hardware.
"""

import functools
import itertools
import random

from maltsev.algebras import (
    is_maltsev_operation,
    make_algebra,
    maltsev_from_group,
    maltsev_from_left_loop,
    maltsev_from_quasigroup,
    maltsev_from_retraction,
)
from maltsev.cli import run as cli
from maltsev.congruences import (
    Congruence,
    Partition,
    all_congruences,
    first_iso_check,
    format_partition,
    permute,
    principal_congruence,
)
from maltsev.homomorphisms import (
    check_injectivity_on_M1,
    hom_to_group,
)
from maltsev.rewriting import (
    MALTSEV_SYSTEM,
    check_confluence,
    count_M,
    critical_pairs,
    equal_in_free,
    is_normal_form,
    normalize,
    rewrite_once,
    rewrite_once_outermost,
)
from maltsev.sampling import (
    axiom_walk,
    random_heap_word,
    random_letters,
    random_term,
)
from maltsev.terms import Var, count_W, mu
from maltsev.termsearch import find_maltsev_term, permutability_audit, verify_maltsev_term
from maltsev.words import (
    HeapWord,
    heap_group_ops,
    heap_mu,
    is_heap_word,
    reduce,
)

from conftest import (
    apply,
    apply_table,
    bundled_algebras,
    fixpoint,
    heap_words_up_to,
    least_relating,
    naive_congruences,
    para_associative,
    random_order_reduction,
)
from test_homomorphisms import distinguish_in_small_groups, factors_through_normalization

GENS = ("x", "y", "z")


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion-{number:02d}: {description}")
                raise
            print(f"PASS criterion-{number:02d}: {description}")

        return wrapper

    return deco


@criterion(1, "confluence certificate and strategy independence")
def test_criterion_01():
    pairs = critical_pairs(MALTSEV_SYSTEM)
    assert len(pairs) == 1
    (pair,) = pairs
    # peak is mu(v,v,v) for a single variable v
    args = set(pair.peak.args)
    assert pair.peak.symbol == "mu" and len(args) == 1
    assert isinstance(args.pop(), Var)
    report = check_confluence()
    assert report.locally_confluent

    code, out = cli(["confluence-report"])
    assert code == 0
    assert "critical pairs: 1" in out and "locally confluent: true" in out

    rng = random.Random(0)
    for _ in range(10**4):
        t = random_term(rng, GENS, 6)
        assert fixpoint(t, rewrite_once) == fixpoint(t, rewrite_once_outermost)


@criterion(2, "word problem: axiom-walk completeness and separation of distinct forms")
def test_criterion_02():
    rng = random.Random(0)
    for _ in range(10**4):
        t = random_term(rng, GENS, 4)
        s = axiom_walk(rng, t, 8, GENS)
        assert equal_in_free(t, s)

    rng = random.Random(0)
    distinguished = 0
    total = 0
    while total < 10**3:
        t = normalize(random_term(rng, GENS, 6))
        s = normalize(random_term(rng, GENS, 6))
        if t == s:
            continue
        assert is_normal_form(t) and is_normal_form(s)
        assert not equal_in_free(t, s)
        total += 1
        if distinguish_in_small_groups(t, s):
            distinguished += 1
    assert distinguished / total >= 0.95


@criterion(3, "stratification counts of the free algebra")
def test_criterion_03():
    for n in range(4):
        assert count_M(1, n) == 1
    assert count_M(2, 0) == 2
    assert count_M(2, 1) == 4
    for m in (1, 2):
        for n in (0, 1, 2):
            assert count_M(m, n) == count_M(m, n, oracle=True)
    assert count_W(2, 2) == 992


@criterion(4, "free-group reduction: exactness, idempotence, order independence")
def test_criterion_04():
    code, out = cli(["fg", "reduce", "--word", "x y z z^-1 y^-1 x"])
    assert code == 0
    assert out == "x x"

    rng = random.Random(0)
    for _ in range(10**4):
        raw = random_letters(rng, GENS, rng.randrange(13))
        word = reduce(raw)
        assert reduce(word.letters) == word
        assert random_order_reduction(rng, raw) == word


@criterion(5, "heap closure, para-associativity, and derived group laws")
def test_criterion_05():
    short = heap_words_up_to(("a", "b"), 3)
    for a, b, c, d, e in itertools.product(short, repeat=5):
        assert para_associative(a, b, c, d, e)

    rng = random.Random(0)
    for _ in range(10**4):
        a, b, c, d, e = (random_heap_word(rng, GENS, 4) for _ in range(5))
        result = heap_mu(a, b, c)
        assert is_heap_word(result.word)
        assert para_associative(a, b, c, d, e)

    for base in short:
        group = heap_group_ops(base)
        for u in short:
            assert group.mul(group.identity, u) == u
            assert group.mul(u, group.identity) == u
            assert group.mul(u, group.inv(u)) == group.identity
            assert group.mul(group.inv(u), u) == group.identity
        for u, v, w in itertools.product(short, repeat=3):
            assert group.mul(group.mul(u, v), w) == group.mul(u, group.mul(v, w))


@criterion(6, "canonical homomorphism into the free group")
def test_criterion_06():
    rng = random.Random(0)
    for _ in range(10**4):
        t, s, u = (random_term(rng, GENS, 4) for _ in range(3))
        image = hom_to_group(mu(t, s, u))
        expected = heap_mu(
            HeapWord(hom_to_group(t)),
            HeapWord(hom_to_group(s)),
            HeapWord(hom_to_group(u)),
        )
        assert image == expected.word
        assert hom_to_group(t) == hom_to_group(normalize(t))

    for m in (1, 2, 3):
        assert check_injectivity_on_M1(m)


@criterion(7, "derived ternary operations from groups, a left loop, a quasigroup")
def test_criterion_07():
    algs = bundled_algebras()
    derivations = [
        ("z2", maltsev_from_group, 2),
        ("z3", maltsev_from_group, 3),
        ("z4", maltsev_from_group, 4),
        ("z5", maltsev_from_group, 5),
        ("loop5", maltsev_from_left_loop, 5),
        ("qg3", maltsev_from_quasigroup, 3),
    ]
    for name, derive, size in derivations:
        table = derive(algs[name])
        probe = make_algebra("probe", size, {"m": table})
        assert is_maltsev_operation(probe, "m"), name
    # the order-5 loop really is non-associative
    loop = algs["loop5"]
    star = functools.partial(apply, loop, "star")
    assert star(star(1, 1), 2) != star(1, star(1, 2))


@criterion(8, "congruence suite: lattices, permutability, principal oracle, first iso")
def test_criterion_08():
    algs = bundled_algebras()
    z4 = algs["z4"]
    lattice = all_congruences(z4)
    assert [format_partition(c.partition) for c in lattice] == [
        "0|1|2|3",
        "0,2|1,3",
        "0,1,2,3",
    ]
    for a, b in itertools.combinations(lattice, 2):
        assert permute(z4, a, b)

    chain = algs["chain3"]
    theta1 = Congruence(chain, Partition.from_blocks(3, [[0, 1], [2]]))
    theta2 = Congruence(chain, Partition.from_blocks(3, [[0], [1, 2]]))
    assert not permute(chain, theta1, theta2)

    for name, alg in algs.items():
        if alg.size > 4:
            continue
        candidates = naive_congruences(alg)
        for a, b in itertools.product(range(alg.size), repeat=2):
            expected = least_relating(candidates, a, b)
            assert principal_congruence(alg, a, b).partition == expected, name

    assert first_iso_check(algs["z4"], algs["z2"], [0, 1, 0, 1])
    assert first_iso_check(algs["z6"], algs["z3"], [0, 1, 2, 0, 1, 2])


@criterion(9, "ternary-term search with theorem-level permutability audit")
def test_criterion_09(algebras, algebra_file):
    for name in ("z2", "z3"):
        outcome = find_maltsev_term(algebras[name])
        assert outcome.status == "found"
        assert verify_maltsev_term(algebras[name], outcome.term)
        assert permutability_audit(algebras[name]) == []

    outcome = find_maltsev_term(algebras["chain3"])
    assert outcome.status == "none"
    code, out = cli(["algebra", "maltsev-term", "--file", algebra_file("chain3")])
    assert (code, out) == (1, "none")


@criterion(10, "universal property: evaluation factors through normalization")
def test_criterion_10():
    algs = bundled_algebras()
    x_var, y_var = Var("x"), Var("y")
    retraction_table = maltsev_from_retraction(
        ("x", "y"),
        {
            x_var: "x",
            y_var: "y",
            mu(x_var, y_var, x_var): "x",
            mu(y_var, x_var, y_var): "y",
        },
    )
    carriers = [
        (2, maltsev_from_group(algs["z2"])),
        (3, maltsev_from_group(algs["z3"])),
        (4, maltsev_from_group(algs["z4"])),
        (5, maltsev_from_group(algs["z5"])),
        (3, maltsev_from_quasigroup(algs["qg3"])),
        (2, retraction_table),
    ]
    rng = random.Random(0)
    for size, table in carriers:
        mu_impl = functools.partial(apply_table, table, size)
        for _ in range(10**4):
            t = random_term(rng, GENS, 5)
            assignment = {g: rng.randrange(size) for g in GENS}
            assert factors_through_normalization(t, assignment, mu_impl)
