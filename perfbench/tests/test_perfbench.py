"""Tests of the benchmark's own code: seeded inputs, the known-answer checks
and the span arithmetic.

    python3 -m unittest discover -s perfbench/tests -t .
"""

from __future__ import annotations

import json
import random
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

from perfbench import cli_requests, congruence_lattice, harness, inputs, known, pace, term_search, word_problem
from perfbench.spans import LayerStats, Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent.parent
NO_API = SimpleNamespace(terms=None, rewriting=None, homomorphisms=None, words=None)


def draw(seed: int) -> list:
    """One of every kind of input, in a fixed order of draws."""
    rng = random.Random(seed)
    return [
        inputs.small_pair(rng, equal=True),
        inputs.small_pair(rng, equal=False),
        inputs.large_pair(rng, levels=5),
        inputs.deep_pair(rng, 600),
        inputs.random_binary_3(rng, "a"),
        inputs.random_relabel(rng, inputs.symmetric_group_3()),
        inputs.random_letters(rng, 12),
        inputs.random_heap_word(rng, 3),
    ]


def fake_word(word) -> SimpleNamespace:
    return SimpleNamespace(letters=[SimpleNamespace(gen=g, sign=s) for g, s in word])


def fake_term(general):
    name, args = general
    if args:
        return SimpleNamespace(symbol=name, args=tuple(fake_term(a) for a in args))
    return SimpleNamespace(name=name)


def fake_congruence(labels) -> SimpleNamespace:
    return SimpleNamespace(partition=SimpleNamespace(block_of=tuple(labels)))


def fake_algebra(d: dict) -> SimpleNamespace:
    return SimpleNamespace(
        name=d["name"],
        size=d["size"],
        tables=[(o["symbol"], SimpleNamespace(arity=o["arity"], entries=o["table"])) for o in d["operations"]],
    )


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(draw(7), draw(7))

    def test_other_seed_other_inputs(self):
        a, b = draw(7), draw(8)
        for x, y in zip(a, b):
            self.assertNotEqual(x, y)

    def test_whole_cli_round_is_seeded(self):
        def argvs(seed):
            with tempfile.TemporaryDirectory() as tmp:
                ctx = SimpleNamespace(out=Path(tmp))
                specs = cli_requests.one_round(random.Random(seed), ctx, 0)
                return [
                    (kind, [a.replace(tmp, "") for a in argv])
                    for kind, argv, *_ in specs
                ]

        self.assertEqual(argvs(3), argvs(3))
        self.assertNotEqual(argvs(3), argvs(4))

    def test_inputs_are_what_they_claim(self):
        rng = random.Random(1)
        large = inputs.large_pair(rng)
        self.assertTrue(10**4 <= large["lhs_nodes"] <= 10**5)
        self.assertEqual(large["lhs"].count("mu(") * 3 + 1, large["lhs_nodes"])
        deep = inputs.deep_pair(rng, 700)
        self.assertEqual(deep["normal_form"].count("mu("), 700)
        for _ in range(50):
            self.assertTrue(known.is_normal_form(inputs.sized_normal_form(rng, 40)))


class TheoryAnswers(unittest.TestCase):
    def test_congruence_counts(self):
        z2 = inputs.cyclic_group(2)
        z2_3 = inputs.product(inputs.product(z2, z2), z2)
        self.assertEqual(len(known.group_congruences(z2_3)), 16)
        self.assertEqual(len(known.group_congruences(inputs.product(z2_3, z2))), 67)
        for n, divisors in ((6, 4), (8, 4), (12, 6), (9, 3)):
            self.assertEqual(len(known.group_congruences(inputs.cyclic_group(n))), divisors)
        self.assertEqual(len(known.group_congruences(inputs.symmetric_group_3())), 3)
        self.assertEqual(len(known.group_congruences(inputs.product(inputs.symmetric_group_3(), z2))), 7)
        for n in (3, 6, 9):
            d, perm = inputs.random_relabel(random.Random(n), inputs.chain(n))
            self.assertEqual(len(known.chain_congruences(perm)), 2 ** (n - 1))

    def test_normal_form_counts(self):
        self.assertEqual(known.count_normal_forms(2, 1), 4)
        self.assertEqual(known.count_normal_forms(2, 2), 38)
        self.assertEqual(known.count_normal_forms(3, 2), 2943)

    def test_word_reducer(self):
        w = (("x", 1), ("y", 1), ("z", 1), ("z", -1), ("y", -1), ("x", 1))
        self.assertEqual(known.word_text(known.reduce_word(w)), "x x")
        self.assertEqual(known.heap_op((("x", 1),), (("y", 1),), (("z", 1),)), (("x", 1), ("y", -1), ("z", 1)))

    def test_two_element_clone(self):
        xor = [a ^ b ^ c for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        majority = [int(a + b + c >= 2) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        self.assertTrue(known.two_element_has_maltsev(xor))
        self.assertFalse(known.two_element_has_maltsev(majority))


class SeedDrawsRelabelingsOnly(unittest.TestCase):
    """Where a workload's cost would depend on what the seed drew, the seed
    only picks among inputs that cost the same."""

    def test_two_element_classes_partition_the_tables(self):
        codes = [c for c in range(256) if not term_search.negated_diagonal(c)]
        classes = {tuple(term_search.same_search(c)) for c in codes}
        self.assertEqual(len(classes), 33)
        self.assertEqual(sorted(c for cls in classes for c in cls), codes)
        for cls in classes:
            for code in cls:
                self.assertEqual(tuple(term_search.same_search(code)), cls)

    def test_kept_congruences_are_the_same_up_to_relabeling(self):
        def kept(seed):
            d, perm = inputs.random_relabel(random.Random(seed), inputs.cyclic_group(12))
            s = congruence_lattice.Group(None, None, d, perm, alg="not called")
            chosen = congruence_lattice.spread_out(sorted(s.congruences(), key=s.unrelabeled), 4)
            self.assertTrue(set(chosen) <= s.congruences())
            return [s.unrelabeled(labels) for labels in chosen]

        self.assertEqual(kept(1), kept(2))
        self.assertEqual(len(kept(1)), 4)


class CheckerRejects(unittest.TestCase):
    """Every check rejects a corrupted answer of its kind."""

    def test_word_problem(self):
        spec = inputs.small_pair(random.Random(2), equal=True)
        check = word_problem.pair_request(NO_API, "small", spec).check
        right = (
            True,
            spec["normal_form"],
            fake_word(spec["lhs_word"]),
            fake_word(spec["rhs_word"]),
            fake_word(spec["quotient_word"]),
            SimpleNamespace(word=fake_word(spec["heap_word"])),
        )
        self.assertIsNone(check(right))
        extra = (("q", 1),)
        for i, bad in (
            (0, False),
            (1, spec["normal_form"] + "x"),
            (2, fake_word(spec["lhs_word"] + extra)),
            (3, fake_word(extra)),
            (4, fake_word(extra)),
            (5, SimpleNamespace(word=fake_word(extra))),
        ):
            corrupt = list(right)
            corrupt[i] = bad
            self.assertIsNotNone(check(tuple(corrupt)), i)
        swap = {"x": "y", "y": "x", "z": "w", "w": "z"}
        renamed = word_problem.pair_request(NO_API, "small", spec, swap).check
        moved = [fake_word(tuple((swap[g], s) for g, s in spec[key]))
                 for key in ("lhs_word", "rhs_word", "quotient_word", "heap_word")]
        self.assertIsNone(renamed((True, spec["normal_form"].translate(str.maketrans(swap)),
                                   moved[0], moved[1], moved[2], SimpleNamespace(word=moved[3]))))
        self.assertIsNotNone(renamed(right))
        count = word_problem.count_request(SimpleNamespace(rewriting=None), 2, 2).check
        self.assertIsNone(count(38))
        self.assertIsNotNone(count(39))

    def test_term_search(self):
        z3 = inputs.cyclic_group(3)
        witness = ("mul", (("mul", (("x", ()), ("inv", (("y", ()),)))), ("z", ())))
        found = SimpleNamespace(status="found", term=fake_term(witness), visited=9)
        wrong = SimpleNamespace(status="found", term=fake_term(("mul", (("x", ()), ("y", ())))), visited=9)
        none = SimpleNamespace(status="none", term=None, visited=9)
        check = term_search.search_request(NO_API, None, z3, "found").check
        self.assertIsNone(check(found))
        self.assertIsNotNone(check(wrong))
        self.assertIsNotNone(check(none))
        chain = inputs.chain(3)
        self.assertIsNone(term_search.search_request(NO_API, None, chain, "none").check(none))
        self.assertIsNotNone(term_search.search_request(NO_API, None, chain, "none").check(found))
        xor = {"name": "t2", "size": 2, "operations": [{"symbol": "f", "arity": 3, "table": [0, 1, 1, 0, 1, 0, 0, 1]}]}
        self.assertIsNotNone(term_search.search_request(NO_API, None, xor, "decide").check(none))
        semilattice = {"name": "s", "size": 2, "operations": [{"symbol": "f", "arity": 2, "table": [0, 0, 0, 1]}]}
        capped = term_search.search_request(NO_API, None, semilattice, "capped", 300).check
        self.assertIsNone(capped(none))
        self.assertIsNotNone(capped(SimpleNamespace(status="budget-exhausted", term=None, visited=301)))

    def test_congruence_lattice(self):
        d = inputs.cyclic_group(4)
        s = congruence_lattice.Group(None, None, d, list(range(4)), alg="not called")
        api = SimpleNamespace(congruences=None, termsearch=None)
        principal = congruence_lattice.principal_request(api, s, 0, 2).check
        self.assertIsNone(principal(fake_congruence((0, 1, 0, 1))))
        self.assertIsNotNone(principal(fake_congruence((0, 0, 0, 0))))
        expected = s.congruences()
        lattice = congruence_lattice.lattice_request(api, s, expected).check
        everything = [fake_congruence(p) for p in sorted(expected)]
        self.assertIsNone(lattice(everything))
        self.assertIsNotNone(lattice(everything[1:]))
        self.assertIsNotNone(lattice(everything + everything[:1]))
        permute = congruence_lattice.permute_request(api, s, [None], [True]).check
        self.assertIsNone(permute([True]))
        self.assertIsNotNone(permute([False]))
        labels = (0, 1, 0, 1)
        image = {"name": "q", "size": 2, "operations": [
            {"symbol": "mul", "arity": 2, "table": [0, 1, 1, 0]},
            {"symbol": "inv", "arity": 1, "table": [0, 1]},
            {"symbol": "e", "arity": 0, "table": [0]},
        ]}
        quotient = congruence_lattice.quotient_request(api, s, None, labels).check
        self.assertIsNone(quotient(fake_algebra(image)))
        image["operations"][0]["table"] = [0, 1, 0, 0]
        self.assertIsNotNone(quotient(fake_algebra(image)))
        audit = congruence_lattice.audit_request(api, "chain3", None, False).check
        self.assertIsNone(audit(["chain3: congruences do not permute"]))
        self.assertIsNotNone(audit([]))

    def test_cli_records(self):
        check = cli_requests.cli_request(None, None, "fg-reduce", [], 0, cli_requests.expect(word="x x")).check
        ok = SimpleNamespace(returncode=0, stdout=json.dumps({"word": "x x"}), stderr="")
        self.assertIsNone(check(ok))
        self.assertIsNotNone(check(SimpleNamespace(returncode=0, stdout=json.dumps({"word": "x"}), stderr="")))
        self.assertIsNotNone(check(SimpleNamespace(returncode=1, stdout=ok.stdout, stderr="")))
        self.assertIsNotNone(check(SimpleNamespace(returncode=0, stdout="Traceback", stderr="")))
        z4 = inputs.cyclic_group(4)
        congruences = cli_requests.check_congruences(4, known.group_congruences(z4))
        good = {"congruences": ["0|1|2|3", "0,2|1,3", "0,1,2,3"], "permutable": True}
        self.assertIsNone(congruences(good))
        self.assertIsNotNone(congruences(dict(good, permutable=False)))
        self.assertIsNotNone(congruences(dict(good, congruences=good["congruences"][:2])))
        witness = cli_requests.check_witness(z4)
        self.assertIsNone(witness({"status": "found", "term": "mul(mul(x,inv(y)),z)"}))
        self.assertIsNotNone(witness({"status": "found", "term": "mul(x,z)"}))

    def test_execute_counts_wrong_and_raising_requests(self):
        tracer = Tracer(False)
        boom = harness.Request("deep", lambda tr: [][0], lambda out: None)
        self.assertEqual(harness.execute(boom, tracer, 0).outcome, "error")
        wrong = harness.Request("small", lambda tr: 1, lambda out: "wrong answer")
        self.assertEqual(harness.execute(wrong, tracer, 1).outcome, "wrong")
        unreadable = harness.Request("small", lambda tr: None, lambda out: out["key"])
        self.assertEqual(harness.execute(unreadable, tracer, 2).outcome, "wrong")


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_a_hand_built_tree(self):
        spans = [
            Span("request", 0.0, 10.0, None, 0),  # children cover 1-4 and 3-6: 5 s
            Span("terms.parse_term", 1.0, 4.0, 0, 0),  # child covers 2-3: 1 s
            Span("rewriting.normalize", 3.0, 6.0, 0, 0),  # overlaps its sibling
            Span("inner", 2.0, 3.0, 1, 0),
            Span("words.fg_mul", 8.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
        ]
        self.assertEqual(self_times(spans), [10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0, 4.0])
        stats = LayerStats(spans)
        self.assertEqual(stats.mean_ms("terms.parse_term"), 2000.0)
        self.assertEqual(stats.total_calls("request", "inner"), 2)

    def test_tracer_nests_and_writes(self):
        tracer = Tracer(True)
        tracer.request = 5
        with tracer.span("request.small"):
            with tracer.span("terms.parse_term", nodes=3) as span:
                pass
            span.set(extra=1)
        parent, child = tracer.spans
        self.assertEqual(child.parent, 0)
        self.assertIsNone(parent.parent)
        self.assertEqual(child.request, 5)
        self.assertEqual(child.attrs, {"nodes": 3, "extra": 1})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            tracer.write(path)
            rows = [json.loads(line) for line in path.read_text().splitlines()]
        self.assertEqual([r["name"] for r in rows], ["request.small", "terms.parse_term"])
        off = Tracer(False)
        with off.span("terms.parse_term") as span:
            span.set(nodes=1)
        self.assertEqual(off.spans, [])

    def test_percentiles_count_failures_as_misses(self):
        results = [harness.Result("small", 0.001 * i, "ok") for i in range(1, 10)]
        results.append(harness.Result("deep", 0.001, "error", "RecursionError"))
        metrics = harness.request_metrics(results, failure_ms=20000.0)
        self.assertAlmostEqual(metrics["latency_p50_ms"], 5.0)
        self.assertAlmostEqual(metrics["latency_p90_ms"], 9.0)
        self.assertEqual(metrics["success_rate"], 0.9)

    def test_factors_scale_request_times(self):
        results = [harness.Result("small", 0.002, "ok"), harness.Result("small", 0.004, "ok")]
        metrics = harness.request_metrics(results, 20000.0, [2.0, 0.5])
        self.assertAlmostEqual(metrics["throughput_rps"], 2 / 0.006)
        self.assertAlmostEqual(metrics["latency_p50_ms"], 2.0)
        self.assertAlmostEqual(metrics["latency_p90_ms"], 4.0)

    def test_pace_uses_the_probes_near_a_request(self):
        p = pace.Pace()
        p.at = [0.1 * i for i in range(100)]
        p.took = [pace.REFERENCE_S] * 50 + [2 * pace.REFERENCE_S] * 50
        self.assertAlmostEqual(p.factor(1.0, 1.001), 1.0)
        self.assertAlmostEqual(p.factor(8.0, 8.001), 0.5)
        self.assertAlmostEqual(p.factor(20.0, 20.001), 0.5)  # past the end: the last probes


class SpecMatchesCode(unittest.TestCase):
    def test_every_metric_is_produced(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layer = set(harness.layer_metrics(LayerStats([])))
        names = {m["name"] for m in spec["per_layer"]}
        self.assertEqual(names - layer, {n for n in names if n.startswith("trace.")})
        layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
        self.assertEqual(set(layer_map), layer)


if __name__ == "__main__":
    unittest.main()
