"""Workload ``cli_requests``: one fresh ``python -m maltsev.cli --format json``
process per request.

A round runs the README's examples once each, with seeded arguments and
over algebra documents the benchmark writes: normalize, equal, count-m (fast
and oracle), confluence-report, fg reduce/mul/inv, heap mu/member/group-ops,
hom group/separate, algebra check-identity/maltsev-check/derive-maltsev/
congruences/principal/quotient/maltsev-term, and a short selftest.
Multi-second searches are left to ``term_search``.  Interpreter start,
import, argument parsing, dispatch and JSON rendering dominate here.

The traced run adds probes after each request, outside its span: the same
argv through ``maltsev.cli.main`` in-process, loading (and deriving from)
its document in-process, and, every fourth request, a bare interpreter
spawn and an import-only spawn.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

from . import inputs, known
from .harness import Request

RSS_OF_CHILDREN = True
TIMEOUT_S = 60


def partition_labels(text: str, n: int) -> tuple:
    labels = [0] * n
    for block, chunk in enumerate(text.split("|")):
        for x in chunk.split(","):
            labels[int(x)] = block
    return known.canonical(labels)


def partition_text(labels: tuple) -> str:
    blocks: dict[int, list[int]] = {}
    for x, b in enumerate(labels):
        blocks.setdefault(b, []).append(x)
    return "|".join(",".join(map(str, blocks[b])) for b in sorted(blocks))


class Cli:
    """Spawns the command line tool from the checkout's sources."""

    def __init__(self, root):
        self.root = root
        self.env = {k: v for k, v in os.environ.items() if k not in ("MW_BUDGET", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.probes = 0

    def spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )


def cli_request(
    api, cli: Cli, kind: str, argv: list[str], expect_code: int, check_record, doc_path=None, derive=None
) -> Request:
    """One spawned request; ``doc_path`` and ``derive`` name what the traced
    probe loads and derives in-process."""
    full = ["--format", "json", *argv]

    def run(tr):
        with tr.span("cli.request"):
            done = cli.spawn(["-m", "maltsev.cli", *full])
        return done

    def check(done):
        if done.returncode != expect_code:
            return f"{kind}: exit {done.returncode}, expected {expect_code}: {done.stderr[-200:]}"
        try:
            record = json.loads(done.stdout)
        except json.JSONDecodeError:
            return f"{kind}: output is not one JSON record"
        return check_record(record)

    def probe(tr):
        with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
            api.cli.main(list(full))
        if doc_path is not None:
            with tr.span("algebras.load_algebra"):
                with open(doc_path, encoding="utf-8") as fh:
                    alg = api.algebras.load_algebra(json.load(fh))
            if derive is not None:
                with tr.span("algebras.derive"):
                    getattr(api.algebras, derive)(alg)
        cli.probes += 1
        if cli.probes % 4 == 1:
            with tr.span("cli.spawn_bare"):
                cli.spawn(["-c", "pass"])
            with tr.span("cli.spawn_import"):
                cli.spawn(["-c", "import maltsev.cli"])

    return Request(kind, run, check, probe)


def expect(**fields):
    def check(record):
        for key, value in fields.items():
            if record.get(key) != value:
                return f"{record.get('command')}: {key} = {record.get(key)!r}, expected {value!r}"
        return None

    return check


def write(ctx, d: dict, tag: str) -> str:
    path = ctx.out / f"cli-{tag}.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    return str(path)


def build(api, rng: random.Random, ctx):
    """Rounds are made, and their documents written, between requests."""
    cli = Cli(ctx.root)
    warmup = [cli_request(api, cli, *one_round(rng, ctx, "warmup")[0])]
    rounds = (
        [cli_request(api, cli, *spec) for spec in one_round(rng, ctx, r)] for r in itertools.count()
    )
    return rounds, warmup


def one_round(rng: random.Random, ctx, r) -> list[tuple]:
    """(kind, argv, exit code, record check, document, derivation) per request."""
    out = []

    def add(kind, argv, code, check, doc_path=None, derive=None):
        out.append((kind, argv, code, check, doc_path, derive))

    # Free algebra.
    pair = inputs.small_pair(rng, equal=True)
    add("normalize", ["normalize", "--term", pair["lhs"]], 0, expect(normal_form=pair["normal_form"]))
    equal = rng.random() < 0.5
    pair = inputs.small_pair(rng, equal=equal)
    add("equal", ["equal", "--lhs", pair["lhs"], "--rhs", pair["rhs"]], 0 if equal else 1, expect(equal=equal))
    m, n = rng.randint(1, 4), rng.randint(0, 3)
    add(
        "count-m",
        ["count-m", "--generators", str(m), "--level", str(n)],
        0,
        expect(count=str(known.count_normal_forms(m, n))),
    )
    m, n = rng.choice(((2, 2), (1, 3), (4, 1)))
    add(
        "count-m-oracle",
        ["count-m", "--generators", str(m), "--level", str(n), "--oracle"],
        0,
        expect(count=str(known.count_normal_forms(m, n))),
    )
    add("confluence-report", ["confluence-report"], 0, check_confluence)

    # Free groups and heaps.
    raw = inputs.random_letters(rng, 14)
    reduced = known.reduce_word(raw)
    add("fg-reduce", ["fg", "reduce", "--word", known.word_text(raw)], 0, expect(word=known.word_text(reduced)))
    a = known.reduce_word(inputs.random_letters(rng, 8))
    b = known.reduce_word(inputs.random_letters(rng, 8))
    add(
        "fg-mul",
        ["fg", "mul", "--a", known.word_text(a), "--b", known.word_text(b)],
        0,
        expect(word=known.word_text(known.reduce_word(a + b))),
    )
    add("fg-inv", ["fg", "inv", "--a", known.word_text(a)], 0, expect(word=known.word_text(known.invert_word(a))))
    h = [inputs.random_heap_word(rng, rng.randint(0, 3)) for _ in range(3)]
    add(
        "heap-mu",
        ["heap", "mu", "--a", known.word_text(h[0]), "--b", known.word_text(h[1]), "--c", known.word_text(h[2])],
        0,
        expect(word=known.word_text(known.heap_op(*h))),
    )
    w = known.reduce_word(inputs.random_letters(rng, 5)) if rng.random() < 0.5 else h[0]
    member = known.is_heap_word(w)
    add("heap-member", ["heap", "member", "--word", known.word_text(w)], 0 if member else 1, expect(member=member))
    base, u, v = h
    add(
        "heap-group-ops",
        ["heap", "group-ops", "--base", known.word_text(base), "--u", known.word_text(u), "--v", known.word_text(v)],
        0,
        expect(
            identity=known.word_text(base),
            inverse_u=known.word_text(known.heap_op(base, u, base)),
            product_uv=known.word_text(known.heap_op(u, base, v)),
        ),
    )

    # Homomorphisms out of the free algebra.
    t = inputs.axiom_walk(rng, inputs.sized_normal_form(rng, 13), 3)
    add("hom-group", ["hom", "group", "--term", known.term_text(t)], 0, expect(word=known.word_text(known.hom_word(t))))
    witness = rng.choice(inputs.VARS[:3])
    add(
        "hom-separate",
        ["hom", "separate", "--term", known.term_text(t), "--witness", witness],
        0,
        expect(value=known.leaf_parity(t, witness)),
    )

    # Finite algebras, from documents written here.
    zn, _ = inputs.random_relabel(rng, inputs.cyclic_group(rng.choice((4, 6, 8))))
    zn_path = write(ctx, zn, f"{r}-zn")
    add(
        "check-identity",
        ["algebra", "check-identity", "--file", zn_path, "--identity", "mul(x,y)=mul(y,x)"],
        0,
        expect(holds=True),
        zn_path,
    )
    s3, _ = inputs.random_relabel(rng, inputs.symmetric_group_3())
    s3_path = write(ctx, s3, f"{r}-s3")
    add(
        "check-identity-fails",
        ["algebra", "check-identity", "--file", s3_path, "--identity", "mul(x,y)=mul(y,x)"],
        1,
        check_counterexample(s3),
        s3_path,
    )
    mu2, _ = inputs.random_relabel(rng, inputs.xor_mu())
    mu2_path = write(ctx, mu2, f"{r}-mu2")
    add(
        "maltsev-check",
        ["algebra", "maltsev-check", "--file", mu2_path, "--symbol", "mu"],
        0,
        expect(maltsev=True),
        mu2_path,
    )
    source, base_doc, derive = rng.choice(
        (
            ("left-loop", inputs.loop5(), "maltsev_from_left_loop"),
            ("group", inputs.cyclic_group(5), "maltsev_from_group"),
            ("quasigroup", inputs.subtraction_quasigroup(3), "maltsev_from_quasigroup"),
        )
    )
    d, _ = inputs.random_relabel(rng, base_doc)
    d_path = write(ctx, d, f"{r}-derive")
    add(
        "derive-maltsev",
        ["algebra", "derive-maltsev", "--file", d_path, "--from", source],
        0,
        check_derived(d),
        d_path,
        derive,
    )
    expected = known.group_congruences(zn)
    add(
        "congruences",
        ["algebra", "congruences", "--file", zn_path, "--check-permutability"],
        0,
        check_congruences(zn["size"], expected),
        zn_path,
    )
    a, b = rng.sample(range(zn["size"]), 2)
    add(
        "principal",
        ["algebra", "principal", "--file", zn_path, "--pair", f"{a},{b}"],
        0,
        expect(congruence=partition_text(known.group_principal(zn, a, b))),
        zn_path,
    )
    labels = rng.choice(sorted(expected))
    add(
        "quotient",
        ["algebra", "quotient", "--file", zn_path, "--partition", partition_text(labels)],
        0,
        check_quotient(zn, labels),
        zn_path,
    )
    none_doc, _ = inputs.random_relabel(rng, rng.choice([inputs.chain(n) for n in (3, 4, 5, 6)]))
    none_path = write(ctx, none_doc, f"{r}-none")
    add("maltsev-term-none", ["algebra", "maltsev-term", "--file", none_path], 1, expect(status="none"), none_path)
    small, _ = inputs.random_relabel(rng, inputs.cyclic_group(rng.choice((2, 3, 4))))
    small_path = write(ctx, small, f"{r}-found")
    add("maltsev-term", ["algebra", "maltsev-term", "--file", small_path], 0, check_witness(small), small_path)

    add(
        "selftest",
        ["--seed", str(rng.randrange(10**6)), "selftest", "--iterations", "20"],
        0,
        expect(passed=True),
    )
    return out


def check_confluence(record):
    pairs = record.get("pairs", [])
    if record.get("locally_confluent") is not True or not pairs or not all(p["joinable"] for p in pairs):
        return "confluence-report: the Mal'tsev system is locally confluent"
    return None


def check_counterexample(d: dict):
    def check(record):
        env = record.get("counterexample") or {}
        lhs = known.evaluate(d, known.parse_general("mul(x,y)"), env)
        rhs = known.evaluate(d, known.parse_general("mul(y,x)"), env)
        if record.get("holds") is not False or lhs == rhs:
            return "check-identity: S3 is not commutative; counterexample must fail"
        return None

    return check


def check_derived(d: dict):
    def check(record):
        alg = record.get("algebra") or {}
        mu = next((o for o in alg.get("operations", []) if o["symbol"] == "mu"), None)
        if record.get("verified") is not True or mu is None or not known.is_maltsev_table(d["size"], mu["table"]):
            return "derive-maltsev: derived mu is not a Maltsev operation"
        return None

    return check


def check_congruences(n: int, expected: set):
    def check(record):
        got = [partition_labels(p, n) for p in record.get("congruences", [])]
        if len(got) != len(expected) or set(got) != expected or record.get("permutable") is not True:
            return f"congruences: {len(got)} listed, theory gives {len(expected)} permuting"
        return None

    return check


def check_quotient(d: dict, labels: tuple):
    def check(record):
        if not known.is_homomorphic_image(d, labels, record["algebra"]):
            return "quotient: not the image of the natural map"
        return None

    return check


def check_witness(d: dict):
    def check(record):
        if record.get("status") != "found" or not known.is_maltsev_witness(d, known.parse_general(record["term"])):
            return "maltsev-term: witness fails t(x,y,y)=x=t(y,y,x)"
        return None

    return check
