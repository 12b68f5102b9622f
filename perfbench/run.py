"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The benchmark sets up
(import, input generation, algebra documents, warm-up), then drives maltsev
in a closed loop, checking every answer.  Requests come in rounds, each the
workload's whole mix; the loop starts rounds for S seconds and finishes the
one under way.  Rounds are made from the seed as the loop asks for them, so
a faster program gets further into the same sequence instead of starting it
again.  Afterwards it starts five fresh processes, one after another, that
each set up and stop when ready for their first request; the median of their
times from spawn to ready is ``setup_s``.  Every end-to-end time is scaled to
a reference speed of the machine, measured by a probe between requests and
around each set-up process (see ``pace.py``); the wall times are printed
beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead sends
every request twice in a row, once untraced and once with a span around
every call into a layer, and prints the per-layer metrics plus the tracing
overhead (traced minus untraced, on the same requests).  The spans are written to
``perfbench/out/<workload>-s<seed>/trace.jsonl``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import (  # noqa: E402
    cli_requests,
    congruence_lattice,
    harness,
    term_search,
    word_problem,
)
from perfbench.pace import REFERENCE_S, Pace  # noqa: E402
from perfbench.spans import LayerStats, Tracer  # noqa: E402

WORKLOADS = {
    "word_problem": word_problem,
    "term_search": term_search,
    "congruence_lattice": congruence_lattice,
    "cli_requests": cli_requests,
}
SETUPS = 5
TIMES = ("throughput_rps", "latency_p50_ms", "latency_p90_ms", "setup_s")


def setup(module, seed: int, tracer: Tracer, out: Path) -> Iterator[list[harness.Request]]:
    api = harness.load_maltsev(ROOT)
    ctx = SimpleNamespace(root=ROOT, out=out, tracer=tracer)
    rounds, warmup = module.build(api, random.Random(seed), ctx)
    for i, request in enumerate(warmup):
        result = harness.execute(request, tracer, f"warmup-{i}")
        if result.outcome != "ok":
            raise harness.SetupError(f"warm-up {request.kind}: {result.outcome} {result.cause}")
    return rounds


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Start SETUPS processes one after another; each sets up and prints
    ``ready``.  A sample runs from the spawn to that line.  Returns the
    samples scaled by the probes run just before and after each process,
    and the wall times."""
    samples, factors = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUPS):
        pace = Pace()
        for _ in range(3):
            pace.probe()
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or ready != "ready\n":
            raise harness.SetupError(f"a set-up process ended with code {child.returncode}")
        for _ in range(3):
            pace.probe()
        factors.append(pace.factor(start, start + samples[-1]))
    return [s * f for s, f in zip(samples, factors)], samples


def peak_rss_mb(module) -> float:
    who = resource.RUSAGE_CHILDREN if getattr(module, "RSS_OF_CHILDREN", False) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def describe(results: list[harness.Result]) -> str:
    causes = Counter(f"{r.outcome}:{r.cause}" for r in results if r.outcome != "ok")
    kinds: dict[str, list[float]] = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(1000.0 * r.seconds)
    failed = sum(causes.values())
    lines = [f"  requests {len(results)}; by kind: count, median ms"] + [
        f"    {kind:24s} {len(ms):6d} {statistics.median(ms):12.3f}"
        for kind, ms in sorted(kinds.items())
    ]
    lines += [
        f"  error_rate {failed / len(results):.6f} share ({failed} of {len(results)})"
        + (f" causes {dict(causes)}" if causes else ""),
    ]
    return "\n".join(lines)


def emit(results, metrics: dict, units: dict[str, str], sample_note: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]:6s} {sample_note.get(name, '')}")
    failed = sum(r.outcome != "ok" for r in results)
    print(
        json.dumps(
            {
                "correct": not any(r.outcome == "wrong" for r in results),
                "attempted": len(results),
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )


def run_untraced(module, args, out: Path, units: dict[str, str]) -> None:
    tracer = Tracer(False)
    pace = Pace()
    results = harness.closed_loop(setup(module, args.seed, tracer, out), args.seconds, tracer, pace)
    factors = [pace.factor(r.start, r.start + r.seconds) for r in results]
    metrics = harness.request_metrics(results, 1000.0 * args.seconds, factors)
    wall = harness.request_metrics(results, 1000.0 * args.seconds)
    metrics["peak_rss_mb"] = peak_rss_mb(module)  # read before the set-up processes start
    setups, setups_wall = setup_seconds(args)
    metrics["setup_s"] = statistics.median(setups)
    wall["setup_s"] = statistics.median(setups_wall)
    n = len(results)
    print(describe(results))
    print(
        f"  pace: {len(pace.took)} probes, median {pace.median_ms():.4f} ms (reference"
        f" {1000.0 * REFERENCE_S:g} ms), request factors {min(factors):.3f} to {max(factors):.3f}"
    )
    print("  wall times: " + " ".join(f"{name} {wall[name]:.6g}" for name in TIMES))
    notes = {
        "throughput_rps": f"({n} requests, closed loop, 1 client)",
        "latency_p50_ms": f"({n} samples, {n - -(-n // 2)} above)",
        "latency_p90_ms": f"({n} samples, {n - -(-9 * n // 10)} above)",
        "success_rate": "(error_rate = 1 - success_rate)",
        "setup_s": f"(median of {len(setups)} processes: " + ", ".join(f"{s:.4f}" for s in setups) + ")",
    }
    emit(results, {name: metrics[name] for name in units}, units, notes)


def run_traced(module, args, out: Path, units: dict[str, str]) -> None:
    tracer = Tracer(True)
    rounds = setup(module, args.seed, tracer, out)
    base, traced, probe_seconds = harness.paired(rounds, args.seconds, tracer)
    tracer.write(out / "trace.jsonl")
    failure_ms = 1000.0 * args.seconds
    before = harness.request_metrics(base, failure_ms)
    after = harness.request_metrics(traced, failure_ms)
    metrics = harness.layer_metrics(LayerStats(tracer.spans))
    for name in ("throughput_rps", "latency_p50_ms", "latency_p90_ms"):
        metrics[f"trace.overhead_{name}"] = after[name] - before[name]
    print(describe(base + traced))
    print(f"  spans {len(tracer.spans)}; probes outside requests {probe_seconds:.3f} s")
    for name in ("throughput_rps", "latency_p50_ms", "latency_p90_ms"):
        print(f"  untraced {name} {before[name]:.6f} traced {after[name]:.6f}")
    emit(base + traced, {name: metrics[name] for name in units}, units, {})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    module = WORKLOADS[args.workload]
    out = ROOT / "perfbench" / "out" / f"{args.workload}-s{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            setup(module, args.seed, Tracer(False), out)
            print("ready", flush=True)
            return 0
        print(
            f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
            f" python {sys.version.split()[0]} cpus {os.cpu_count()}"
        )
        (run_traced if args.trace else run_untraced)(module, args, out, units)
    except (ImportError, harness.SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
