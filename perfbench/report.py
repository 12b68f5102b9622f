"""Run every workload and print all end-to-end metrics by name and unit, the
error rate with its causes, the run-to-run spread, and (with ``--traced``)
the per-layer metrics and tracing overhead of one traced run per workload.
Exits with code 1 if any answer was wrong, any request failed for a cause
other than the known one, or any spread exceeds its metric's bound.

    python3 perfbench/report.py --seeds 1,2,3,4,5 --seconds 20 [--traced]
        [--workloads word_problem,term_search]

The spread of a metric is the distance between the first and third
quartiles of its values over the seeds, as a share of their median.  Each
run is a separate ``perfbench/run.py`` process, one after another.
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Deep chains raise RecursionError at the commit the benchmark was written
# for, and stay in so that the defect shows.  Any other cause of failure, or
# any wrong answer, fails the report.
EXPECTED_CAUSES = {"word_problem": {"error:RecursionError"}}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        results = [result for result, _ in runs]
        causes = sorted(
            {
                cause
                for _, lines in runs
                for line in lines
                if " causes " in line
                for cause in ast.literal_eval(line.split(" causes ", 1)[1])
            }
        )
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        unexpected = sorted(set(causes) - EXPECTED_CAUSES.get(workload, set()))
        correct = all(r["correct"] for r in results)
        ok &= correct and not unexpected
        print(f"== {workload}: seeds {seeds}, {args.seconds:g} s each")
        print(
            f"  error_rate       {failed / attempted:.6f} share ({failed} of {attempted} requests;"
            f" causes {', '.join(causes) or 'none'}); correct {correct}"
            + (f"  UNEXPECTED CAUSES {', '.join(unexpected)}" if unexpected else "")
        )
        for seed, r in zip(seeds, results):
            print(f"  seed {seed}: " + " ".join(f"{n} {m['value']:.4g}" for n, m in r["metrics"].items()))
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            s = spread(values)
            flag = "" if s <= bounds[name] else "  SPREAD ABOVE BOUND"
            ok &= not flag
            print(
                f"  {name:16s} median {statistics.median(values):12.4f} {unit:6s}"
                f" min {min(values):12.4f} max {max(values):12.4f}"
                f" spread {s:7.4f} (bound {bounds[name]}){flag}"
            )
        if args.traced:
            result, lines = run(workload, seeds[0], args.seconds, 1)
            ok &= result["correct"]
            print("\n".join(line for line in lines if line.startswith("  untraced")))
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
