"""The closed loop, its results and the metrics computed from them.

One client in one process sends the next request only after the previous one
has finished and been checked.  A request's latency covers its calls into
maltsev, not the check that follows.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

from .pace import AT_LEAST, Pace
from .spans import LayerStats, Tracer

MODULES = (
    "terms",
    "rewriting",
    "words",
    "homomorphisms",
    "algebras",
    "congruences",
    "termsearch",
    "cli",
)


class SetupError(Exception):
    """The program gave a wrong answer while the benchmark was being set up."""


@dataclass
class Request:
    kind: str
    run: Callable[[Tracer], object]
    check: Callable[[object], str | None]
    probe: Callable[[Tracer], None] | None = None


@dataclass
class Result:
    kind: str
    seconds: float
    outcome: str  # "ok", "error" (raised) or "wrong" (checked and rejected)
    cause: str = ""
    start: float = 0.0  # time.perf_counter() when the request was sent


def load_maltsev(root: Path) -> SimpleNamespace:
    """Import maltsev from ``root/src`` and refuse any other copy."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    api = SimpleNamespace(
        **{name: importlib.import_module(f"maltsev.{name}") for name in MODULES}
    )
    origin = Path(api.terms.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise ImportError(f"maltsev imported from {origin}, not from {src}")
    return api


def load_document(api, ctx, d: dict, tag: str):
    """Write an algebra document, read it back and load it, as a user would."""
    path = ctx.out / f"{tag}.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    with ctx.tracer.span("algebras.load_algebra"):
        return api.algebras.load_algebra(json.loads(path.read_text(encoding="utf-8")))


def execute(request: Request, tracer: Tracer, request_id: int) -> Result:
    tracer.request = request_id
    start = time.perf_counter()
    try:
        with tracer.span("request." + request.kind):
            outcome = request.run(tracer)
    except Exception as exc:  # a raising request is a failure; the loop goes on
        return Result(request.kind, time.perf_counter() - start, "error", type(exc).__name__, start)
    seconds = time.perf_counter() - start
    try:
        problem = request.check(outcome)
    except Exception as exc:  # an answer the checker cannot read is a wrong answer
        problem = f"unreadable answer: {type(exc).__name__}: {exc}"
    if problem is not None:
        return Result(request.kind, seconds, "wrong", problem, start)
    return Result(request.kind, seconds, "ok", "", start)


def closed_loop(rounds: Iterator[list[Request]], seconds: float, tracer: Tracer, pace: Pace) -> list[Result]:
    """Send the requests of one round after another until ``seconds`` have
    passed, then finish the round under way, so that every run has the
    workload's mix of whole rounds.  The rounds never run out: a faster
    program gets further into the same sequence.  Between requests ``pace``
    probes the machine's speed; it probes a few more times at the end, so
    that the last requests have probes on both sides."""
    results = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for request in next(rounds):
            pace.tick()
            results.append(execute(request, tracer, len(results)))
    for _ in range(AT_LEAST):
        pace.probe()
    return results


def paired(rounds: Iterator[list[Request]], seconds: float, tracer: Tracer):
    """Send each request of whole rounds twice in a row, once untraced and
    once traced, the order alternating, until ``seconds`` have passed; after
    each pair run the request's probe (traced, outside the request).
    Returns the untraced results, the traced results and the seconds spent
    in probes.  Pairing keeps the machine's drift out of the
    difference between the two."""
    plain: list[Result] = []
    traced: list[Result] = []
    probe_seconds = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        for request in next(rounds):
            for on in (False, True) if i % 2 == 0 else (True, False):
                tracer.enabled = on
                (traced if on else plain).append(execute(request, tracer, i))
            tracer.enabled = True
            if request.probe is not None:
                start = time.perf_counter()
                request.probe(tracer)
                probe_seconds += time.perf_counter() - start
            i += 1
    return plain, traced, probe_seconds


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def request_metrics(
    results: list[Result], failure_ms: float, factors: list[float] | None = None
) -> dict[str, float]:
    """Throughput, latency percentiles and success share of one loop.

    A failed request misses every latency limit: it enters the percentiles at
    ``failure_ms``.  Throughput counts successful requests per second spent
    in requests.  ``factors``, one per result, scale the request times (see
    ``pace``); without them the times are wall times.
    """
    factors = factors or [1.0] * len(results)
    seconds = [r.seconds * f for r, f in zip(results, factors)]
    ok = sum(r.outcome == "ok" for r in results)
    latencies = sorted(s * 1000.0 if r.outcome == "ok" else failure_ms for r, s in zip(results, seconds))
    busy = sum(seconds)
    return {
        "throughput_rps": ok / busy if busy > 0 else 0.0,
        "latency_p50_ms": nearest_rank(latencies, 0.50),
        "latency_p90_ms": nearest_rank(latencies, 0.90),
        "success_rate": ok / len(results),
    }


WORD_OPS = ("words.fg_mul", "words.fg_inv", "words.heap_mu")
SEARCH = ("termsearch.find_maltsev_term", "termsearch.find_maltsev_term.capped")


def layer_metrics(stats: LayerStats) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    nodes_in = stats.attr_sum("nodes_in", "rewriting.normalize")
    spawn = stats.mean_ms("cli.spawn_bare")
    with_import = stats.mean_ms("cli.spawn_import")
    return {
        "terms.parse_ms": stats.mean_ms("terms.parse_term"),
        "terms.format_ms": stats.mean_ms("terms.format_term"),
        "terms.nodes_per_s": stats.rate("nodes", "terms.parse_term", "terms.format_term"),
        "rewriting.normalize_ms": stats.mean_ms("rewriting.normalize"),
        "rewriting.normalize_calls": stats.total_calls("rewriting.normalize"),
        "rewriting.size_ratio": (
            stats.attr_sum("nodes_out", "rewriting.normalize") / nodes_in if nodes_in else 0.0
        ),
        "rewriting.count_m_oracle_ms": stats.mean_ms("rewriting.count_M"),
        "homomorphisms.hom_to_group_ms": stats.mean_ms("homomorphisms.hom_to_group"),
        "homomorphisms.letters_out": stats.attr_sum("letters", "homomorphisms.hom_to_group"),
        "words.fg_ms": stats.mean_ms(*WORD_OPS),
        "words.letters_per_s": stats.rate("letters", *WORD_OPS),
        "algebras.load_ms": stats.mean_ms("algebras.load_algebra"),
        "algebras.product_ms": stats.mean_ms("algebras.product_algebra"),
        "algebras.derive_ms": stats.mean_ms("algebras.derive"),
        "termsearch.search_ms": stats.mean_ms(*SEARCH),
        "termsearch.visited": stats.attr_sum("visited", *SEARCH),
        "termsearch.vectors_per_s": stats.rate("visited", *SEARCH),
        "termsearch.capped_ms": stats.mean_ms("termsearch.find_maltsev_term.capped"),
        "congruences.principal_ms": stats.mean_ms("congruences.principal_congruence"),
        "congruences.principal_calls": stats.total_calls("congruences.principal_congruence"),
        "congruences.lattice_ms": stats.mean_ms("congruences.all_congruences"),
        "congruences.lattice_size": stats.attr_sum("size", "congruences.all_congruences"),
        "congruences.permute_ms": stats.mean_ms("congruences.permute"),
        "congruences.permute_calls": stats.total_calls("congruences.permute"),
        "congruences.quotient_ms": stats.mean_ms("congruences.quotient"),
        "termsearch.audit_ms": stats.mean_ms("termsearch.permutability_audit"),
        "cli.spawn_ms": spawn,
        "cli.import_ms": with_import - spawn if with_import else 0.0,
        "cli.inprocess_ms": stats.mean_ms("cli.main"),
    }
