"""In-memory spans recorded by the benchmark around its calls into each layer.

A span has a name, a start, an end, a parent span and a request id.  Spans
are kept in a list while the benchmark runs and written out once at the end.
A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Stand-in yielded when tracing is off; attributes set on it are dropped."""

    def set(self, **_):
        pass


class _LiveSpan:
    """Handle on a recorded span, for counts known only after the call."""

    def __init__(self, span: Span):
        self._span = span

    def set(self, **attrs):
        self._span.attrs.update(attrs)


_NULL = _NullSpan()


class Tracer:
    """Records nested spans when enabled; a near no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request: int | str = "setup"

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield _NULL
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.request, dict(attrs))
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield _LiveSpan(record)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            "attrs": s.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus the union of its children's
    intervals, clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.duration - covered)
    return out


class LayerStats:
    """Per-name totals over a span list: call count, self seconds and summed
    numeric attributes."""

    def __init__(self, spans: list[Span]):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.sums: dict[tuple[str, str], float] = {}
        for s, own in zip(spans, self_times(spans)):
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.seconds[s.name] = self.seconds.get(s.name, 0.0) + own
            for key, value in s.attrs.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self.sums[(s.name, key)] = self.sums.get((s.name, key), 0) + value

    def mean_ms(self, *names: str) -> float:
        calls = self.total_calls(*names)
        return 1000.0 * self.total_seconds(*names) / calls if calls else 0.0

    def total_calls(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def total_seconds(self, *names: str) -> float:
        return sum(self.seconds.get(n, 0.0) for n in names)

    def attr_sum(self, key: str, *names: str) -> float:
        return sum(self.sums.get((n, key), 0) for n in names)

    def rate(self, key: str, *names: str) -> float:
        """Summed attribute per second of self time, 0 when never called."""
        secs = self.total_seconds(*names)
        return self.attr_sum(key, *names) / secs if secs > 0 else 0.0
