"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, rid)``: ``name`` is ``<layer>.<what>``
where ``<layer>`` is one of the repository's modules (``data``, ``core``,
``train``, ``optim``, ``compress``, ``runtime``, ``serve``) or ``bench`` for
the benchmark's own bookkeeping.  Spans are recorded from the benchmark's
files around calls into each layer's public functions, kept in memory, and
written out once when the run ends.  Times are ``time.perf_counter`` seconds,
which on Linux is ``CLOCK_MONOTONIC`` and so comparable across the benchmark
process, the fleet process and the replica processes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("data", "core", "train", "optim", "compress", "runtime", "serve")


class Tracer:
    """Collects spans while ``enabled``; recording is a no-op otherwise.

    Used from one thread: :meth:`span` nests through a single stack.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, None))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, _ = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, None)

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            rid: int | None = None) -> int:
        """Record a span measured elsewhere (another thread or process)."""
        if self.enabled:
            self.spans.append((name, start, end, parent, rid))
        return len(self.spans) - 1

    def durations_ms(self, name: str) -> list[float]:
        return [(e - s) * 1e3 for n, s, e, _, _ in self.spans if n == name]

    def self_times_ms(self) -> dict[int, float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[index] = (end - start - covered) * 1e3
        return out

    def layer_self_ms(self) -> dict[str, float]:
        """Self time summed per layer over the whole traced run."""
        totals = {layer: 0.0 for layer in LAYERS}
        for index, value in self.self_times_ms().items():
            layer = self.spans[index][0].split(".", 1)[0]
            if layer in totals:
                totals[layer] += value
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "rid": rid}) + "\n")


def span_cost_ms(samples: int = 10000) -> float:
    """What recording one span adds to the code it wraps."""
    tracer = Tracer(enabled=True)
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("bench.probe"):
            pass
    return (time.perf_counter() - start) * 1e3 / samples
