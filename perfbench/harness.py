"""Measurement plumbing shared by every workload: spans, stats, the loop.

Nothing here imports numpy, scipy or ``repro``: ``run.py`` pins the
BLAS/OpenMP pools and starts the import clock before those load.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def process_age() -> float | None:
    """Seconds since this process started (interpreter start-up included).

    Read from ``/proc/self/stat`` (start time in clock ticks since boot)
    against ``CLOCK_BOOTTIME``; ``None`` where either is unavailable.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, IndexError, ValueError, AttributeError):
        return None


def peak_rss_mb() -> float:
    """Process peak resident set size in MB (``ru_maxrss`` is in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``. With eleven or more
    samples that is the sorted sample at index ``len - 11``; with fewer,
    no percentile qualifies and the minimum is returned — the printed
    ``samples_beyond`` (< 10) says so.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0, 0
    i = max(0, len(ordered) - 11)
    pct = 100.0 * i / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[i], pct, len(ordered) - 1 - i


@dataclass
class SpanLog:
    """Benchmark-side spans around calls into the program's public API.

    Spans nest (each records its parent) and stay in memory; :meth:`write`
    dumps them as JSON lines when the run ends.
    """

    records: list[dict] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.records)
        rec = {"sid": sid, "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "dur": None, **attrs}
        self.records.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["dur"] = time.perf_counter() - rec["start"]

    def durations(self, name: str) -> list[float]:
        return [r["dur"] for r in self.records if r["name"] == name]

    def write(self, path: str, extra: list[dict] = ()) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in [*self.records, *extra]:
                fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")


@dataclass
class OpRecord:
    """One attempted op: its wall time, named sub-timings, and outcome."""

    kind: str
    secs: float
    parts: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    trace: dict | None = None  # phase totals + counters of a traced op


def closed_loop(step, seconds: float) -> None:
    """Call ``step(i)`` back to back — one caller, each call waiting for
    the previous one — until the time budget is spent.

    A step is one unit of a workload (an op, or a fixed cycle of ops). The
    loop starts another unit while it is expected to end within half a
    unit of the deadline, so runs hold whole units and their op mix does
    not depend on where the deadline happens to cut.
    """
    t0 = time.perf_counter()
    i = 0
    while True:
        u0 = time.perf_counter()
        step(i)
        i += 1
        now = time.perf_counter()
        if now - t0 + 0.5 * (now - u0) > seconds:
            return
