"""Metric helpers for the benchmark: operation log, spans, percentiles and
Philox words.

Nothing here imports sepprob, so the helpers can be tested on their own.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


TAIL_MIN = 10  # a tail percentile needs at least this many samples beyond it


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

def beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - math.ceil(p / 100.0 * n)


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile; refuses a tail with fewer than ten
    samples beyond it, so a reported p90 always rests on at least 100."""
    vals = sorted(values)
    if not vals:
        raise ValueError("no samples")
    if p > 50 and beyond(len(vals), p) < TAIL_MIN:
        raise ValueError(f"p{p:g} needs {TAIL_MIN} samples beyond it; "
                         f"{len(vals)} samples leave {beyond(len(vals), p)}")
    return vals[max(math.ceil(p / 100.0 * len(vals)) - 1, 0)]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


# ---------------------------------------------------------------------------
# Philox word counting
# ---------------------------------------------------------------------------

PHILOX_WORDS_PER_BLOCK = 4  # Philox4x64 yields four 64-bit words per counter step


def philox_words(bit_generator) -> int:
    """64-bit outputs drawn so far from a numpy Philox bit generator.

    The counter advances once per block of four words, and ``buffer_pos``
    says how many words of the current block were handed out.
    """
    state = bit_generator.state
    counter = sum(int(w) << (64 * i) for i, w in enumerate(state["state"]["counter"]))
    unread = PHILOX_WORDS_PER_BLOCK - int(state["buffer_pos"])
    return PHILOX_WORDS_PER_BLOCK * counter - unread


# ---------------------------------------------------------------------------
# operations: attempted, failed, timed
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    name: str
    wall: float
    err: float
    tol: float
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.err <= self.tol  # False for NaN


@dataclass
class OpLog:
    """Every operation the benchmark attempts, with its wall time and check.

    An operation fails when it raises or when its check error exceeds the
    tolerance; the check runs after the clock stops.
    """

    records: list[OpRecord] = field(default_factory=list)

    def record(self, name: str, wall: float, err: float, tol: float,
               note: str = "") -> OpRecord:
        rec = OpRecord(name, wall, float(err), float(tol), note)
        self.records.append(rec)
        return rec

    def run(self, name: str, fn: Callable[[], Any],
            check: Callable[[Any], float], tol: float,
            around: Callable[[], Any] | None = None) -> Any:
        """Time fn(), then check its value; returns the value (None if it raised).

        ``around`` makes a context manager to call fn in, such as a span.
        """
        t0 = time.perf_counter()
        try:
            with around() if around else nullcontext():
                value = fn()
        except Exception as exc:  # a raising operation is counted, not fatal
            self.record(name, time.perf_counter() - t0, math.inf, tol,
                        f"{type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        try:
            err = check(value)
        except Exception as exc:  # so is a check that cannot be evaluated
            self.record(name, wall, math.inf, tol, f"check {type(exc).__name__}: {exc}")
            return value
        self.record(name, wall, err, tol)
        return value

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.records else 0.0

    def walls(self, name: str) -> list[float]:
        return [r.wall for r in self.records if r.name == name]

    def median_wall(self, name: str) -> float:
        return statistics.median(self.walls(name))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    job: str
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one job, kept in memory; the caller writes them once at the end.

    Start and end are ``time.perf_counter`` readings, a system-wide
    monotonic clock on Linux, so spans from worker processes line up.
    """

    def __init__(self, job: str):
        self.job = job
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), self._open[-1] if self._open else None,
                  name, self.job, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()


def write_spans(path: Path, spans: list[Span]) -> None:
    """Write all spans as JSON lines in one go."""
    lines = [json.dumps({"job": s.job, "id": s.id, "parent": s.parent, "name": s.name,
                         "start": s.start, "end": s.end, "counts": s.counts})
             for s in spans]
    path.write_text("\n".join(lines) + "\n")
