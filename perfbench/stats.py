"""Statistics, operation accounting and in-memory spans for the benchmark.

Nothing here imports the program under test, so the benchmark's own
tests (``perfbench/tests``) exercise it without a checkout of ``src``.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Percentiles tried, highest first, for the tail of a timing.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)

#: A tail percentile is reported only with at least this many samples
#: above it; below ``MIN_SAMPLES_FOR_TAIL`` samples the median stands alone.
SAMPLES_BEYOND_TAIL = 10
MIN_SAMPLES_FOR_TAIL = 40


def _rank(q: float, n: int) -> int:
    # The tolerance keeps q*n/100 from rounding up past a whole rank.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* (0..100] of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(q, len(values)) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with enough samples beyond it.

    ``None`` when fewer than :data:`MIN_SAMPLES_FOR_TAIL` samples exist:
    a percentile over so few samples is no tail.
    """
    if n < MIN_SAMPLES_FOR_TAIL:
        return None
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= SAMPLES_BEYOND_TAIL:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{"n", "p50"}`` plus ``"p<q>"`` for the tail the sample count allows."""
    out: Dict[str, float] = {"n": len(values), "p50": statistics.median(values)}
    q = tail_percentile(len(values))
    if q is not None:
        out[f"p{q:g}"] = percentile(values, q)
    return out


def describe(name: str, values: Sequence[float]) -> str:
    """One stderr line: sample count, median and the allowed tail."""
    parts = [f"{k}={v:.6g}" for k, v in summarize(values).items()]
    return f"{name}: " + " ".join(parts)


class Tally:
    """Operations attempted and failed, failures grouped by cause."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter = Counter()

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, cause: str, n: int = 1) -> None:
        self.attempted += n
        self.failed[cause] += n

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())


def result_line(correct: bool, tally: Tally,
                metrics: Dict[str, tuple]) -> str:
    """The benchmark's last output line; *metrics* maps name -> (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed_total),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, MB.

    Linux reports ``ru_maxrss`` in KiB; children count once they have
    been waited for.  The sum moves with either peak, but it is not the
    footprint at one instant: the two peaks need not have coincided, and
    a pool has more than one child.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Span:
    __slots__ = ("layer", "name", "t0", "t1", "child", "root", "args")

    def __init__(self, layer: str, name: str, t0: float, root: bool) -> None:
        self.layer, self.name, self.t0 = layer, name, t0
        self.root = root
        self.t1 = t0
        self.child = 0.0
        self.args: dict = {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        """Duration minus what its (nested) children cover."""
        return self.duration - self.child


class SpanRecorder:
    """Spans kept in memory, opened and closed on one thread.

    Spans nest strictly, so the part of a span its children cover is the
    sum of their durations.  ``region`` marks the traced stretch;
    everything inside it that no span covers is the unattributed
    residual, so for every recorder::

        sum(layer self times) + residual == sum(region walls)
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.region_wall = 0.0
        #: Label stamped on every span opened while it is set
        #: (``"cold"``, ``"warm"``, ``"replay"``).
        self.phase = ""
        #: Counts taken at layer boundaries (events, commits, ...).
        self.counts: Counter = Counter()
        self._stack: List[Span] = []
        self._epoch = time.time() - clock()

    @contextmanager
    def region(self):
        t0 = self.clock()
        try:
            yield
        finally:
            self.region_wall += self.clock() - t0

    @contextmanager
    def span(self, layer: str, name: str):
        stack = self._stack
        span = Span(layer, name, self.clock(), root=not stack)
        span.args = {"phase": self.phase}
        stack.append(span)
        try:
            yield span
        finally:
            span.t1 = self.clock()
            stack.pop()
            if stack:
                stack[-1].child += span.duration
            self.spans.append(span)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """*fn* with every call recorded as one span."""
        def traced(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    # -- reductions ----------------------------------------------------------
    def select(self, layer: str, name: Optional[str] = None,
               phase: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans
                if s.layer == layer and (name is None or s.name == name)
                and (phase is None or s.args["phase"] == phase)]

    def self_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.self_time
        return out

    def residual(self) -> float:
        """Region wall time no span covers."""
        covered = sum(s.duration for s in self.spans if s.root)
        return self.region_wall - covered

    def chrome_events(self, pid: int = 1) -> List[dict]:
        events = []
        for s in self.spans:
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": pid,
                "tid": 1, "ts": (s.t0 + self._epoch) * 1e6,
                "dur": s.duration * 1e6, "args": s.args,
            })
        return events


class NoTrace:
    """The untraced stand-in for :class:`SpanRecorder`: spans cost nothing."""

    phase = ""

    @contextmanager
    def span(self, layer: str, name: str):
        yield None

    @contextmanager
    def region(self):
        yield


def median_or_zero(values: Iterable[float]) -> float:
    """Median of *values*; 0 when a layer made no such call."""
    values = list(values)
    return statistics.median(values) if values else 0.0
