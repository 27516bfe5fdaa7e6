"""Serving metrics: latency percentiles, batch shapes, drop accounting.

Every number the bench prints comes from here.  Latencies are kept as raw
samples (a bench run is bounded, so exact percentiles are affordable); the
power-of-two histogram of the one-screen report is derived from them when
rendered.  Times are simulated seconds throughout.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .request import Request

__all__ = ["LatencyHistogram", "ServingMetrics", "percentile"]


def percentile(samples: List[float], p: float) -> float:
    """Exact percentile (nearest-rank) of a non-empty sample list.

    Nearest-rank always returns an actual sample.  Both boundaries are
    clamped explicitly: ``p=0`` returns the minimum (``ceil(0) == 0``
    would otherwise underflow to ``ordered[-1]`` — the *maximum* — via
    Python's negative indexing) and ``p=100`` returns the maximum even
    when ``ceil`` overshoots ``n`` through float rounding of
    ``p / 100.0 * n``.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(samples)
    rank = min(max(math.ceil(p / 100.0 * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


class LatencyHistogram:
    """Latency samples, shown as a power-of-two-millisecond histogram."""

    #: Bucket upper bounds in milliseconds; the last bucket is open-ended.
    BOUNDS_MS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

    def __init__(self) -> None:
        self.samples: List[float] = []

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)

    @property
    def buckets(self) -> Counter:
        """Sample count per display bucket (``None``: > largest bound),
        derived from ``samples`` on every read."""
        counts: Counter = Counter()
        for seconds in self.samples:
            ms = seconds * 1e3
            counts[next((bound for bound in self.BOUNDS_MS if ms <= bound),
                        None)] += 1
        return counts

    def p(self, q: float) -> float:
        return percentile(self.samples, q)

    def summary(self) -> str:
        if not self.samples:
            return "no completed requests"
        return (f"p50 {self.p(50) * 1e3:7.2f} ms   "
                f"p95 {self.p(95) * 1e3:7.2f} ms   "
                f"p99 {self.p(99) * 1e3:7.2f} ms   "
                f"max {max(self.samples) * 1e3:7.2f} ms")

    def render(self, width: int = 40) -> str:
        """ASCII histogram, one row per occupied bucket."""
        if not self.samples:
            return "  (empty)"
        rows = []
        buckets = self.buckets
        top = max(buckets.values())
        for bound in (*self.BOUNDS_MS, None):
            count = buckets.get(bound)
            if not count:
                continue
            label = f"<= {bound:4d} ms" if bound is not None else "  > 1024 ms"
            bar = "#" * max(1, round(width * count / top))
            rows.append(f"  {label}  {bar} {count}")
        return "\n".join(rows)


@dataclass
class ServingMetrics:
    """Counters and distributions for one bench run."""

    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    queue_wait: LatencyHistogram = field(default_factory=LatencyHistogram)
    batch_sizes: Counter = field(default_factory=Counter)
    queue_depths: List[int] = field(default_factory=list)

    arrived: int = 0
    admitted: int = 0
    completed_requests: int = 0
    completed_images: int = 0
    rejected_queue_full: int = 0
    expired: int = 0               # deadline passed while queued
    batches: int = 0
    empty_flushes: int = 0

    # ------------------------------------------------------------------
    def record_completion(self, request: Request,
                          completion_time: float) -> None:
        """One request finished.  Under continuous batching requests
        leave an in-flight batch individually (each needs its own full
        pass of wavefront steps), so completion is recorded per request
        rather than per batch."""
        request.completion_time = completion_time
        self.completed_requests += 1
        self.completed_images += request.size
        self.latency.samples.append(completion_time - request.arrival_time)
        self.queue_wait.samples.append(
            request.dispatch_time - request.arrival_time)

    # ------------------------------------------------------------------
    def check_accounting(self, still_queued: int = 0) -> None:
        """Assert that every arrived request is accounted for exactly once.

        ``arrived == rejected_queue_full + expired + completed_requests +
        still_queued`` — any imbalance means the runtime lost or
        double-counted a request.  Raises ``AssertionError`` with both
        sides spelled out; the bench driver calls this after every run.
        """
        accounted = (self.rejected_queue_full + self.expired
                     + self.completed_requests + still_queued)
        if self.arrived != accounted:
            raise AssertionError(
                f"request accounting imbalance: arrived={self.arrived} but "
                f"rejected_queue_full={self.rejected_queue_full} + "
                f"expired={self.expired} + "
                f"completed={self.completed_requests} + "
                f"still_queued={still_queued} = {accounted}"
            )

    def queue_depth_p95(self) -> Optional[int]:
        """Nearest-rank p95 of the observed queue depths.

        Depths are integers and nearest-rank returns an actual sample,
        so the result is already integral — no ``float``/``int``
        round-trip, which used to *truncate* (and would bite the moment
        a future percentile implementation interpolated).
        """
        if not self.queue_depths:
            return None
        return percentile(self.queue_depths, 95)

    def batch_size_summary(self) -> str:
        if not self.batch_sizes:
            return "(no batches)"
        parts = [f"{size} x{count}"
                 for size, count in sorted(self.batch_sizes.items())]
        return ", ".join(parts)

    def throughput(self, duration: float) -> Dict[str, float]:
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        return {
            "requests_per_s": self.completed_requests / duration,
            "images_per_s": self.completed_images / duration,
        }
