"""Inference requests — the unit of work the serving runtime moves around.

A request asks for ``size`` images to be classified.  Times are simulated
seconds on the bench's virtual clock (the same clock the cost model and
GPU simulator price kernels in), so every latency number the runtime
reports is reproducible without hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["Request"]


@dataclass
class Request:
    """One inference request.

    ``deadline`` is absolute (simulated seconds); a request still queued
    past its deadline is dropped by the batcher rather than executed —
    serving a reply the client has given up on wastes capacity that
    admitted requests could use.
    """

    id: int
    arrival_time: float
    size: int = 1                       # images in this request
    deadline: Optional[float] = None
    tenant: Optional[str] = None        # owning tenant in a fleet (or None)

    # Filled in by the runtime as the request moves through the pipeline.
    dispatch_time: Optional[float] = None
    completion_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"request {self.id}: size must be >= 1, "
                             f"got {self.size}")
        # NaN passes every ``later < earlier`` sortedness check and then
        # sits in the latency samples; ``deadline=None`` means no expiry.
        if not math.isfinite(self.arrival_time):
            raise ValueError(f"request {self.id}: arrival_time must be "
                             f"finite, got {self.arrival_time}")
        if self.deadline is not None and not math.isfinite(self.deadline):
            raise ValueError(f"request {self.id}: deadline must be finite "
                             f"or None, got {self.deadline}")

    def expired_at(self, now: float) -> bool:
        """True when the deadline has passed and the work never started.

        The comparison is *strictly* greater: a request dispatched exactly
        at its deadline is still served.  The deadline names the last
        instant the client accepts work starting, so the boundary belongs
        to the request — pinned by the boundary tests in
        ``tests/test_serve.py``, do not flip it to ``>=`` casually.
        """
        return self.deadline is not None and now > self.deadline

    @property
    def latency(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time
