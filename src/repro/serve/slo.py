"""SLO classes: deadline tiers mapped to dispatch aggressiveness.

A serving fleet does not give every tenant the same latency contract —
an interactive tenant wants its partial batches flushed in milliseconds,
a bulk tenant would rather wait and amortize kernel launches over a full
batch.  An :class:`SLOClass` names that contract: a per-request deadline
(relative latency budget) plus the dynamic batcher's flush timeout,
derived from the deadline so the two never disagree (a flush timer
longer than the deadline would expire every request it was waiting to
batch).

The three standard tiers cover the usual spread; tenants may also build
a custom class from a deadline via :meth:`SLOClass.from_deadline`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["SLOClass", "INTERACTIVE", "STANDARD", "BATCH", "SLO_CLASSES"]

#: :meth:`SLOClass.from_deadline`'s flush timeout as a share of the
#: deadline: enough slack to batch, while leaving most of the budget for
#: queueing and execution.
_FLUSH_FRACTION = 0.25


@dataclass(frozen=True)
class SLOClass:
    """One latency contract a tenant serves under.

    ``deadline`` is the relative per-request latency budget in simulated
    seconds (``None`` = best effort, requests never expire);
    ``flush_timeout`` is how long the batcher may hold a partial batch
    open waiting for more work.
    """

    name: str
    deadline: Optional[float]
    flush_timeout: float

    def __post_init__(self) -> None:
        # NaN fails every comparison, so each check is written to pass
        # only a finite value.
        if self.deadline is not None and not 0 < self.deadline < math.inf:
            raise ValueError(
                f"SLO {self.name!r}: deadline must be positive and finite, "
                f"or None, got {self.deadline}")
        if not 0 <= self.flush_timeout < math.inf:
            raise ValueError(
                f"SLO {self.name!r}: flush_timeout must be finite and >= 0, "
                f"got {self.flush_timeout}")
        if self.deadline is not None and self.flush_timeout > self.deadline:
            raise ValueError(
                f"SLO {self.name!r}: flush_timeout {self.flush_timeout} "
                f"exceeds the deadline {self.deadline} — the batcher would "
                f"hold requests past the instant they expire")

    # ------------------------------------------------------------------
    @classmethod
    def from_deadline(cls, name: str, deadline: float) -> "SLOClass":
        """Derive a class from a deadline alone: the flush timeout is
        ``_FLUSH_FRACTION`` of the deadline."""
        return cls(name=name, deadline=deadline,
                   flush_timeout=deadline * _FLUSH_FRACTION)

    def absolute_deadline(self, arrival_time: float) -> Optional[float]:
        """The absolute expiry instant of a request arriving now."""
        if self.deadline is None:
            return None
        return arrival_time + self.deadline


#: Tight budget, aggressive flushing: user-facing traffic.
INTERACTIVE = SLOClass("interactive", deadline=0.200, flush_timeout=0.002)
#: The default contract: generous budget, moderate batching.
STANDARD = SLOClass("standard", deadline=1.0, flush_timeout=0.010)
#: Best effort: no deadline, patient batching for maximum throughput.
BATCH = SLOClass("batch", deadline=None, flush_timeout=0.050)

SLO_CLASSES: Dict[str, SLOClass] = {
    tier.name: tier for tier in (INTERACTIVE, STANDARD, BATCH)
}
