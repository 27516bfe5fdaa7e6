"""Single-tenant serving: one engine behind the fleet's event loop.

``queue -> batcher -> engine`` for one model is the one-tenant case of
:class:`~repro.serve.fleet.FleetScheduler`: one replica, no autoscaler,
flush-only dispatch (a batch occupies the engine for the plan's
simulated latency; the next dispatches no earlier than its completion).
``Server`` builds that fleet around an engine the caller already has.
The only serving event loop is ``FleetScheduler.run``, so the same trace,
flush timeout and batch cap still produce byte-identical metrics.
"""

from __future__ import annotations

from typing import List, Optional

from .engine import ServingEngine
from .fleet import FleetScheduler, TenantConfig
from .metrics import ServingMetrics
from .request import Request
from .slo import SLOClass

__all__ = ["Server"]


class Server:
    """Queue + batcher + engine, driven by an arrival trace."""

    def __init__(
        self,
        engine: ServingEngine,
        flush_timeout: float = 0.005,
        queue_depth: int = 256,
        max_batch_images: Optional[int] = None,
        max_pending_images: Optional[int] = None,
    ) -> None:
        self.engine = engine
        max_images = max_batch_images if max_batch_images is not None \
            else engine.max_batch
        if max_images > engine.max_batch:
            raise ValueError(
                f"max_batch_images {max_images} exceeds the engine's "
                f"discovered maximum {engine.max_batch}")
        # The sole tenant is keyed ``None``, the tenant of an untagged
        # request; deadlines ride on requests, the SLO only sets the flush.
        self._fleet = FleetScheduler._around(engine, TenantConfig(
            name=None, model=engine.model.name,
            slo=SLOClass("server", deadline=None,
                         flush_timeout=flush_timeout),
            queue_depth=queue_depth, max_replicas=1, batch_cap=max_images,
        ), max_pending_images)
        self.queue = self._fleet.tenants[None].queue
        self.metrics = self._fleet.metrics.tenant(None)

    def submit(self, request: Request) -> bool:
        """Admit one request; ``False`` means rejected (queue full).

        Raises :class:`~repro.serve.queue.OversizeRequestError` for
        requests no batch can ever carry.
        """
        return self._fleet.submit(
            request, max(self._fleet.clock, request.arrival_time))

    def run(self, arrivals: List[Request]) -> ServingMetrics:
        """Replay a time-sorted, untagged arrival trace to completion
        (after the last arrival the queue drains on flush timers alone)
        and return the metrics."""
        self._fleet.run(arrivals)
        return self.metrics
