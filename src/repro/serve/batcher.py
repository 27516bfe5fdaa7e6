"""Dynamic batching: coalesce queued requests into one engine batch.

Batching is where Split-CNN's reduced peak memory turns into serving
throughput: the larger the batch that fits the device, the more images
amortize each kernel launch.  The batcher fires when either

- the queue holds ``max_batch_images`` worth of work (a full batch is
  ready — waiting longer only adds latency), or
- the oldest admitted request has waited ``flush_timeout`` seconds (a
  partial batch goes out so light traffic is not stuck behind a timer).

Both conditions are evaluated on the simulated clock, so the same
arrival trace always produces the same batches.  Requests whose deadline
has already passed are invisible to both conditions: they will be
dropped at dispatch, so letting them arm the full-batch trigger or the
flush timer would fire dispatches that then form short or empty batches.
"""

from __future__ import annotations

import math
from typing import List, Optional

from .metrics import ServingMetrics
from .queue import AdmissionQueue
from .request import DenseRequest, Request

__all__ = ["DynamicBatcher"]


class DynamicBatcher:
    """Forms batches from an :class:`AdmissionQueue` under a size cap."""

    def __init__(self, max_batch_images: int, flush_timeout: float) -> None:
        if max_batch_images < 1:
            raise ValueError(
                f"max_batch_images must be >= 1, got {max_batch_images}")
        if not 0 <= flush_timeout < math.inf:     # NaN fails too
            raise ValueError(
                f"flush_timeout must be finite and >= 0, got {flush_timeout}")
        self.max_batch_images = max_batch_images
        self.flush_timeout = flush_timeout

    # ------------------------------------------------------------------
    def ready_at(self, queue: AdmissionQueue,
                 now: float = float("-inf")) -> float:
        """Earliest simulated time a batch may be dispatched.

        With a full batch queued that moment has already passed — it is
        the admission that *crossed* the ``max_batch_images`` threshold,
        not the latest admission: requests admitted after the crossing
        must not drift the dispatch timestamp later.  Otherwise it is the
        flush timer of the oldest waiting request.

        ``now`` is the caller's current simulated time; requests already
        expired at ``now`` count toward neither condition — they can
        never be served, so a "full" batch padded out by corpses would
        dispatch early and then come up short, and an expired oldest
        request would anchor the flush timer at a moment that only
        produces an empty flush.  When *every* queued request is expired
        ``now`` itself is returned so the caller purges them immediately.
        The default ``-inf`` treats nothing as expired (no-deadline
        callers keep the original semantics).
        """
        if not len(queue):
            raise ValueError("ready_at on an empty queue")
        crossing = self._full_batch_crossing(queue, now)
        if crossing is not None:
            return crossing
        for request in queue:
            if not request.expired_at(now):
                return request.arrival_time + self.flush_timeout
        return now                     # only corpses queued: purge now

    def _full_batch_crossing(self, queue: AdmissionQueue,
                             now: float = float("-inf")) -> Optional[float]:
        """Admission time of the request that completed a full batch.

        Scans the FIFO in admission order accumulating sizes; the first
        request to push the running total to ``max_batch_images`` is the
        crossing (its ``arrival_time`` is its admission time — the queue
        admits synchronously).  Requests already expired at ``now`` are
        skipped: they will be dropped before the batch forms, so they
        cannot contribute images to it.  A dense request is a batch all
        by itself (it dispatches alone, and its patch count routinely
        exceeds the image cap), so a queued one counts as a crossing at
        its own arrival — waiting longer would only add latency.
        ``None`` when no full batch is queued.
        """
        images = 0
        for request in queue:
            if request.expired_at(now):
                continue
            if isinstance(request, DenseRequest):
                return request.arrival_time
            images += request.size
            if images >= self.max_batch_images:
                return request.arrival_time
        return None

    # ------------------------------------------------------------------
    def form_batch(self, queue: AdmissionQueue, now: float,
                   metrics: ServingMetrics) -> List[Request]:
        """Pop requests into a batch of at most ``max_batch_images``.

        Requests whose deadline passed while they queued are dropped and
        counted — they never reach the engine.  May return an empty list
        (the "empty flush": the timer fired but every waiting request had
        expired), in which case the caller skips the engine entirely.

        A dense request always dispatches *alone*: the engine streams it
        through per-tile graphs rather than batching it with
        classification images, so a dense head ends the batch being
        formed (it goes out on the next dispatch) and a dense request at
        the front is the whole batch.
        """
        batch: List[Request] = []
        images = 0
        while len(queue):
            head = queue.peek()
            if head.expired_at(now):
                metrics.expired += 1
                queue.pop()
                continue
            if isinstance(head, DenseRequest):
                if batch:
                    break
                request = queue.pop()
                request.dispatch_time = now
                return [request]
            if images + head.size > self.max_batch_images:
                break
            request = queue.pop()
            request.dispatch_time = now
            batch.append(request)
            images += request.size
        return batch
