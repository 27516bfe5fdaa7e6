"""Bounded admission queue with reject-on-full backpressure.

An unbounded queue turns overload into unbounded latency: every request
is eventually served, long after its sender stopped caring.  The serving
runtime instead bounds the queue and *rejects* at admission time — the
client gets an immediate "try later" and the requests already admitted
keep their latency.  This is the standard admission-control trade and the
reason the bench reports a drop counter next to its percentiles.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator

from .request import Request

__all__ = ["AdmissionQueue", "OversizeRequestError"]


class OversizeRequestError(ValueError):
    """A request asks for more images than any batch can carry.

    Raised at submission (a caller bug — no amount of queueing makes the
    request servable), unlike queue-full rejection which is a normal
    runtime outcome reported through the metrics.
    """


class AdmissionQueue:
    """FIFO of admitted requests, bounded in depth.

    ``max_depth`` counts requests, not images: admission control protects
    the *latency* of what is already queued, and a request is the unit a
    client waits on.
    """

    def __init__(self, max_depth: int, max_request_size: int) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if max_request_size < 1:
            raise ValueError(
                f"max_request_size must be >= 1, got {max_request_size}")
        self.max_depth = max_depth
        self.max_request_size = max_request_size
        self._requests: Deque[Request] = deque()
        self._pending_images = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    @property
    def pending_images(self) -> int:
        """Images waiting in the queue — O(1), maintained incrementally.

        The continuous-batching join loop reads this between every pair of
        wavefront steps, so a ``sum`` over the deque would turn each step
        boundary into an O(depth) scan.
        """
        return self._pending_images

    # ------------------------------------------------------------------
    def check_size(self, request: Request) -> None:
        """Raise :class:`OversizeRequestError` if no batch can carry
        ``request``."""
        if request.size > self.max_request_size:
            raise OversizeRequestError(
                f"request {request.id} asks for {request.size} images but "
                f"the largest servable batch is {self.max_request_size}; "
                f"split the request client-side"
            )

    def offer(self, request: Request) -> bool:
        """Admit ``request`` or reject it; returns ``True`` on admission.

        Oversize requests raise (:meth:`check_size`) instead of returning
        ``False``: they can never be served, so silently dropping them
        would hide a bug in the caller.
        """
        self.check_size(request)
        if len(self._requests) >= self.max_depth:
            return False
        self._requests.append(request)
        self._pending_images += request.size
        return True

    def pop(self) -> Request:
        """Remove and return the head request; raises ``IndexError`` when
        empty (callers guard with ``len(queue)``)."""
        request = self._requests.popleft()
        self._pending_images -= request.size
        return request

    def peek(self) -> Request:
        """The head request without removing it.

        Raises ``IndexError`` on an empty queue instead of returning
        ``None``: every call site dereferences the result, so an
        ``Optional`` return is an implicit-``None`` hole rather than a
        usable signal — guard with ``len(queue)`` first.
        """
        if not self._requests:
            raise IndexError("peek on an empty AdmissionQueue")
        return self._requests[0]
