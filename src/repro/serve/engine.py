"""The serving engine: planned, verified, cached forward execution.

The engine owns the expensive part of serving a batch — building the
forward-only IR graph, running HMMS over it, and verifying the plan —
and memoizes all of it in a :class:`~repro.hmms.planner.PlanCache` keyed
by ``(model, split scheme, batch)``.  Steady-state traffic therefore
never replans: after warmup every batch is a cache hit that charges a
precomputed simulated latency (and optionally runs the numeric
:class:`~repro.graph.executor.GraphExecutor` for real logits).

Batch sizes are bucketed to powers of two: a 13-image batch executes the
16-image graph.  Bucketing is what makes the cache finite — without it
every distinct arrival pattern would plan a fresh graph — and the padding
waste is bounded at 2x in the worst case.

The per-model maximum batch is *discovered*, not configured: the engine
doubles the batch until the planned device peak no longer fits the
device's memory capacity (the Figure-10 search, restricted to the dyadic
grid the buckets live on).  Split models discover larger maxima than
their unsplit twins — the paper's peak-memory reduction turned into
serving headroom.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import build_zoo_model
from ..graph import GraphExecutor, build_inference_graph
from ..graph.ir import Graph
from ..hmms import PlanCache
from ..models.base import ConvClassifier
from ..planned import PlanCore, PlannedEntry, dyadic_bucket, dyadic_search
from ..profile.device import DeviceSpec, P100_NVLINK
from .request import Request

__all__ = ["ServingEngine"]


class ServingEngine:
    """Plans, verifies, caches and executes forward-only batches.

    Parameters
    ----------
    model: the (possibly split-transformed) model to serve.
    device, numeric, compile_plans, cache: the engine's
        :class:`~repro.planned.PlanCore` (documented there).  With
        ``compile_plans`` the graphs' running-stat normalization folds to
        per-channel affines; a fleet passes its one ``cache`` to every
        engine.
    batch_cap: upper bound for the capacity search (keeps discovery
        bounded for models far smaller than the device).
    seed: seeds the inputs a ``numeric`` engine generates.
    memory_budget: device bytes the capacity search may assume.
        Defaults to the whole device; a fleet hosting several engines on
        one device hands each engine its share so co-resident tenants
        discover capacities that fit *together*.
    """

    def __init__(
        self,
        model: ConvClassifier,
        device: DeviceSpec = P100_NVLINK,
        numeric: bool = False,
        batch_cap: int = 4096,
        seed: int = 0,
        compile_plans: bool = False,
        memory_budget: Optional[int] = None,
        cache: Optional[PlanCache] = None,
    ) -> None:
        if batch_cap < 1:
            raise ValueError(f"batch_cap must be >= 1, got {batch_cap}")
        self.model = model
        #: The compile -> plan -> verify -> cache path; ``cache`` and
        #: ``planner`` are its.
        self.core = PlanCore(device, numeric=numeric,
                             compile_plans=compile_plans, cache=cache)
        self.device = device
        self.cache, self.planner = self.core.cache, self.core.planner
        self.pipeline_fingerprint = self.core.fingerprint
        self.batch_cap = batch_cap
        self.memory_budget = self.core.budget(memory_budget)
        self.executed_batches = 0
        self.executed_images = 0
        self.padded_images = 0
        self._rng = np.random.default_rng(seed)
        self._split_key = str(getattr(model, "split_info", "unsplit"))
        self._planned_peaks: Dict[int, int] = {}    # bucket -> device peak
        self._logits: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_zoo(cls, name: str, split: int = 1, split_depth: float = 0.5,
                 **kwargs) -> "ServingEngine":
        """Engine for a zoo model, optionally split-transformed (see
        :func:`repro.core.build_zoo_model`)."""
        return cls(build_zoo_model(name, split, split_depth), **kwargs)

    # ------------------------------------------------------------------
    @property
    def plans_verified(self) -> int:
        return self.core.plans_verified

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _graph(self, batch: int) -> Tuple[Graph, Dict[str, np.ndarray]]:
        """The forward graph (and its parameters) for ``batch`` images —
        what both the capacity search and the cache hand the core."""
        graph = build_inference_graph(self.model, batch)
        return graph, GraphExecutor.parameters_from_model(graph, self.model)

    def entry_for(self, batch: int) -> PlannedEntry:
        """Cached plan for the bucket that covers ``batch`` images."""
        bucket = self.bucket(batch)
        return self.core.entry((self.model.name, self._split_key, bucket),
                               lambda: self._graph(bucket))

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def max_batch(self) -> int:
        """Largest servable batch (images), discovered on first use.

        Buckets are powers of two, so the dyadic grid the search walks is
        exactly the set of batches the engine can execute.  The search
        probes outside the plan cache: behind ``Server`` every cache
        lookup belongs to an executed batch.
        """
        if not self._planned_peaks:
            self._planned_peaks = dyadic_search(
                lambda b: self.core.probe(*self._graph(b)).device_peak,
                self.memory_budget, self.device, cap=self.batch_cap,
                what=f"{self.model.name}: even a single-image inference plan")
        return max(self._planned_peaks)

    def planned_peak(self, batch: int) -> int:
        """Planned device peak (bytes) of the bucket covering ``batch``:
        the capacity search's own measurement, so sizing a reservation
        costs no plan-cache lookup and no second plan."""
        bucket = self.bucket(batch)         # may run the search first
        return self._planned_peaks[bucket]

    def bucket(self, batch: int) -> int:
        """Smallest power-of-two bucket covering ``batch`` images."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if batch > self.max_batch:
            raise ValueError(
                f"batch of {batch} images exceeds the discovered maximum "
                f"of {self.max_batch} for {self.model.name}"
            )
        return dyadic_bucket(batch)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, requests: List[Request]) -> float:
        """Serve one batch; returns the simulated latency in seconds.

        The batch runs at its bucket size (padding images are generated,
        executed and discarded).  With ``numeric`` enabled the logits of
        each request's images are retained until the next ``execute``
        call and can be read back via :meth:`logits_for`.
        """
        if not requests:
            raise ValueError("execute needs at least one request")
        images = sum(r.size for r in requests)
        entry = self.entry_for(images)
        self.executed_batches += 1
        self.executed_images += images
        self.padded_images += entry.batch - images
        if entry.executor is not None:
            self._run_numeric(entry, requests, images)
        return entry.latency

    def _run_numeric(self, entry: PlannedEntry, requests: List[Request],
                     images: int) -> None:
        input_tensor = next(t for t in entry.graph.tensors.values()
                            if t.kind == "input")
        batch_input = self._rng.standard_normal(input_tensor.shape)
        logits = entry.executor.run(
            batch_input.astype(entry.executor.width, copy=False))["logits"]
        self._logits.clear()
        offset = 0
        for request in requests:
            # Copy, don't slice: a view would pin the whole padded
            # bucket-sized logits buffer alive until the next batch.
            self._logits[request.id] = \
                logits[offset:offset + request.size].copy()
            offset += request.size
        entry.executor.release_intermediates()

    def logits_for(self, request: Request) -> np.ndarray:
        """Logits of ``request`` from the most recent numeric batch."""
        return self._logits[request.id]

    # ------------------------------------------------------------------
    @property
    def replans(self) -> int:
        """Number of times the engine had to plan (cache misses)."""
        return self.cache.misses
