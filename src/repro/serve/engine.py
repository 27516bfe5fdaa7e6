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

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..compile import default_pipeline
from ..graph import GraphExecutor, build_inference_graph
from ..graph.ir import Graph
from ..hmms import HMMSPlanner, MemoryPlan, PlanCache, verify_plan
from ..models.base import ConvClassifier
from ..profile.device import DeviceSpec, P100_NVLINK
from .request import DenseRequest, Request

__all__ = ["CachedBatchPlan", "ServingEngine"]


@dataclass
class CachedBatchPlan:
    """Everything needed to serve one ``(model, split, batch)`` key."""

    batch: int
    graph: Graph
    plan: MemoryPlan
    latency: float                      # simulated seconds per batch
    executor: Optional[GraphExecutor] = None


class ServingEngine:
    """Plans, verifies, caches and executes forward-only batches.

    Parameters
    ----------
    model: the (possibly split-transformed) model to serve.
    device: device spec that prices kernels and bounds the batch search.
    scheduler: HMMS scheduler for inference plans; offloading has nothing
        to hide behind in a forward-only graph, so ``'none'`` is the
        default and ``'hmms'`` degenerates to it.
    verify_plans: run :func:`repro.hmms.verify.verify_plan` on every plan
        before it may serve traffic (raises on violations).
    numeric: also run each batch through the numeric graph executor —
        real logits, for tests and correctness spot-checks; simulated
        latency is charged either way.
    workers: thread count for the numeric executor's wavefront scheduler
        (bit-identical logits for any value; only matters with
        ``numeric``).
    batch_cap: upper bound for the capacity search (keeps discovery
        bounded for models far smaller than the device).
    compile_plans: run the graph compiler's default pipeline (chain +
        sibling fusion, constant folding) over every cached graph.
        Graphs are built with ``eval_batchnorm=True`` so running-stat
        normalization folds to per-channel affines, and the numeric
        executor runs the rewritten graph.  Cache keys gain the
        pipeline fingerprint, so compiled and interpreted entries for
        the same bucket never collide.
    """

    def __init__(
        self,
        model: ConvClassifier,
        device: DeviceSpec = P100_NVLINK,
        scheduler: str = "none",
        verify_plans: bool = True,
        numeric: bool = False,
        workers: int = 1,
        batch_cap: int = 4096,
        cache_capacity: int = 64,
        seed: int = 0,
        compile_plans: bool = False,
        memory_budget: Optional[int] = None,
    ) -> None:
        if batch_cap < 1:
            raise ValueError(f"batch_cap must be >= 1, got {batch_cap}")
        if memory_budget is not None and memory_budget < 1:
            raise ValueError(
                f"memory_budget must be >= 1 byte, got {memory_budget}")
        self.model = model
        self.device = device
        self.scheduler = scheduler
        self.planner = HMMSPlanner(device=device, scheduler=scheduler)
        self.verify_plans = verify_plans
        self.numeric = numeric
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.batch_cap = batch_cap
        #: Device bytes the capacity search may assume.  Defaults to the
        #: whole device; a fleet hosting several engines on one device
        #: hands each engine its share so co-resident tenants discover
        #: capacities that fit *together*.
        self.memory_budget = device.memory_capacity \
            if memory_budget is None else memory_budget
        self.compile_plans = compile_plans
        self._pipeline = default_pipeline() if compile_plans else None
        self.cache = PlanCache(capacity=cache_capacity)
        self.plans_verified = 0
        self.executed_batches = 0
        self.executed_images = 0
        self.padded_images = 0
        self._rng = np.random.default_rng(seed)
        self._split_key = str(getattr(model, "split_info", "unsplit"))
        self._max_batch: Optional[int] = None
        self._planned_peaks: Dict[int, int] = {}    # bucket -> device peak
        self._logits: Dict[int, np.ndarray] = {}
        self._dense_inferer = None      # built on first DenseRequest
        self._dense_verified_seen = 0
        self._dense_outputs: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_zoo(cls, name: str, split: int = 1, split_depth: float = 0.5,
                 **kwargs) -> "ServingEngine":
        """Engine for a zoo model, optionally split-transformed.

        ``split`` is the paper's total patch count (1, 2, 3, 4, 6 or 9);
        ``split_depth`` the fraction of conv layers split.  ImageNet-scale
        zoo models get their ImageNet heads, as in the CLI's ``plan``.
        """
        from ..core import to_split_cnn
        from ..experiments.accuracy import GRID_OF_SPLITS
        from ..models import build_model
        from ..nn import init

        if split not in GRID_OF_SPLITS:
            raise ValueError(
                f"split must be one of {sorted(GRID_OF_SPLITS)}, got {split}")
        model_kwargs = {}
        if name in ("alexnet", "vgg11", "vgg16", "vgg19",
                    "resnet18", "resnet34", "resnet50"):
            model_kwargs = {"dataset": "imagenet", "num_classes": 1000}
        with init.fast_init():
            model = build_model(name, **model_kwargs)
            if split > 1:
                model = to_split_cnn(model, depth=split_depth,
                                     num_splits=GRID_OF_SPLITS[split])
        return cls(model, **kwargs)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _build_graph(self, batch: int) -> Graph:
        """The graph the engine would serve for ``batch`` images.

        Single source of truth for graph construction: capacity discovery
        (:attr:`max_batch`) and plan building (:meth:`_build_entry`) both
        call it, so the batch the search says fits is the batch the
        engine actually executes — with ``compile_plans`` the compiled,
        BN-folded graph, not its uncompiled twin.
        """
        if self._pipeline is not None:
            graph = build_inference_graph(self.model, batch,
                                          eval_batchnorm=True)
            self._pipeline.run(
                graph, params=GraphExecutor.parameters_from_model(
                    graph, self.model))
            return graph
        return build_inference_graph(self.model, batch)

    def _build_entry(self, batch: int) -> CachedBatchPlan:
        graph = self._build_graph(batch)
        plan = self.planner.plan(graph)
        if self.verify_plans:
            verify_plan(plan, device=self.device,
                        cost_model=self.planner.cost_model).raise_if_failed()
            self.plans_verified += 1
        latency = self.planner.cost_model.inference_latency(graph)
        executor: Optional[GraphExecutor] = None
        if self.numeric:
            params = GraphExecutor.parameters_from_model(graph, self.model)
            executor = GraphExecutor(graph, params, workers=self.workers)
        return CachedBatchPlan(batch=batch, graph=graph, plan=plan,
                               latency=latency, executor=executor)

    @property
    def pipeline_fingerprint(self) -> str:
        """Compilation identity in the plan-cache key: the compile
        pipeline's fingerprint, or ``"interpreter"`` when not compiling."""
        if self._pipeline is None:
            return "interpreter"
        return self._pipeline.fingerprint

    def entry_for(self, batch: int) -> CachedBatchPlan:
        """Cached plan for the bucket that covers ``batch`` images."""
        bucket = self.bucket(batch)
        key = (self.model.name, self._split_key, bucket,
               self.pipeline_fingerprint)
        return self.cache.get_or_build(key,
                                       lambda: self._build_entry(bucket))

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def max_batch(self) -> int:
        """Largest servable batch (images), discovered on first use.

        Figure-10 search on the dyadic grid: double the batch until the
        planned device peak exceeds the device capacity, keep the last
        batch that fit.  Buckets are powers of two, so the dyadic grid is
        exactly the set of batches the engine can execute.
        """
        if self._max_batch is None:
            batch = 1
            while batch <= self.batch_cap:
                # Discovery must plan the *served* graph — the same
                # construction (compile pipeline, eval batchnorm) that
                # _build_entry uses — or the searched capacity belongs to
                # a different graph than the one that executes.
                plan = self.planner.plan(self._build_graph(batch))
                if not plan.fits(self.memory_budget):
                    break
                self._planned_peaks[batch] = plan.device_peak
                batch *= 2
            if not self._planned_peaks:
                raise ValueError(
                    f"{self.model.name}: even a single-image inference plan "
                    f"exceeds the memory budget "
                    f"({self.memory_budget} bytes of "
                    f"{self.device.memory_capacity} device bytes)"
                )
            self._max_batch = batch // 2
        return self._max_batch

    def planned_peak(self, batch: int) -> int:
        """Planned device peak (bytes) of the bucket covering ``batch``:
        the capacity search's own measurement, so sizing a reservation
        costs no plan-cache lookup and no second plan."""
        return self._planned_peaks[self.bucket(batch)]

    def bucket(self, batch: int) -> int:
        """Smallest power-of-two bucket covering ``batch`` images."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if batch > self.max_batch:
            raise ValueError(
                f"batch of {batch} images exceeds the discovered maximum "
                f"of {self.max_batch} for {self.model.name}"
            )
        bucket = 1
        while bucket < batch:
            bucket *= 2
        return bucket

    # ------------------------------------------------------------------
    # Dense (patch-inference) workloads
    # ------------------------------------------------------------------
    @property
    def dense_inferer(self):
        """The engine's :class:`~repro.infer.PatchInferer`, built lazily.

        Shares the engine's plan cache — classification buckets and
        per-tile variant plans co-tenant one cache, which is the ISSUE's
        "one engine mixes both workloads" requirement — plus its device,
        scheduler, memory budget and compile pipeline settings.
        """
        if self._dense_inferer is None:
            # Deferred import: repro.infer is only paid for by engines
            # that actually see dense traffic.
            from ..infer import PatchInferer
            self._dense_inferer = PatchInferer(
                self.model, device=self.device, scheduler=self.scheduler,
                verify_plans=self.verify_plans, numeric=self.numeric,
                workers=self.workers, compile_plans=self.compile_plans,
                memory_budget=self.memory_budget, cache=self.cache)
        return self._dense_inferer

    def _execute_dense(self, request: DenseRequest) -> float:
        """Stream one dense request; returns its simulated latency.

        Counter semantics mirror the classification path: the whole
        request is one engine batch, each patch is an image, and the
        zero-padded slots of the final partial patch batch per variant
        are padded images.  ``plans_verified`` absorbs the inferer's
        verifications by delta so the cache-consistency invariant
        (``plans_verified == cache misses``) keeps holding for mixed
        traffic.
        """
        inferer = self.dense_inferer
        report = inferer.plan_dense(request.image_hw, request.grid,
                                    request.overlap)
        self.executed_batches += 1
        self.executed_images += request.size
        self.padded_images += \
            report.executions * report.patch_batch - report.patches
        if self.numeric:
            image = self._rng.standard_normal(
                (1, inferer.in_channels) + tuple(request.image_hw))
            output = inferer.infer(image, grid=request.grid,
                                   overlap=request.overlap)
            self._dense_outputs.clear()
            self._dense_outputs[request.id] = output[0]
        self.plans_verified += \
            inferer.plans_verified - self._dense_verified_seen
        self._dense_verified_seen = inferer.plans_verified
        return report.latency

    def dense_output_for(self, request: DenseRequest) -> np.ndarray:
        """Merged dense feature map of the most recent dense request."""
        return self._dense_outputs[request.id]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, requests: List[Request]) -> float:
        """Serve one batch; returns the simulated latency in seconds.

        The batch runs at its bucket size (padding images are generated,
        executed and discarded).  With ``numeric`` enabled the logits of
        each request's images are retained until the next ``execute``
        call and can be read back via :meth:`logits_for`.

        A dense request routes to the streaming patch path and must
        arrive alone — the batcher dispatches dense requests as
        single-request batches.
        """
        if not requests:
            raise ValueError("execute needs at least one request")
        if any(isinstance(r, DenseRequest) for r in requests):
            if len(requests) != 1:
                raise ValueError(
                    "dense requests execute alone; got a batch of "
                    f"{len(requests)} requests containing a DenseRequest")
            return self._execute_dense(requests[0])
        images = sum(r.size for r in requests)
        entry = self.entry_for(images)
        self.executed_batches += 1
        self.executed_images += images
        self.padded_images += entry.batch - images
        if entry.executor is not None:
            self._run_numeric(entry, requests, images)
        return entry.latency

    def _run_numeric(self, entry: CachedBatchPlan, requests: List[Request],
                     images: int) -> None:
        input_tensor = next(t for t in entry.graph.tensors.values()
                            if t.kind == "input")
        batch_input = self._rng.standard_normal(input_tensor.shape)
        logits = entry.executor.run(batch_input)["logits"]
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
