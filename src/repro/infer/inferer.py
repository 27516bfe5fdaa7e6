"""Streaming patch inference under a bounded HMMS memory plan.

:class:`PatchInferer` is the dense-workload twin of
:class:`~repro.serve.engine.ServingEngine`: it plans, verifies and caches
one forward graph per :class:`~repro.infer.splitter.PatchVariant` ×
patch-batch bucket, then streams an arbitrarily large input through those
graphs tile by tile, never holding more than one patch batch of
activations.  The input itself only ever lives on the host; the device
footprint is the planned peak of the largest variant graph — which is
how an image ≥ 4× larger than anything the device could serve in one
pass still runs under a 16 GiB (or much smaller) budget.

The patch batch is discovered, not configured (same Figure-10 dyadic
search the engine uses for classification batches): double the patches
per execution until the planned peak exceeds the memory budget, keep
the last size that fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..compile import default_pipeline
from ..graph import GraphExecutor
from ..graph.ir import Graph
from ..hmms import HMMSPlanner, MemoryPlan, PlanCache, verify_plan
from ..nn import Module
from ..profile.device import DeviceSpec, P100_NVLINK
from .graph import build_dense_graph, build_patch_graph
from .merger import BlendMerger
from .splitter import GridSplitter, PatchPlan, PatchVariant, flatten_dense_body

__all__ = ["DenseEntry", "DenseReport", "PatchInferer"]


@dataclass
class DenseEntry:
    """One cached (variant, patch-batch) plan — mirrors CachedBatchPlan."""

    batch: int
    graph: Graph
    plan: MemoryPlan
    latency: float                     # simulated seconds per execution
    params: Dict[str, np.ndarray]
    executor: Optional[GraphExecutor] = None


@dataclass
class DenseReport:
    """What serving one dense input costs under the bounded plan."""

    in_hw: Tuple[int, int]
    out_hw: Tuple[int, int]
    grid: Tuple[int, int]
    overlap: int
    patches: int
    variants: int
    patch_batch: int
    executions: int
    peak_bytes: int                    # max planned device peak, any variant
    latency: float                     # simulated seconds, whole input


class PatchInferer:
    """Plans, verifies, caches and streams per-tile forward graphs.

    Parameters
    ----------
    model: dense model (a ConvClassifier's ``features`` prefix is used).
    device: device spec pricing kernels and bounding the plan search.
    scheduler: HMMS scheduler for the forward-only plans (``'none'`` —
        nothing to hide offloads behind in inference, as in the engine).
    memory_budget: device bytes a patch-batch plan may use.  Defaults to
        the whole device; a fleet replica hands the inferer its share.
    patch_batch: fixed patches per execution; ``None`` discovers the
        largest dyadic size whose plan fits the budget.
    cache: a shared :class:`PlanCache` (pass the serving engine's to
        co-tenant classification and dense plans); private by default.
    """

    def __init__(
        self,
        model: Module,
        device: DeviceSpec = P100_NVLINK,
        scheduler: str = "none",
        verify_plans: bool = True,
        numeric: bool = True,
        workers: int = 1,
        compile_plans: bool = False,
        memory_budget: Optional[int] = None,
        patch_batch: Optional[int] = None,
        patch_batch_cap: int = 64,
        in_channels: int = 3,
        cache: Optional[PlanCache] = None,
        cache_capacity: int = 64,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if memory_budget is not None and memory_budget < 1:
            raise ValueError(
                f"memory_budget must be >= 1 byte, got {memory_budget}")
        if patch_batch is not None and patch_batch < 1:
            raise ValueError(f"patch_batch must be >= 1, got {patch_batch}")
        if patch_batch_cap < 1:
            raise ValueError(
                f"patch_batch_cap must be >= 1, got {patch_batch_cap}")
        self.model = model
        self.layers = flatten_dense_body(model)   # validates leaf types
        self.device = device
        self.scheduler = scheduler
        self.planner = HMMSPlanner(device=device, scheduler=scheduler)
        self.verify_plans = verify_plans
        self.numeric = numeric
        self.workers = workers
        self.compile_plans = compile_plans
        self._pipeline = default_pipeline() if compile_plans else None
        self.memory_budget = device.memory_capacity \
            if memory_budget is None else memory_budget
        self.patch_batch = patch_batch
        self.patch_batch_cap = patch_batch_cap
        self.in_channels = in_channels
        self.cache = cache if cache is not None \
            else PlanCache(capacity=cache_capacity)
        self.plans_verified = 0
        self.executed_patches = 0
        self.padded_patches = 0
        self._name = getattr(model, "name", type(model).__name__)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    @property
    def pipeline_fingerprint(self) -> str:
        if self._pipeline is None:
            return "interpreter"
        return self._pipeline.fingerprint

    def _finish_graph(self, graph: Graph,
                      params: Dict[str, np.ndarray]) -> None:
        if self._pipeline is not None:
            self._pipeline.run(graph, params=params)

    def _build_entry(self, graph: Graph,
                     params: Dict[str, np.ndarray]) -> DenseEntry:
        self._finish_graph(graph, params)
        plan = self.planner.plan(graph)
        if self.verify_plans:
            verify_plan(plan, device=self.device,
                        cost_model=self.planner.cost_model).raise_if_failed()
            self.plans_verified += 1
        latency = self.planner.cost_model.inference_latency(graph)
        executor: Optional[GraphExecutor] = None
        if self.numeric:
            executor = GraphExecutor(graph, params, workers=self.workers)
        batch = next(t for t in graph.tensors.values()
                     if t.kind == "input").shape[0]
        return DenseEntry(batch=batch, graph=graph, plan=plan,
                          latency=latency, params=params, executor=executor)

    def entry_for(self, variant: PatchVariant, batch: int) -> DenseEntry:
        """Cached plan for one tile variant at one patch-batch size."""
        key = (self._name, "dense-patch", variant, batch,
               self.pipeline_fingerprint)
        return self.cache.get_or_build(key, lambda: self._build_entry(
            *build_patch_graph(self.model, self.layers, variant, batch,
                               self.in_channels)))

    def unsplit_entry(self, in_hw: Tuple[int, int],
                      batch: int = 1) -> DenseEntry:
        """Cached plan for the unsplit full-input dense graph.

        The plan is *not* required to fit the budget — for large inputs
        it deliberately does not, which is the point of comparison; its
        peak is what the patch path is measured against.
        """
        key = (self._name, "dense-full", tuple(in_hw), batch,
               self.pipeline_fingerprint)
        return self.cache.get_or_build(key, lambda: self._build_entry(
            *build_dense_graph(self.model, self.layers, batch, in_hw,
                               self.in_channels)))

    # ------------------------------------------------------------------
    # Patch-batch capacity
    # ------------------------------------------------------------------
    def _variant_peak(self, variants: List[PatchVariant],
                      batch: int) -> int:
        return max(self.entry_for(v, batch).plan.device_peak
                   for v in variants)

    def max_patch_batch(self, variants: List[PatchVariant]) -> int:
        """Largest dyadic patches-per-execution fitting the budget."""
        if self.patch_batch is not None:
            peak = self._variant_peak(variants, self.patch_batch)
            if peak > self.memory_budget:
                raise ValueError(
                    f"{self._name}: configured patch_batch "
                    f"{self.patch_batch} needs {peak} bytes, over the "
                    f"{self.memory_budget}-byte budget")
            return self.patch_batch
        fitting: Optional[int] = None
        batch = 1
        while batch <= self.patch_batch_cap:
            if self._variant_peak(variants, batch) > self.memory_budget:
                break
            fitting = batch
            batch *= 2
        if fitting is None:
            raise ValueError(
                f"{self._name}: even a single-patch plan exceeds the "
                f"memory budget ({self.memory_budget} bytes of "
                f"{self.device.memory_capacity} device bytes); use a "
                f"finer grid")
        return fitting

    def max_single_pass_side(self, budget: Optional[int] = None,
                             start: int = 32, cap: int = 1 << 14) -> int:
        """Largest dyadic square side servable unsplit within ``budget``.

        Defaults to the *device* capacity (not the inferer's budget):
        this is the patch-bench baseline — "the largest single-pass
        input that fits the modelled device".
        """
        budget = self.device.memory_capacity if budget is None else budget
        fitting: Optional[int] = None
        side = start
        while side <= cap:
            try:
                entry = self.unsplit_entry((side, side), 1)
            except ValueError:
                # Window does not fit an input this small; keep growing.
                side *= 2
                continue
            if entry.plan.device_peak > budget:
                break
            fitting = side
            side *= 2
        if fitting is None:
            raise ValueError(
                f"{self._name}: no dyadic side in [{start}, {cap}] fits "
                f"{budget} bytes unsplit")
        return fitting

    # ------------------------------------------------------------------
    # Planning / execution
    # ------------------------------------------------------------------
    def plan_dense(self, in_hw: Tuple[int, int], grid: Tuple[int, int],
                   overlap: int = 0) -> DenseReport:
        """Cost one dense input symbolically: no numerics, plans only."""
        plan = GridSplitter(grid, overlap).plan(self.model, in_hw)
        variants = plan.variants()
        patch_batch = self.max_patch_batch(list(variants))
        executions = 0
        latency = 0.0
        peak = 0
        for variant, tiles in variants.items():
            entry = self.entry_for(variant, patch_batch)
            runs = -(-len(tiles) // patch_batch)
            executions += runs
            latency += runs * entry.latency
            peak = max(peak, entry.plan.device_peak)
        return DenseReport(
            in_hw=plan.in_hw, out_hw=plan.out_hw, grid=plan.grid,
            overlap=plan.overlap, patches=plan.num_patches,
            variants=len(variants), patch_batch=patch_batch,
            executions=executions, peak_bytes=peak, latency=latency)

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 3:
            x = x[np.newaxis]
        if x.ndim != 4:
            raise ValueError(
                f"dense input must be (C, H, W) or (N, C, H, W), "
                f"got shape {x.shape}")
        if x.dtype != np.float64:
            raise TypeError(
                f"dense input dtype {x.dtype} != executor input dtype "
                f"float64 (the executor rejects silent upcasts)")
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"dense input has {x.shape[1]} channels, inferer expects "
                f"{self.in_channels}")
        return x

    def infer(self, x: np.ndarray, grid: Tuple[int, int] = (2, 2),
              overlap: int = 0,
              merge: Union[str, BlendMerger] = "valid") -> np.ndarray:
        """Stream ``x`` through per-tile graphs; returns ``(N, C, H, W)``.

        Peak activation memory is one patch batch of one variant — the
        bounded plan — regardless of the input size.
        """
        if not self.numeric:
            raise ValueError("infer() needs numeric=True; use plan_dense "
                             "for symbolic costing")
        x = self._check_input(x)
        plan = GridSplitter(grid, overlap).plan(
            self.model, (x.shape[2], x.shape[3]))
        variants = plan.variants()
        patch_batch = self.max_patch_batch(list(variants))
        merger = merge if isinstance(merge, BlendMerger) \
            else BlendMerger(merge)
        merged: List[np.ndarray] = []
        for image in x:
            outputs: Dict[Tuple[int, int], np.ndarray] = {}
            for variant, tiles in variants.items():
                entry = self.entry_for(variant, patch_batch)
                for lo in range(0, len(tiles), patch_batch):
                    chunk = tiles[lo:lo + patch_batch]
                    stacked = np.zeros(
                        (entry.batch, self.in_channels) + variant.in_shape,
                        dtype=np.float64)
                    for k, tile in enumerate(chunk):
                        stacked[k] = tile.extract(image)
                    logits = entry.executor.run(stacked)["logits"]
                    for k, tile in enumerate(chunk):
                        # Copy, don't slice: a view pins the whole
                        # patch-batch buffer until the merge.
                        outputs[tile.index] = logits[k].copy()
                    entry.executor.release_intermediates()
                    self.executed_patches += len(chunk)
                    self.padded_patches += entry.batch - len(chunk)
            merged.append(merger.merge(plan, outputs))
        return np.stack(merged)

    def run_unsplit(self, x: np.ndarray) -> np.ndarray:
        """Full-input single-pass reference — the identity-test oracle."""
        if not self.numeric:
            raise ValueError("run_unsplit() needs numeric=True")
        x = self._check_input(x)
        entry = self.unsplit_entry((x.shape[2], x.shape[3]), x.shape[0])
        logits = entry.executor.run(x)["logits"].copy()
        entry.executor.release_intermediates()
        return logits
