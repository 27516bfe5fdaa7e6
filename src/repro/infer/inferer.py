"""Streaming patch inference under a bounded HMMS memory plan.

:class:`PatchInferer` plans, verifies and caches one forward graph per
:class:`~repro.infer.splitter.PatchVariant` × patch-batch bucket — through
the same :class:`~repro.planned.PlanCore` a
:class:`~repro.serve.engine.ServingEngine` uses for its buckets — then
streams an arbitrarily large input through those graphs tile by tile,
never holding more than one patch batch of activations.  The input
itself only ever lives on the host; the device footprint is the planned
peak of the largest variant graph — which is how an image ≥ 4× larger
than anything the device could serve in one pass still runs under a
16 GiB (or much smaller) budget.

The patch batch is discovered, not configured
(:func:`~repro.planned.dyadic_search`, the search the engine uses for
classification batches): double the patches per execution until the
planned peak exceeds the memory budget — or no variant of the grid has
that many tiles — and keep the last size that fit.  Unlike the engine's,
the inferer's searches probe *through* the plan cache — every probed
plan is one the stream then executes or the bench reports, and
``plans_verified == cache.misses`` counts them once.

A variant whose tiles do not fill the patch batch runs its short last
chunk on the smallest dyadic bucket that holds it — an entry the search
already planned — so an image costs the patches it has, not the largest
batch the device could take (``docs/patch_inference.md``).

The join depth is discovered too (the paper splits only "the first
``d`` fraction" of the layers, §3): tiles run ``layers[:depth]`` for the
shallowest :func:`~repro.infer.splitter.join_candidates` depth whose
unsplit tail — ``layers[depth:]`` over the whole join plane, once per
image — plans inside the budget, and are merged on the host, where the
input already lives; when no tail fits they run the full body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..hmms import PlanCache
from ..nn import Conv2d, Module
from ..planned import PlanCore, PlannedEntry, dyadic_bucket, dyadic_search
from ..profile.device import DeviceSpec, P100_NVLINK
from .graph import build_dense_graph, build_patch_graph
from .merger import BlendMerger
from .splitter import (
    GridSplitter, PatchPlan, PatchSpec, PatchVariant, flatten_dense_body,
    join_candidates,
)

__all__ = ["DenseReport", "PatchInferer"]

#: Upper bound of the patch-batch search: past 64 patches per execution
#: a grid has run out of same-variant tiles to batch.
PATCH_BATCH_CAP = 64

Variants = Dict[PatchVariant, List[PatchSpec]]


# One (input size, grid, overlap), decided: the tiling of layers[:depth],
# its variants, the patch batch, the entry of layers[depth:] (None at full
# depth) and the full body's output plane.
_DensePlan = Tuple[PatchPlan, Variants, int, Optional[PlannedEntry],
                   Tuple[int, int]]


@dataclass
class DenseReport:
    """What serving one dense input costs under the bounded plan.

    The first ``join_depth`` layers run tiled, the rest once per image,
    unsplit, on the merged join plane: ``executions``, ``peak_bytes`` and
    ``latency`` count that tail execution too; the patch fields do not.
    """

    in_hw: Tuple[int, int]
    out_hw: Tuple[int, int]
    grid: Tuple[int, int]
    overlap: int
    patches: int
    variants: int
    patch_batch: int                   # patches per full execution
    executions: int
    padded_patches: int                # zero slots of short last chunks
    peak_bytes: int                    # max planned device peak, entries run
    latency: float                     # simulated seconds, entries run
    join_depth: int                    # layers run tiled


class PatchInferer:
    """Plans, verifies, caches and streams per-tile forward graphs.

    Parameters
    ----------
    model: dense model (a ConvClassifier's ``features`` prefix is used;
        the input channel count is its first ``Conv2d``'s).
    device, numeric, compile_plans, cache: the inferer's
        :class:`~repro.planned.PlanCore` (documented there); without
        ``numeric`` only ``plan_dense`` costs inputs, symbolically.  (A
        serving engine's dense inferer shares the engine's whole core.)
    memory_budget: device bytes a plan the stream runs (a patch batch,
        the unsplit tail) may use.  Defaults to the whole device; a fleet
        replica hands the inferer its share.
    patch_batch: fixed patches per full execution; ``None`` discovers
        the largest dyadic size whose plan fits the budget and some
        variant of the grid can fill.
    """

    def __init__(
        self,
        model: Module,
        device: DeviceSpec = P100_NVLINK,
        numeric: bool = True,
        compile_plans: bool = False,
        memory_budget: Optional[int] = None,
        patch_batch: Optional[int] = None,
        cache: Optional[PlanCache] = None,
    ) -> None:
        if patch_batch is not None and patch_batch < 1:
            raise ValueError(f"patch_batch must be >= 1, got {patch_batch}")
        core = PlanCore(device, numeric=numeric,
                        compile_plans=compile_plans, cache=cache)
        self._attach(core, model, core.budget(memory_budget), patch_batch)

    @classmethod
    def _on(cls, core: PlanCore, model: Module,
            memory_budget: int) -> "PatchInferer":
        """Internal: the dense inferer of a serving engine, on the
        engine's own core (cache, planner, pipeline, verified counter)."""
        inferer = cls.__new__(cls)
        inferer._attach(core, model, memory_budget, None)
        return inferer

    def _attach(self, core: PlanCore, model: Module, memory_budget: int,
                patch_batch: Optional[int]) -> None:
        self.core = core
        # The core's objects under the names callers (and tracers) know.
        self.device = core.device
        self.cache, self.planner = core.cache, core.planner
        self.model = model
        self.layers = flatten_dense_body(model)   # validates leaf types
        convs = [layer for layer in self.layers if isinstance(layer, Conv2d)]
        if not convs:
            raise ValueError(
                "dense body has no Conv2d to read the input channels from")
        self.in_channels = convs[0].in_channels
        self.memory_budget = memory_budget
        self.patch_batch = patch_batch
        self.executed_patches = 0
        self.padded_patches = 0
        self._name = getattr(model, "name", type(model).__name__)

    @property
    def plans_verified(self) -> int:
        return self.core.plans_verified

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def entry_for(self, variant: PatchVariant, batch: int) -> PlannedEntry:
        """Cached plan for one tile variant at one patch-batch size (the
        variant's paddings say how deep its graph runs)."""
        return self.core.entry(
            (self._name, "dense-patch", variant, batch),
            lambda: build_patch_graph(self.model, self.layers, variant,
                                      batch, self.in_channels))

    def _suffix_entry(self, depth: int, plane_hw: Tuple[int, int],
                      batch: int = 1) -> PlannedEntry:
        """Cached plan for ``layers[depth:]`` unsplit over a whole
        ``plane_hw`` plane (the output of ``layers[:depth]``)."""
        convs = [layer for layer in self.layers[:depth]
                 if isinstance(layer, Conv2d)]
        channels = convs[-1].out_channels if convs else self.in_channels
        return self.core.entry(
            (self._name, "dense-suffix", tuple(plane_hw), batch, depth),
            lambda: build_dense_graph(self.model, self.layers[depth:],
                                      batch, plane_hw, channels))

    def unsplit_entry(self, in_hw: Tuple[int, int],
                      batch: int = 1) -> PlannedEntry:
        """Cached plan for the unsplit full-input dense graph.

        The plan is *not* required to fit the budget — for large inputs
        it deliberately does not, which is the point of comparison; its
        peak is what the patch path is measured against.
        """
        return self._suffix_entry(0, in_hw, batch)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def _variant_peak(self, variants: List[PatchVariant],
                      batch: int) -> int:
        return max(self.entry_for(v, batch).plan.device_peak
                   for v in variants)

    def max_patch_batch(self, variants: List[PatchVariant],
                        most_tiles: int = PATCH_BATCH_CAP) -> int:
        """Largest dyadic patches-per-execution fitting the budget.

        ``most_tiles``: the most tiles any one variant owns — no
        execution fills a larger bucket, so the search stops there.
        """
        if self.patch_batch is not None:
            peak = self._variant_peak(variants, self.patch_batch)
            if peak > self.memory_budget:
                raise ValueError(
                    f"{self._name}: configured patch_batch "
                    f"{self.patch_batch} needs {peak} bytes at join_depth "
                    f"{len(variants[0].layer_paddings)}, over the "
                    f"{self.memory_budget}-byte budget")
            return self.patch_batch
        return max(dyadic_search(
            lambda batch: self._variant_peak(variants, batch),
            self.memory_budget, self.device,
            cap=min(PATCH_BATCH_CAP, dyadic_bucket(most_tiles)),
            what=f"{self._name}: even a single-patch plan",
            hint="; use a finer grid"))

    def max_single_pass_side(self, budget: Optional[int] = None,
                             start: int = 32, cap: int = 1 << 14) -> int:
        """Largest dyadic square side servable unsplit within ``budget``.

        Defaults to the *device* capacity (not the inferer's budget):
        this is the patch-bench baseline — "the largest single-pass
        input that fits the modelled device".  Sides too small for the
        body's windows are skipped.
        """
        return max(dyadic_search(
            lambda side: self.unsplit_entry((side, side)).plan.device_peak,
            self.core.budget(budget), self.device, cap=cap, start=start,
            what=f"{self._name}: every unsplit pass of side >= {start}"))

    # ------------------------------------------------------------------
    # Planning / execution
    # ------------------------------------------------------------------
    def _dense_plan(self, in_hw: Tuple[int, int], grid: Tuple[int, int],
                    overlap: int) -> _DensePlan:
        """What ``plan_dense``, ``infer`` and the config linter all read.

        First fit over the join candidates, shallowest first, probing
        through the cache: tiles stop at the first depth whose tail fits
        the budget (the full body has none and closes the walk); then
        the patch batch, over the variants of that head.
        """
        candidates = join_candidates(self.layers, in_hw)
        for depth, plane_hw in candidates:
            tail = self._suffix_entry(depth, plane_hw) \
                if depth < len(self.layers) else None
            if tail is None or tail.plan.device_peak <= self.memory_budget:
                break
        tiles = GridSplitter(grid, overlap).plan(self.model, in_hw, depth)
        variants = tiles.variants()
        patch_batch = self.max_patch_batch(
            list(variants), max(len(group) for group in variants.values()))
        return tiles, variants, patch_batch, tail, candidates[-1][1]

    def _executions(self, variants: Variants, patch_batch: int,
                    ) -> Iterator[Tuple[List[PatchSpec], PlannedEntry]]:
        """Every tiled execution of one image: its tiles and the entry
        they run on.  Full chunks run at ``patch_batch``; a variant's
        short last chunk at the smallest dyadic bucket holding it, which
        the patch-batch search planned on its way up."""
        for variant, tiles in variants.items():
            for lo in range(0, len(tiles), patch_batch):
                chunk = tiles[lo:lo + patch_batch]
                yield chunk, self.entry_for(
                    variant, min(patch_batch, dyadic_bucket(len(chunk))))

    def plan_dense(self, in_hw: Tuple[int, int], grid: Tuple[int, int],
                   overlap: int = 0) -> DenseReport:
        """Cost one dense input symbolically: no numerics, plans only."""
        tiles, variants, patch_batch, tail, out_hw = \
            self._dense_plan(in_hw, grid, overlap)
        entries = [entry
                   for _, entry in self._executions(variants, patch_batch)]
        padded = sum(entry.batch for entry in entries) - tiles.num_patches
        if tail is not None:
            entries.append(tail)
        return DenseReport(
            in_hw=tiles.in_hw, out_hw=out_hw, grid=tiles.grid,
            overlap=tiles.overlap, patches=tiles.num_patches,
            variants=len(variants), patch_batch=patch_batch,
            executions=len(entries), padded_patches=padded,
            peak_bytes=max(entry.plan.device_peak for entry in entries),
            latency=sum(entry.latency for entry in entries),
            join_depth=tiles.depth)

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

        Peak activation memory is one patch batch of one variant or the
        unsplit tail — the bounded plan — regardless of the input size.
        ``overlap`` and ``merge`` act where the tiles join: on the
        discovered depth's output plane, merged on the host.
        """
        if not self.core.numeric:
            raise ValueError("infer() needs numeric=True; use plan_dense "
                             "for symbolic costing")
        x = self._check_input(x)
        tiles, variants, patch_batch, tail, _ = self._dense_plan(
            (x.shape[2], x.shape[3]), grid, overlap)
        merger = merge if isinstance(merge, BlendMerger) \
            else BlendMerger(merge)
        merged: List[np.ndarray] = []
        for image in x:
            outputs: Dict[Tuple[int, int], np.ndarray] = {}
            for chunk, entry in self._executions(variants, patch_batch):
                stacked = np.zeros(
                    (entry.batch, self.in_channels) + chunk[0].in_shape,
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
            joined = merger.merge(tiles, outputs)
            if tail is not None:
                joined = tail.executor.run(
                    joined[np.newaxis])["logits"][0].copy()
                tail.executor.release_intermediates()
            merged.append(joined)
        return np.stack(merged)

    def run_unsplit(self, x: np.ndarray) -> np.ndarray:
        """Full-input single-pass reference — the identity-test oracle."""
        if not self.core.numeric:
            raise ValueError("run_unsplit() needs numeric=True")
        x = self._check_input(x)
        entry = self.unsplit_entry((x.shape[2], x.shape[3]), x.shape[0])
        logits = entry.executor.run(x)["logits"].copy()
        entry.executor.release_intermediates()
        return logits
