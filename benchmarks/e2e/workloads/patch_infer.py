"""``patch_infer``: stream a 256x256 image through ``small_vgg`` as a 4x4
grid of overlapping patches under a 16 MiB device budget (the unsplit
plan needs 45 MiB), compiled plans, numeric.

Inference, many small kernel calls, nine cached patch variants: a gain
for big-batch training kernels that costs many-small-call inference shows
here and not on the ``train_*`` workloads.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.infer import BlendMerger, GridSplitter, PatchInferer
from repro.models import small_vgg

from harness import MIB, Workload, timed
from spans import SETUP
from workloads.kernels import TYPES, measure_kernels

SIDE = 256
GRID = (4, 4)
OVERLAP = 1
BUDGET = 16 << 20
IMAGES = 4


def digest(array: np.ndarray) -> str:
    return hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest()


class PatchInfer(Workload):
    name = "patch_infer"

    def setup(self) -> None:
        tracer = self.tracer
        rng = np.random.default_rng(self.seed)
        self.model = small_vgg(rng=rng)
        self.images = [rng.standard_normal((1, 3, SIDE, SIDE))
                       for _ in range(IMAGES)]
        self.inferer = PatchInferer(self.model, memory_budget=BUDGET,
                                    compile_plans=True)
        tracer.wrap(self.inferer.cache, "get_or_build", "hmms.plancache",
                    "hmms.plancache.get_or_build")
        tracer.wrap(self.inferer.planner, "plan", "hmms.planner",
                    "hmms.planner.plan")
        self.merger = BlendMerger("valid")
        tracer.wrap(self.merger, "merge", "infer.merger",
                    "infer.merger.merge")
        # Capacity discovery: plans every variant at each dyadic patch
        # batch until one exceeds the budget, and leaves the cache warm.
        with tracer.span("infer.inferer.plan_dense", "infer.inferer"):
            self.report = self.inferer.plan_dense((SIDE, SIDE), GRID, OVERLAP)
        self.sim = (1.0 / self.report.latency, self.report.peak_bytes / MIB)
        self.patch_plan = GridSplitter(GRID, OVERLAP).plan(self.model,
                                                           (SIDE, SIDE))
        for variant in self.patch_plan.variants():
            entry = self.inferer.entry_for(variant, self.report.patch_batch)
            tracer.wrap(entry.executor, "run", "compile.plan",
                        "compile.plan.run")

    def op(self, index: int, prepared: Any) -> np.ndarray:
        with self.tracer.span("infer.inferer.infer", "infer.inferer"):
            return self.inferer.infer(self.images[index % IMAGES], grid=GRID,
                                      overlap=OVERLAP, merge=self.merger)

    def token(self, index: int, prepared: Any, out: np.ndarray) -> str:
        return digest(out)

    def verify(self, tokens: List[Tuple[int, Any]]) -> List[int]:
        self.inferer.run_unsplit(self.images[0])              # warm-up
        references, unsplit_ms = timed(lambda: [
            digest(self.inferer.run_unsplit(image)) for image in self.images])
        self.unsplit_ms = unsplit_ms / IMAGES
        return [index for index, token in tokens
                if token != references[index % IMAGES]]

    def layers(self, last_out: Any, op_ms_p50: float) -> Dict[str, float]:
        tracer = self.tracer
        report = self.report
        ops = tracer.count("bench.op")
        _, splitter_ms = timed(lambda: GridSplitter(GRID, OVERLAP).plan(
            self.model, (SIDE, SIDE)))

        kernel_ms = dict.fromkeys(TYPES + ("other",), 0.0)
        kernel_calls = 0
        for variant, tiles in self.patch_plan.variants().items():
            entry = self.inferer.entry_for(variant, report.patch_batch)
            runs = -(-len(tiles) // report.patch_batch)
            x = np.zeros((entry.batch, 3) + variant.in_shape)
            by_type, _ = measure_kernels(entry.graph, entry.params, x)
            for op_type, ms in by_type.items():
                kernel_ms[op_type] += runs * ms
            kernel_calls += runs * len(entry.graph.ops)

        # A miss is a lookup that had to plan.  Per op, like every count.
        misses = tracer.count("hmms.planner.plan") / ops
        hits = tracer.count("hmms.plancache.get_or_build") / ops - misses
        halo_px = sum(t.in_shape[0] * t.in_shape[1]
                      for t in self.patch_plan.tiles)
        layers = {
            "hmms.planner.plan_ms":
                tracer.total_ms("hmms.planner.plan", SETUP),
            "hmms.plancache.hits": hits,
            "hmms.plancache.misses": misses,
            "hmms.plancache.evictions": float(self.inferer.cache.evictions),
            "hmms.plancache.hit_ratio": hits / (hits + misses),
            "infer.executor_ms":
                tracer.total_ms("compile.plan.run") / ops,
            "infer.splitter.plan_ms": splitter_ms,
            "infer.inferer.plan_dense_ms":
                tracer.total_ms("infer.inferer.plan_dense", SETUP),
            "infer.inferer.infer_ms": op_ms_p50,
            "infer.inferer.unsplit_ms": self.unsplit_ms,
            "infer.overhead_ratio": op_ms_p50 / self.unsplit_ms,
            "infer.merger.merge_ms":
                tracer.total_ms("infer.merger.merge") / ops,
            "infer.patches": float(report.patches),
            "infer.variants": float(report.variants),
            "infer.executions": float(report.executions),
            "infer.padded_patches":
                float(report.executions * report.patch_batch
                      - report.patches),
            "infer.halo_recompute_ratio": halo_px / float(SIDE * SIDE),
            "graph.registry.kernel_calls": float(kernel_calls),
            "graph.registry.kernel_ms.other": kernel_ms["other"],
        }
        for op_type in TYPES:
            layers[f"graph.registry.kernel_ms.{op_type}"] = kernel_ms[op_type]
        return layers
