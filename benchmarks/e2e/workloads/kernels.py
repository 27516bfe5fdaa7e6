"""Registry-kernel time by op type, shared by the numeric workloads.

Kernels are timed the way the paper's §4.3 does and the way
``MeasuredCostModel`` already does: each op of the graph re-executed
through ``GraphExecutor.execute_op`` and averaged.  That works for a
compiled graph too (a ``CompiledPlan`` binds the same registry kernels
but offers no per-kernel seam), so both executors are split into kernel
time and bookkeeping by one method.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.ir import Graph
from repro.profile.measured import MeasuredCostModel

from harness import timed

REPETITIONS = 3
#: Whole measurements taken; each op keeps the median of its means, because
#: one pass on a shared box is off by a tenth and the executors'
#: bookkeeping, the remainder after this sum, is smaller than that.
PASSES = 3

#: The op types reported by name; everything else is summed as ``other``.
TYPES = ("conv2d", "conv2d_bwd_data", "conv2d_bwd_weight", "grad_acc",
         "maxpool2d", "maxpool2d_bwd", "relu", "relu_bwd")


def base_type(op_type: str) -> str:
    """Fold the compiler's fused names into the type doing the work."""
    name = op_type.removesuffix("_siblings")
    if name in ("conv2d_relu", "conv2d_bn", "conv2d_bn_relu"):
        name = "conv2d"
    return name if name in TYPES else "other"


def measure_kernels(graph: Graph, params: Dict[str, np.ndarray],
                    x: np.ndarray, y: Optional[np.ndarray] = None,
                    ) -> Tuple[Dict[str, float], float]:
    """({base type: summed kernel ms}, wall ms of the last measuring pass)."""
    passes = []
    for _ in range(PASSES):
        model, measure_ms = timed(lambda: MeasuredCostModel(
            graph, params, x, targets=y, repetitions=REPETITIONS))
        passes.append(model.measured_seconds)
    by_type = dict.fromkeys(TYPES + ("other",), 0.0)
    for op in graph.ops:
        by_type[base_type(op.op_type)] += statistics.median(
            measured[op.id] for measured in passes) * 1e3
    return by_type, measure_ms


def time_shares(ms_by_key: Dict[str, float]) -> Dict[str, float]:
    total = sum(ms_by_key.values())
    return {key: value / total for key, value in ms_by_key.items()}
