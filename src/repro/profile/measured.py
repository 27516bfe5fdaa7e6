"""Measured (executed) per-op profiling — the paper's §4.3 methodology.

The paper obtains layer times by executing each operation 20 times and
averaging.  :class:`MeasuredCostModel` does exactly that on the numeric
:class:`~repro.graph.executor.GraphExecutor`: every op of the graph is
run ``repetitions`` times on this machine and the mean wall time is used
wherever the analytical roofline estimate would be.

This is only meaningful for graphs small enough to execute in numpy (the
miniature models); ImageNet-scale planning keeps the analytical model.
The planner accepts either interchangeably — both are ``CostModel``s.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..graph.executor import GraphExecutor
from ..graph.ir import Graph, OpNode
from .cost import CostModel, OpCost
from .device import DeviceSpec, P100_NVLINK

__all__ = ["MeasuredCostModel", "DEFAULT_REPETITIONS"]

DEFAULT_REPETITIONS = 20


class MeasuredCostModel(CostModel):
    """Cost model backed by actual timed execution of the graph's ops.

    Parameters
    ----------
    graph: the training graph to profile.
    parameters: parameter arrays (see
        :meth:`GraphExecutor.parameters_from_model`).
    input_array / targets: one representative batch (cast to the graph's
        width, as every entry point casts its input).
    repetitions: timing repetitions per op (paper uses 20).
    device: still used for bandwidth figures (offload budgets) and for
        ops the executor cannot time.
    """

    def __init__(
        self,
        graph: Graph,
        parameters: Dict[str, np.ndarray],
        input_array: np.ndarray,
        targets: Optional[np.ndarray] = None,
        repetitions: int = DEFAULT_REPETITIONS,
        device: DeviceSpec = P100_NVLINK,
    ) -> None:
        super().__init__(device)
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        self.repetitions = repetitions
        self._measured: Dict[int, float] = {}
        self._measure(graph, parameters, input_array, targets)

    # ------------------------------------------------------------------
    def _measure(self, graph: Graph, parameters, input_array, targets) -> None:
        # One full run materializes every value (eager_free stays off —
        # the timing loop below re-reads all of them).
        executor = GraphExecutor(graph, parameters, eager_free=False)
        executor.run(np.asarray(input_array).astype(executor.width,
                                                    copy=False), targets)
        for op in graph.ops:
            # Execute once to warm caches, then time `repetitions`
            # re-executions, exactly as §4.3 describes.  Only times are
            # read: re-executing an accumulating op (grad_acc adds into
            # a dead input) is not idempotent, so values go stale here.
            executor.execute_op(op)
            started = time.perf_counter()
            for _ in range(self.repetitions):
                executor.execute_op(op)
            elapsed = time.perf_counter() - started
            self._measured[op.id] = elapsed / self.repetitions

    # ------------------------------------------------------------------
    def cost(self, graph: Graph, op: OpNode) -> OpCost:
        analytical = super().cost(graph, op)
        measured = self._measured.get(op.id)
        if measured is None:
            return analytical
        return OpCost(flops=analytical.flops,
                      bytes_moved=analytical.bytes_moved,
                      seconds=measured)

    @property
    def measured_seconds(self) -> Dict[int, float]:
        """The raw per-op measurements (op id -> mean seconds)."""
        return dict(self._measured)
