"""Analytical per-op cost model (the paper's profiling stage, §4.3).

The paper profiles each layer by timing 20 repeated executions on the
P100.  With no GPU available, we substitute a roofline estimate:

    time(op) = kernel_overhead
             + max( flops(op)  / (peak_flops * efficiency(op)),
                    bytes(op)  / (mem_bandwidth * mem_efficiency) )

Memory-bound layers (pooling, batch-norm, elementwise) land on the
bandwidth roof, which is precisely the property driving the paper's
Figure 1: they run too fast to hide any host-device transfer behind.

The per-op (flops, bytes) rules and the efficiency class each op belongs
to live on its :class:`~repro.graph.registry.OpDef`; this module only
resolves the class against a :class:`DeviceSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..graph.ir import Graph, OpNode
from ..graph.registry import EFF_CONV, EFF_GEMM, op_def
from .device import DeviceSpec, P100_NVLINK

__all__ = ["OpCost", "CostModel"]


@dataclass(frozen=True)
class OpCost:
    """FLOPs, device-memory traffic and estimated duration of one op."""

    flops: float
    bytes_moved: float
    seconds: float


class CostModel:
    """Estimates op execution time from the graph and a device spec."""

    def __init__(self, device: DeviceSpec = P100_NVLINK) -> None:
        self.device = device

    # ------------------------------------------------------------------
    def profile(self, graph: Graph) -> Dict[int, OpCost]:
        """Cost of every op, keyed by op id (the 'profiled execution time')."""
        return {op.id: self.cost(graph, op) for op in graph.ops}

    def total_time(self, graph: Graph, phase: Optional[str] = None) -> float:
        return sum(
            self.cost(graph, op).seconds
            for op in graph.ops
            if phase is None or op.phase == phase
        )

    def inference_latency(self, graph: Graph) -> float:
        """Simulated forward latency of one serving batch, in seconds.

        This is what the serving runtime charges per executed batch: the
        sum of the forward ops' roofline times plus one launch overhead
        for the host-side dispatch of the batch.  The same device spec
        that prices training steps prices serving, so bench numbers are
        comparable with the Figure-8/10 simulator output.
        """
        return self.device.kernel_overhead + self.total_time(graph,
                                                             phase="forward")

    # ------------------------------------------------------------------
    def cost(self, graph: Graph, op: OpNode) -> OpCost:
        flops, bytes_moved, efficiency = self._characterize(graph, op)
        device = self.device
        compute_time = flops / (device.peak_flops * efficiency) if flops else 0.0
        memory_time = bytes_moved / (device.mem_bandwidth * device.mem_efficiency)
        seconds = device.kernel_overhead + max(compute_time, memory_time)
        if op_def(op.op_type).free:
            seconds = 0.0
        return OpCost(flops=flops, bytes_moved=bytes_moved, seconds=seconds)

    # ------------------------------------------------------------------
    def _efficiency(self, op: OpNode) -> float:
        """Fraction of peak FLOPs the op's efficiency class reaches."""
        definition = op_def(op.op_type)
        if definition.efficiency == EFF_CONV:
            kh, kw = op.attrs["kernel"]
            sh, sw = op.attrs["stride"]
            if (kh, kw) == (1, 1):
                # 1x1 convolutions are plain GEMMs.
                return self.device.gemm_efficiency
            if (kh, kw) == (3, 3) and (sh, sw) == (1, 1):
                # Winograd-eligible: cuDNN's fast algorithm trades memory
                # for speed (§2.2.1), raising effective FLOP throughput.
                return self.device.conv_efficiency * self.device.winograd_gain
            return self.device.conv_efficiency
        if definition.efficiency == EFF_GEMM:
            return self.device.gemm_efficiency
        return self.device.mem_efficiency

    def _characterize(self, graph: Graph, op: OpNode) -> Tuple[float, float, float]:
        """Return (flops, bytes_moved, compute_efficiency) for ``op``."""
        flops, bytes_moved = op_def(op.op_type).characterize(graph, op)
        return flops, bytes_moved, self._efficiency(op)
