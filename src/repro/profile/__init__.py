"""``repro.profile`` — device models, roofline op costs, offload analysis."""

from .cost import CostModel, OpCost
from .device import DeviceSpec, P100_NVLINK
from .measured import DEFAULT_REPETITIONS, MeasuredCostModel
from .offload_analysis import (
    LayerOffloadStats, OffloadAnalysis, analyze_offloadability,
)

__all__ = [
    "DeviceSpec", "P100_NVLINK",
    "CostModel", "OpCost",
    "OffloadAnalysis", "LayerOffloadStats", "analyze_offloadability",
    "MeasuredCostModel", "DEFAULT_REPETITIONS",
]
