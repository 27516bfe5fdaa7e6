"""Device models for the profiling stage.

The paper's testbed is an IBM Power S822LC: NVIDIA Tesla P100 (16 GB HBM2)
connected over NVLink 1.0 with a *measured* peak of 34.1 GB/s (§6.1).
We model the GPU with a roofline (compute roof + memory-bandwidth roof)
plus a fixed per-kernel launch overhead; the substitution rationale is in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DeviceSpec", "P100_NVLINK"]


@dataclass(frozen=True)
class DeviceSpec:
    """A GPU + interconnect model used by the cost model and simulator."""

    name: str = "P100-NVLink"
    peak_flops: float = 10.6e12          # fp32 FLOP/s
    mem_bandwidth: float = 732e9         # HBM2 bytes/s
    nvlink_bandwidth: float = 34.1e9     # host link bytes/s (paper's measured)
    memory_capacity: int = 16 << 30      # bytes
    kernel_overhead: float = 5e-6        # seconds per kernel launch
    # Achievable fraction of the respective roof, per workload class.
    conv_efficiency: float = 0.50
    gemm_efficiency: float = 0.80
    mem_efficiency: float = 0.85
    # cuDNN's Winograd fast convolution (§2.2.1) makes 3x3 stride-1 convs
    # substantially faster than their naive FLOP count suggests — the very
    # effect the paper blames for shrinking per-layer offload budgets.
    winograd_gain: float = 4.0

    def with_(self, **kwargs) -> "DeviceSpec":
        """Copy with overrides (convenience for sweeps)."""
        return replace(self, **kwargs)


P100_NVLINK = DeviceSpec()
