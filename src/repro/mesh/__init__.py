"""repro.mesh — measured distributed split execution over a device mesh.

Composes per-device :class:`~repro.sim.engine.GPUSimulator` timelines
with contended link transfers to *measure* the distributed curves §6.4
of the paper only derives analytically (the closed form itself is the
analytical column of :mod:`repro.experiments.fig11`).  Each strategy has
a numeric reference beside it: :func:`run_spatial_numeric` and — for
the data strategy's allreduce wire volume — :class:`RingAllreduce` /
:class:`DataParallelTrainer`.
See docs/mesh.md.
"""

from .data_parallel import AllreduceStats, DataParallelTrainer, RingAllreduce
from .partition import (
    TRANSFER_KINDS,
    DeviceAssignment,
    MeshPartitioner,
    MeshPlan,
    MeshTransfer,
    run_spatial_numeric,
)
from .simulator import (
    DeviceMeasure,
    DeviceTimeline,
    LinkMeasure,
    MeshResult,
    MeshSimulator,
    extract_timeline,
)
from .topology import (
    TOPOLOGIES,
    DeviceMesh,
    Link,
    MeshDevice,
    build_mesh,
)

__all__ = [
    "DeviceMesh", "Link", "MeshDevice", "build_mesh", "TOPOLOGIES",
    "MeshTransfer", "DeviceAssignment", "MeshPlan", "MeshPartitioner",
    "run_spatial_numeric",
    "RingAllreduce", "AllreduceStats", "DataParallelTrainer",
    "TRANSFER_KINDS",
    "DeviceTimeline", "DeviceMeasure", "LinkMeasure", "MeshResult",
    "MeshSimulator", "extract_timeline",
]
