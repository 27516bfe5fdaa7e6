"""Cross-device hazard pass over mesh plans (SCA104).

The single-device concurrency pass (SCA101-103) reasons about ops
sharing TSOs under the wavefront executor.  A mesh plan adds a second
axis: *transfers* mutate destination-device tensors while that device's
own schedule runs.  The partitioner's anchoring contract makes this
safe — a transfer must land in a tensor the destination never produces
locally, and must be ordered (via ``dst_op``) before the tensor's first
consumer.  This pass checks exactly that contract, as one code:
**SCA104** (cross-device-transfer-race) — the landing tensor does not
exist on the destination graph, has a local producer (the transfer and
the kernel race for the same bytes), the destination device has no
assignment at all, or the payload is not ordered before the tensor's
first consumer.

Mesh plans are not :class:`~repro.graph.ir.Graph` objects, so this pass
is invoked directly (``detect_mesh_hazards``) rather than through
``analyze_graph``; `repro mesh-bench` runs it on every partition it
ships and refuses to simulate a hazardous one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from .diagnostics import Diagnostic

if TYPE_CHECKING:  # deferred: repro.mesh imports nothing from analysis
    from ..mesh.partition import DeviceAssignment, MeshPlan, MeshTransfer

__all__ = ["detect_mesh_hazards"]


def detect_mesh_hazards(mesh_plan: "MeshPlan") -> List[Diagnostic]:
    """SCA104 findings for one mesh plan (empty list == clean)."""
    findings: List[Diagnostic] = []
    assignments: Dict[int, "DeviceAssignment"] = {
        assignment.device_id: assignment
        for assignment in mesh_plan.assignments
    }
    for transfer in mesh_plan.transfers:
        findings.extend(_check_transfer(transfer, assignments))
    return findings


def _check_transfer(transfer: "MeshTransfer",
                    assignments: Dict[int, "DeviceAssignment"],
                    ) -> List[Diagnostic]:
    where = f"transfer #{transfer.id} ({transfer.kind}" \
            f"{', ' + transfer.label if transfer.label else ''}) " \
            f"dev{transfer.src}->dev{transfer.dst}"
    destination = assignments.get(transfer.dst)
    if destination is None:
        return [Diagnostic(
            "SCA104",
            f"{where}: destination device {transfer.dst} runs nothing — "
            "the payload lands on an unassigned device")]
    if transfer.dst_tensor is None:
        # Barrier-consumed payloads (gradient buckets): no tensor on the
        # destination graph is touched mid-step, nothing to race.
        return []
    tensor = destination.graph.tensors.get(transfer.dst_tensor)
    if tensor is None:
        return [Diagnostic(
            "SCA104",
            f"{where}: destination tensor {transfer.dst_tensor} does not "
            f"exist on device {transfer.dst}")]
    if tensor.producer is not None:
        return [Diagnostic(
            "SCA104",
            f"{where}: destination tensor {tensor.name!r} has local "
            f"producer op {tensor.producer} — the transfer races the "
            "kernel writing the same bytes",
            tensor_id=tensor.id, op_ids=(tensor.producer,))]
    first_use = _first_consumer_position(destination, tensor.id)
    if transfer.dst_op is None:
        if first_use is None:
            return []  # nothing ever reads it: landing is unordered but safe
        return [Diagnostic(
            "SCA104",
            f"{where}: lands in {tensor.name!r} with no arrival anchor, "
            f"but op at position {first_use} reads it — the reader may "
            "run before the payload arrives",
            tensor_id=tensor.id)]
    if first_use is not None and transfer.dst_op > first_use:
        return [Diagnostic(
            "SCA104",
            f"{where}: anchored before position {transfer.dst_op} but "
            f"{tensor.name!r} is first read at position {first_use} — "
            "the read happens before the arrival gate",
            tensor_id=tensor.id)]
    return []


def _first_consumer_position(assignment: "DeviceAssignment",
                             tensor_id: int) -> Optional[int]:
    positions = assignment.graph.op_positions()
    consumers = assignment.graph.tensors[tensor_id].consumers
    if not consumers:
        return None
    return min(positions[op_id] for op_id in consumers)

