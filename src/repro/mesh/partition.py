"""Mesh partitioning: map split patches and layers onto devices.

Three strategies, each producing a :class:`MeshPlan` — per-device graphs
with their own HMMS memory plans, plus the explicit cross-device
:class:`MeshTransfer` list the simulator schedules over links:

- ``data``     — every device runs a full training-graph replica on its
  own shard of the global batch; the final gradient tensors become
  ``all_reduce`` transfers (§6.4's synchronization traffic, bucketed per
  parameter so communication overlaps the rest of backward);
- ``spatial``  — the patches of one split stage are spread across
  devices ("Split CNN Inference on Networked Microcontrollers"):
  forward-only per-patch chains with no inter-patch traffic (the
  paper's §3 property), and ``gather`` transfers feeding the tail
  device that joins the patches and runs the rest of the model;
- ``pipeline`` — contiguous layer stages per device with ``activation``
  transfers between consecutive stages.

A :class:`MeshPlan` is *topology-shaped but bandwidth-free*: transfer
byte counts depend on the topology (ring vs p2p allreduce volumes) and
the device count, never on link speed, so one partition serves an entire
Figure-11 bandwidth sweep with the per-device simulator timelines
computed once and reused.

Transfer anchoring uses schedule positions of the per-device plans:
``src_op`` is the position after whose kernel the payload exists,
``dst_op`` the position that must not start before arrival (``None`` =
step-end barrier, e.g. gradient sync).  The cross-device analyzer pass
(SCA104 in :mod:`repro.analysis.mesh`) checks exactly these anchors
against the destination graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.region import SplitRegion, get_handler
from ..core.scheme import SplitScheme
from ..graph import GraphBuilder, build_training_graph
from ..graph.builder import params_for_builder
from ..graph.executor import GraphExecutor, resolve_final_gradients
from ..graph.ir import Graph
from ..hmms import HMMSPlanner
from ..hmms.planner import MemoryPlan
from ..models.base import ConvClassifier
from ..nn import Flatten, Module
from ..profile.device import DeviceSpec, P100_NVLINK

__all__ = [
    "MeshTransfer", "DeviceAssignment", "MeshPlan", "MeshPartitioner",
    "run_spatial_numeric", "TRANSFER_KINDS",
]

TRANSFER_KINDS = ("all_reduce", "gather", "activation")


@dataclass(frozen=True)
class MeshTransfer:
    """One cross-device payload movement.

    ``src_op`` / ``dst_op`` are schedule positions in the source /
    destination device's plan (== indices into ``plan.schedule`` and
    ``graph.ops``); ``dst_tensor`` is the input tensor the payload lands
    in on the destination graph (``None`` for barrier-consumed payloads
    such as gradient buckets).
    """

    id: int
    kind: str                     # one of TRANSFER_KINDS
    src: int                      # source device id
    dst: int                      # destination device id
    nbytes: int
    src_op: int
    dst_op: Optional[int] = None  # None: step-end barrier
    dst_tensor: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in TRANSFER_KINDS:
            raise ValueError(f"unknown transfer kind {self.kind!r}")
        if self.nbytes < 0:
            raise ValueError(f"negative transfer size {self.nbytes}")
        if self.src_op < 0:
            raise ValueError(
                f"transfer source position {self.src_op} is negative: "
                "every payload is issued after a source kernel")


@dataclass
class DeviceAssignment:
    """What one device runs: its graph, memory plan, and data bindings.

    ``input_bindings`` maps input tensor ids to semantic sources —
    ``("input",)`` for the whole minibatch, ``("patch", i, j)`` for a
    spatial input patch, ``("patch_out", i, j)`` for a remote patch
    result, ``("stage_in", s)`` for a pipeline-stage activation.
    ``output_tensors`` is the reverse map for what this device produces.
    """

    device_id: int
    role: str
    graph: Graph
    plan: MemoryPlan
    spec: DeviceSpec
    params: Dict[str, np.ndarray] = field(default_factory=dict)
    input_bindings: Dict[int, Tuple] = field(default_factory=dict)
    output_tensors: Dict[Tuple, int] = field(default_factory=dict)


@dataclass
class MeshPlan:
    """A complete partition: assignments + transfer list.

    Bandwidth-independent: re-simulate the same plan against meshes of
    different link speeds (same topology and device count).
    """

    strategy: str
    topology: str
    num_devices: int
    model_name: str
    global_batch: int
    assignments: List[DeviceAssignment]
    transfers: List[MeshTransfer]
    # Spatial-strategy geometry, needed to slice inputs numerically:
    # (in_scheme_h boundaries, in_scheme_w boundaries, input h, input w).
    spatial_schemes: Optional[Tuple[Tuple[int, ...], Tuple[int, ...],
                                    int, int]] = None

    def assignment(self, device_id: int) -> Optional[DeviceAssignment]:
        for candidate in self.assignments:
            if candidate.device_id == device_id:
                return candidate
        return None

    def verify(self) -> List[Tuple[int, Any]]:
        """Run the static plan verifier over every distinct device plan.

        Returns ``(device_id, VerificationReport)`` pairs (one per
        *distinct* plan object — data-parallel replicas share one).
        Raises on the first failed report.
        """
        from ..hmms import verify_plan
        from ..profile.cost import CostModel

        seen: Dict[int, Any] = {}
        reports: List[Tuple[int, Any]] = []
        for assignment in self.assignments:
            key = id(assignment.plan)
            if key in seen:
                continue
            report = verify_plan(assignment.plan, device=assignment.spec,
                                 cost_model=CostModel(assignment.spec))
            seen[key] = report
            reports.append((assignment.device_id, report))
            report.raise_if_failed()
        return reports


class MeshPartitioner:
    """Builds :class:`MeshPlan` objects for a device count + topology.

    The partitioner owns graph construction and per-device HMMS planning;
    the :class:`~repro.mesh.simulator.MeshSimulator` owns time.  All
    devices share one ``device`` spec (the paper's testbed is uniform).
    """

    def __init__(self, num_devices: int, topology: str = "ring",
                 device: DeviceSpec = P100_NVLINK) -> None:
        if num_devices < 1:
            raise ValueError(f"need at least one device, got {num_devices}")
        self.num_devices = num_devices
        self.topology = topology
        self.device = device

    # ------------------------------------------------------------------
    # data parallelism: replicas + gradient allreduce
    # ------------------------------------------------------------------
    def data(self, model: ConvClassifier, batch_per_device: int) -> MeshPlan:
        """Full training replica per device + bucketed gradient allreduce."""
        graph = build_training_graph(model, batch_per_device)
        plan = HMMSPlanner(device=self.device, scheduler="hmms").plan(graph)
        return self.data_from_plan(graph, plan, model_name=model.name,
                                   model=model)

    def data_from_plan(self, graph: Graph, plan: MemoryPlan,
                       model_name: str = "",
                       model: Optional[ConvClassifier] = None) -> MeshPlan:
        """Data-parallel plan over an already-built graph + memory plan.

        All replicas share the single graph/plan object, so the simulator
        computes one per-device timeline for the whole mesh.
        """
        params: Dict[str, np.ndarray] = {}
        if model is not None:
            params = GraphExecutor.parameters_from_model(graph, model)
        batch = _graph_batch(graph)
        assignments = [
            DeviceAssignment(device_id=d, role="replica", graph=graph,
                             plan=plan, spec=self.device, params=params,
                             input_bindings=_whole_input_binding(graph))
            for d in range(self.num_devices)
        ]
        transfers = self._allreduce_transfers(graph)
        return MeshPlan(
            strategy="data", topology=self.topology,
            num_devices=self.num_devices, model_name=model_name or graph.name,
            global_batch=batch * self.num_devices,
            assignments=assignments, transfers=transfers,
        )

    def _allreduce_transfers(self, graph: Graph) -> List[MeshTransfer]:
        """One bucket per final gradient tensor, ready when produced.

        Ring: each device streams ``2|g|(N-1)/N`` bytes to its clockwise
        neighbor (the Patarasuk-Yuan volume).  Bus: the same volume, but
        every device contends for the one shared link.  P2p: the volume
        splits across the N-1 dedicated links (``2|g|/N`` each).
        """
        n = self.num_devices
        if n == 1:
            return []
        positions = graph.op_positions()
        finals = resolve_final_gradients(graph)
        transfers: List[MeshTransfer] = []
        tid = 0
        for param_name in sorted(finals):
            tensor = graph.tensors[finals[param_name]]
            ready = positions[tensor.producer]
            total = 2 * tensor.nbytes * (n - 1) // n
            for src in range(n):
                if self.topology == "p2p":
                    share = max(1, total // (n - 1))
                    for dst in range(n):
                        if dst == src:
                            continue
                        transfers.append(MeshTransfer(
                            id=tid, kind="all_reduce", src=src, dst=dst,
                            nbytes=share, src_op=ready, dst_op=None,
                            label=f"allreduce:{param_name}"))
                        tid += 1
                else:
                    transfers.append(MeshTransfer(
                        id=tid, kind="all_reduce", src=src,
                        dst=(src + 1) % n, nbytes=total, src_op=ready,
                        dst_op=None, label=f"allreduce:{param_name}"))
                    tid += 1
        return transfers

    # ------------------------------------------------------------------
    # spatial parallelism: patches across devices + gather
    # ------------------------------------------------------------------
    def spatial(self, model: ConvClassifier, batch: int) -> MeshPlan:
        """Distribute the split stage's patches across the mesh.

        ``model.features[0]`` must be a :class:`SplitRegion` (apply
        :func:`~repro.core.transform.to_split_cnn` first).  Patch ``k``
        (row-major) runs on device ``k % N``; device 0 additionally hosts
        the join and the unsplit remainder of the model (the "tail").
        Forward-only — this is the networked patch-inference deployment,
        and the only transfers are the ``gather``s of remote patch results.
        """
        features = list(model.features)
        if not features or not isinstance(features[0], SplitRegion):
            raise ValueError(
                "spatial partitioning needs a model whose features start "
                "with a SplitRegion — apply to_split_cnn(depth > 0) first")
        region: SplitRegion = features[0]
        rest = features[1:]
        n = self.num_devices
        size = model.input_size
        in_hw = (size, size)
        handler = get_handler(region.body)
        out_hw = handler.trace(region.body, in_hw)
        scheme_h = SplitScheme.even(out_hw[0], region.num_splits[0])
        scheme_w = SplitScheme.even(out_hw[1], region.num_splits[1])
        back = handler.back(region.body, scheme_h, scheme_w, in_hw,
                            region.position)
        in_h, in_w = back.in_scheme_h, back.in_scheme_w
        h_sizes = in_h.part_sizes(in_hw[0])
        w_sizes = in_w.part_sizes(in_hw[1])
        grid = [(i, j) for i in range(in_h.num_parts)
                for j in range(in_w.num_parts)]
        owner = {patch: index % n for index, patch in enumerate(grid)}
        tail = 0

        builders: Dict[int, GraphBuilder] = {}

        def builder_for(device_id: int) -> GraphBuilder:
            if device_id not in builders:
                b = GraphBuilder(batch_size=batch, inference=True)
                b.graph.name = f"{model.name}@dev{device_id}"
                builders[device_id] = b
            return builders[device_id]

        bindings: Dict[int, Dict[int, Tuple]] = {}
        outputs: Dict[int, Dict[Tuple, int]] = {}
        patch_out: Dict[Tuple[int, int], Any] = {}
        for (i, j) in grid:
            d = owner[(i, j)]
            b = builder_for(d)
            t_in = b.add_input(model, f"mesh.patch{i}{j}",
                               (batch, 3, h_sizes[i], w_sizes[j]))
            bindings.setdefault(d, {})[t_in.id] = ("patch", i, j)
            value = b.emit(region.body, t_in, (back.payload, i, j))
            patch_out[(i, j)] = value
            outputs.setdefault(d, {})[("patch_out", i, j)] = value.id

        # Tail device: concat over local results + remote patch inputs,
        # then the unsplit remainder of the model down to the logits.
        tb = builder_for(tail)
        join_inputs = []
        remote_in: Dict[Tuple[int, int], int] = {}
        for (i, j) in grid:
            value = patch_out[(i, j)]
            if owner[(i, j)] == tail:
                join_inputs.append(value)
            else:
                remote = tb.add_input(model, f"mesh.join{i}{j}", value.shape)
                bindings.setdefault(tail, {})[remote.id] = ("patch_out", i, j)
                remote_in[(i, j)] = remote.id
                join_inputs.append(remote)
        (value,) = tb.add_registered_op(
            "join", "concat", join_inputs, attrs={"grid": region.num_splits},
            out_names=["join.out"])
        join_op_id = value.producer
        for item in rest:
            value = tb.emit(item, value)
        value = tb.emit(Flatten(), value)
        value = tb.emit(model.classifier, value)
        value.name = "logits"
        outputs.setdefault(tail, {})[("logits",)] = value.id

        assignments: List[DeviceAssignment] = []
        for d in sorted(builders):
            b = builders[d]
            graph = b.graph
            graph.validate()
            plan = HMMSPlanner(device=self.device,
                               scheduler="hmms").plan(graph)
            role = "tail" if d == tail else "patch"
            assignments.append(DeviceAssignment(
                device_id=d, role=role, graph=graph, plan=plan,
                spec=self.device, params=params_for_builder(b, model),
                input_bindings=bindings.get(d, {}),
                output_tensors=outputs.get(d, {})))
        by_device = {a.device_id: a for a in assignments}

        transfers: List[MeshTransfer] = []
        # Gather: remote patch results converge on the tail's join op.
        join_pos = by_device[tail].graph.op_positions()[join_op_id]
        for (i, j) in grid:
            d = owner[(i, j)]
            if d == tail:
                continue
            out_id = outputs[d][("patch_out", i, j)]
            graph = by_device[d].graph
            tensor = graph.tensors[out_id]
            transfers.append(MeshTransfer(
                id=len(transfers), kind="gather", src=d, dst=tail,
                nbytes=tensor.nbytes,
                src_op=graph.op_positions()[tensor.producer], dst_op=join_pos,
                dst_tensor=remote_in[(i, j)],
                label=f"gather:patch{i}{j}"))

        return MeshPlan(
            strategy="spatial", topology=self.topology,
            num_devices=n, model_name=model.name, global_batch=batch,
            assignments=assignments, transfers=transfers,
            spatial_schemes=(in_h.boundaries, in_w.boundaries,
                             in_hw[0], in_hw[1]))

    # ------------------------------------------------------------------
    # pipeline parallelism: contiguous layer stages
    # ------------------------------------------------------------------
    def pipeline(self, model: ConvClassifier, batch: int) -> MeshPlan:
        """Contiguous layer stages, one per device, forward-only.

        Stage boundaries fall between top-level ``features`` items (a
        whole :class:`SplitRegion` stays on one device), balanced by item
        count; the flatten + classifier ride on the last stage.
        """
        items: List[Module] = list(model.features) + [Flatten(),
                                                      model.classifier]
        chunks = _even_chunks(items, min(self.num_devices, len(items)))
        size = model.input_size

        assignments: List[DeviceAssignment] = []
        transfers: List[MeshTransfer] = []
        value_shape: Tuple[int, ...] = (batch, 3, size, size)
        previous: Optional[Tuple[int, int]] = None  # (device, position)
        for stage, chunk in enumerate(chunks):
            b = GraphBuilder(batch_size=batch, inference=True)
            b.graph.name = f"{model.name}@stage{stage}"
            t_in = b.add_input(model, "input" if stage == 0
                               else f"mesh.stage_in{stage}", value_shape)
            value = t_in
            for item in chunk:
                value = b.emit(item, value)
            if stage == len(chunks) - 1:
                value.name = "logits"
            graph = b.graph
            graph.validate()
            plan = HMMSPlanner(device=self.device,
                               scheduler="hmms").plan(graph)
            positions = graph.op_positions()
            bindings = {t_in.id: (("input",) if stage == 0
                                  else ("stage_in", stage))}
            outputs = {(("logits",) if stage == len(chunks) - 1
                        else ("stage_out", stage)): value.id}
            assignments.append(DeviceAssignment(
                device_id=stage, role=f"stage{stage}", graph=graph,
                plan=plan, spec=self.device,
                params=params_for_builder(b, model),
                input_bindings=bindings, output_tensors=outputs))
            if previous is not None:
                src_dev, src_pos = previous
                dst_first = min((positions[c]
                                 for c in graph.tensors[t_in.id].consumers),
                                default=None)
                transfers.append(MeshTransfer(
                    id=len(transfers), kind="activation", src=src_dev,
                    dst=stage, nbytes=np.prod(value_shape).item() * 4,
                    src_op=src_pos, dst_op=dst_first, dst_tensor=t_in.id,
                    label=f"activation:stage{src_dev}->{stage}"))
            value_shape = value.shape
            previous = (stage, positions[value.producer])

        return MeshPlan(
            strategy="pipeline", topology=self.topology,
            num_devices=self.num_devices, model_name=model.name,
            global_batch=batch, assignments=assignments,
            transfers=transfers)


def _graph_batch(graph: Graph) -> int:
    for tensor in graph.tensors.values():
        if tensor.kind == "input":
            return tensor.shape[0]
    raise ValueError("graph has no input tensor")


def _whole_input_binding(graph: Graph) -> Dict[int, Tuple]:
    return {t.id: ("input",) for t in graph.tensors.values()
            if t.kind == "input"}


def _even_chunks(items: Sequence[Any], parts: int) -> List[List[Any]]:
    """Split ``items`` into ``parts`` non-empty contiguous chunks."""
    count = len(items)
    chunks: List[List[Any]] = []
    start = 0
    for index in range(parts):
        stop = start + (count - start) // (parts - index)
        if index == parts - 1:
            stop = count
        stop = max(stop, start + 1)
        chunks.append(list(items[start:stop]))
        start = stop
    return chunks


# ----------------------------------------------------------------------
# Numeric execution of partitioned plans (byte-identity tests)
# ----------------------------------------------------------------------
def run_spatial_numeric(mesh_plan: MeshPlan,
                        x: np.ndarray) -> Dict[str, np.ndarray]:
    """Execute a spatial :class:`MeshPlan` numerically on one input batch.

    Patch devices run first; their terminal patch outputs feed the tail
    device's remote-join inputs.  Patches carry the shipped zero-padding
    semantics (the paper's feature abandonment), so the merged logits are
    byte-identical to the single-device split graph for any device count.
    ``x`` is cast to the graphs' width (their model's parameter dtype).
    """
    if mesh_plan.strategy != "spatial" or mesh_plan.spatial_schemes is None:
        raise ValueError("run_spatial_numeric needs a spatial MeshPlan")
    bounds_h, bounds_w, total_h, total_w = mesh_plan.spatial_schemes
    scheme_h = SplitScheme(bounds_h)
    scheme_w = SplitScheme(bounds_w)
    patch_results: Dict[Tuple[int, int], np.ndarray] = {}
    logits: Optional[np.ndarray] = None
    ordered = sorted(mesh_plan.assignments,
                     key=lambda a: (a.role == "tail", a.device_id))
    for assignment in ordered:
        executor = GraphExecutor(assignment.graph, assignment.params)
        inputs: Dict[int, np.ndarray] = {}
        for tensor_id, binding in assignment.input_bindings.items():
            if binding[0] == "patch":
                _, i, j = binding
                h0, h1 = scheme_h.part_range(i, total_h)
                w0, w1 = scheme_w.part_range(j, total_w)
                inputs[tensor_id] = x[:, :, h0:h1, w0:w1].astype(
                    executor.width, copy=False)
            elif binding[0] == "patch_out":
                inputs[tensor_id] = patch_results[binding[1:]]
        outputs = executor.run_with_inputs(inputs)
        for key, tensor_id in assignment.output_tensors.items():
            # Patch tensors shipped to another device have no local
            # consumer, so the eager-free plan keeps them live through
            # the run; the tail's own patches are consumed by its concat
            # (and freed) — nothing remote needs those.
            value = executor.values[tensor_id]
            if key[0] == "patch_out" and value is not None:
                patch_results[key[1:]] = value
        if ("logits",) in assignment.output_tensors:
            logits = outputs["logits"]
    if logits is None:
        raise RuntimeError("spatial plan produced no logits")
    return {"logits": logits}

