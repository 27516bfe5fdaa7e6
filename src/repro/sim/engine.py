"""Event-driven GPU execution simulator.

Replays a :class:`~repro.hmms.planner.MemoryPlan` on a model of the
paper's testbed: one compute stream executing the serialized ops, plus
``device.num_memory_streams`` memory streams carrying host-device copies
over NVLink.  Synchronizations follow the plan's semantics exactly:

- an offload/prefetch is *issued* when its planned op starts executing
  (it then occupies the earliest-available memory stream);
- an ``offload_sync`` blocks the compute stream after the op's kernel
  until the copy has drained (this is where eager layer-wise plans stall);
- a ``prefetch_sync`` blocks before the op until the data is back.

The simulator also acts as the safety checker for plans: it tracks the
residency state of every TSO and raises if an op reads a TSO that is not
on the device, and it tracks live device bytes against the capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hmms.planner import MemoryPlan
from ..hmms.tso import POOL_DEVICE_GENERAL
from ..profile.cost import CostModel
from ..profile.device import DeviceSpec, P100_NVLINK

__all__ = ["TimelineEvent", "SimResult", "GPUSimulator", "SimulationError"]


class SimulationError(RuntimeError):
    """A plan violated a safety invariant during replay."""


@dataclass(frozen=True)
class TimelineEvent:
    """One interval on one stream (the raw material of Figure 9)."""

    stream: str
    kind: str          # op | offload | prefetch | stall
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SimResult:
    """Outcome of replaying one training step."""

    total_time: float
    compute_time: float            # sum of kernel durations
    stall_time: float              # compute stream blocked on memory streams
    transfer_time: float           # total bytes-on-the-wire time
    offloaded_bytes: int
    peak_live_bytes: int           # device general pool, tracked live
    events: List[TimelineEvent] = field(default_factory=list)

    def throughput(self, batch_size: int) -> float:
        """Training throughput in samples/second."""
        return batch_size / self.total_time if self.total_time > 0 else float("inf")

    def stream_busy(self) -> Dict[str, float]:
        busy: Dict[str, float] = {}
        for event in self.events:
            if event.kind != "stall":
                busy[event.stream] = busy.get(event.stream, 0.0) + event.duration
        return busy


class GPUSimulator:
    """Replays memory plans and enforces their safety invariants."""

    RESIDENT, OFFLOADING, ON_HOST, PREFETCHING, FREED = range(5)

    def __init__(
        self,
        device: DeviceSpec = P100_NVLINK,
        cost_model: Optional[CostModel] = None,
        check_capacity: bool = False,
    ) -> None:
        self.device = device
        self.cost_model = cost_model if cost_model is not None else CostModel(device)
        self.check_capacity = check_capacity

    # ------------------------------------------------------------------
    def run(self, plan: MemoryPlan) -> SimResult:
        graph = plan.graph
        device = self.device
        num_streams = device.num_memory_streams
        stream_free = [0.0] * num_streams
        transfer_done: Dict[tuple, float] = {}   # (tso id, kind) -> completion
        tso_state: Dict[int, int] = {}
        live_bytes = 0
        peak_live = 0
        stall_time = 0.0
        transfer_time = 0.0
        offloaded_bytes = 0
        events: List[TimelineEvent] = []
        sizes = {tso_id: tso.size for tso_id, tso in plan.assignment.tsos.items()}

        def emit(stream: str, kind: str, name: str, start: float, end: float) -> None:
            if end > start:
                events.append(TimelineEvent(stream, kind, name, start, end))

        def issue_transfer(tso_id: int, at: float, kind: str) -> float:
            nonlocal transfer_time
            if num_streams >= 2:
                # NVLink is full duplex: device-to-host (offload) and
                # host-to-device (prefetch) each get a dedicated stream and
                # the full per-direction bandwidth; same-direction copies
                # serialize behind each other.
                stream_index = 0 if kind == "offload" else 1
            else:
                stream_index = 0
            start = max(stream_free[stream_index], at)
            duration = sizes[tso_id] / device.nvlink_bandwidth
            end = start + duration
            stream_free[stream_index] = end
            transfer_done[(tso_id, kind)] = end
            transfer_time += duration
            emit(f"mem{stream_index}", kind, f"{kind}:tso{tso_id}", start, end)
            return end

        def charge(nbytes: int) -> None:
            nonlocal live_bytes, peak_live
            live_bytes += nbytes
            peak_live = max(peak_live, live_bytes)
            if self.check_capacity and live_bytes + plan.device_param_bytes \
                    > device.memory_capacity:
                raise SimulationError(
                    f"device memory exceeded: {live_bytes + plan.device_param_bytes} "
                    f"> {device.memory_capacity}"
                )

        def allocate(tso_id: int) -> None:
            charge(sizes[tso_id])
            tso_state[tso_id] = self.RESIDENT

        def release(tso_id: int) -> None:
            nonlocal live_bytes
            if tso_state.get(tso_id) == self.FREED:
                raise SimulationError(f"TSO {tso_id} freed twice")
            live_bytes -= sizes[tso_id]

        # Kernel duration per position of ``graph.ops``: each op is priced
        # once, when its schedule entry replays.
        durations = [0.0] * len(graph.ops)
        clock = 0.0
        for entry in plan.schedule:
            op = graph.ops[entry.op_index]

            for tso_id in entry.allocs_before:
                allocate(tso_id)
            for tso_id in entry.prefetch_allocs_before:
                allocate(tso_id)
                tso_state[tso_id] = self.PREFETCHING

            # Transfers issued the moment this op starts executing.  Issues
            # precede synchronizations so a prefetch planned at its own
            # consumer op degenerates to a full (but legal) stall.
            for tso_id in entry.offload_starts:
                issue_transfer(tso_id, clock, "offload")
                tso_state[tso_id] = self.OFFLOADING
                offloaded_bytes += sizes[tso_id]
            for tso_id in entry.prefetch_starts:
                issue_transfer(tso_id, clock, "prefetch")

            # Wait for prefetches this op depends on.
            for tso_id in entry.prefetch_syncs_before:
                done = transfer_done.get((tso_id, "prefetch"))
                if done is None:
                    raise SimulationError(
                        f"op {op.name!r} syncs on prefetch of TSO {tso_id} "
                        "which was never issued"
                    )
                if done > clock:
                    emit("compute", "stall", f"wait-prefetch:tso{tso_id}", clock, done)
                    stall_time += done - clock
                    clock = done
                tso_state[tso_id] = self.RESIDENT

            # Safety: every input TSO must be resident on the device.
            self._check_residency(plan, op, tso_state)

            # Transient workspace counts against capacity like any
            # allocation — a plan whose workspace pushes it past the
            # device limit is just as infeasible as one whose TSOs do.
            if entry.workspace_bytes:
                charge(entry.workspace_bytes)

            duration = self.cost_model.cost(graph, op).seconds
            durations[entry.op_index] = duration
            emit("compute", "op", op.name, clock, clock + duration)
            clock += duration

            if entry.workspace_bytes:
                live_bytes -= entry.workspace_bytes

            # End-of-offload synchronization, then free the device copy.
            for tso_id in entry.offload_syncs_after:
                done = transfer_done[(tso_id, "offload")]
                if done > clock:
                    emit("compute", "stall", f"wait-offload:tso{tso_id}", clock, done)
                    stall_time += done - clock
                    clock = done
                tso_state[tso_id] = self.ON_HOST
                release(tso_id)

            for tso_id in entry.frees_after:
                release(tso_id)
                # Keep the TSO in the state map as FREED (never pop it):
                # a later read must surface as use-after-free, not fall
                # back to the RESIDENT default.
                tso_state[tso_id] = self.FREED

        return SimResult(
            total_time=clock,
            # Summed in ``graph.ops`` order, so it is bit-equal to
            # ``cost_model.total_time(graph)``.
            compute_time=sum(durations),
            stall_time=stall_time,
            transfer_time=transfer_time,
            offloaded_bytes=offloaded_bytes,
            peak_live_bytes=peak_live,
            events=events,
        )

    # ------------------------------------------------------------------
    def _check_residency(self, plan: MemoryPlan, op, tso_state: Dict[int, int]) -> None:
        for tensor_id in op.inputs:
            tso = plan.assignment.tso_for_tensor(tensor_id)
            if tso.pool != POOL_DEVICE_GENERAL:
                continue
            state = tso_state.get(tso.id, self.RESIDENT)
            if state == self.FREED:
                raise SimulationError(
                    f"op {op.name!r} reads TSO {tso.id} "
                    f"(tensor {plan.graph.tensor(tensor_id).name!r}) which "
                    "was already freed (use-after-free)"
                )
            if state in (self.ON_HOST, self.PREFETCHING):
                raise SimulationError(
                    f"op {op.name!r} reads TSO {tso.id} "
                    f"(tensor {plan.graph.tensor(tensor_id).name!r}) which is "
                    f"{'on the host' if state == self.ON_HOST else 'still prefetching'}"
                )
