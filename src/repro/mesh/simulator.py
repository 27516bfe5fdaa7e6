"""Mesh event loop: compose per-device timelines with link transfers.

The single-device :class:`~repro.sim.engine.GPUSimulator` replays one
HMMS plan and yields a compute-stream timeline.  The
:class:`MeshSimulator` runs one such replay per device of a
:class:`~repro.mesh.partition.MeshPlan` (cached — timelines depend on
the plan and the device spec, never on link bandwidth, so one extraction
serves a whole Figure-11 sweep), slices each into per-op *segments*, and
interleaves them with :class:`~repro.mesh.partition.MeshTransfer` events
scheduled FIFO over the mesh's contended links.

Determinism: the loop pops **all** events sharing a timestamp as one
batch, applies every state mutation (hop completions, new enqueues)
first, then starts transfers on freed links (candidate = min by
``(ready_time, transfer.id)``), then resumes unblocked devices.  Within
a batch no decision depends on processing order, so the measured result
is bit-identical for any tie-breaking order — ``shuffle_seed`` permutes
the batch to let tests prove exactly that.

Stall attribution per device: ``local_stall`` is the single-device
plan's own offload/prefetch waiting (pre-op and tail stalls of the
extracted timeline); ``mesh_wait`` is time spent parked on inbound
transfers, keyed by transfer kind.  A stall the engine emits *after* an
op rolls into the next op's pre-stall — a conservative equivalence: the
total is exact, only the per-op attribution is shifted by one slot.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..sim import GPUSimulator
from .partition import DeviceAssignment, MeshPlan, MeshTransfer
from .topology import DeviceMesh, Link

__all__ = [
    "DeviceTimeline", "DeviceMeasure", "LinkMeasure", "MeshResult",
    "MeshSimulator", "extract_timeline",
]


@dataclass
class DeviceTimeline:
    """One device's replay, sliced per schedule position.

    ``segments[k] == (pre_stall, op_seconds)`` for schedule position
    ``k``; zero-duration ops hold ``(0, 0)``.  ``tail_stall`` is
    whatever the replay spent after its last kernel (final offload
    drains).  Invariant: ``sum(pre + dur) + tail_stall == total``.
    """

    segments: List[Tuple[float, float]]
    tail_stall: float
    total: float
    compute: float
    stall: float


def extract_timeline(assignment: DeviceAssignment) -> DeviceTimeline:
    """Replay one device's plan and slice the compute stream per op.

    Compute-stream ``op`` events are matched to schedule positions by op
    name in order (builder names are unique per graph); ``stall`` events
    accumulate into the next matched op's pre-stall.
    """
    result = GPUSimulator(assignment.spec).run(assignment.plan)
    graph = assignment.plan.graph
    names = [graph.ops[entry.op_index].name
             for entry in assignment.plan.schedule]
    segments: List[List[float]] = [[0.0, 0.0] for _ in names]
    position = 0
    pending = 0.0
    compute = 0.0
    for event in result.events:
        if event.stream != "compute":
            continue
        if event.kind == "stall":
            pending += event.end - event.start
        elif event.kind == "op":
            index = position
            while index < len(names) and names[index] != event.name:
                index += 1  # zero-duration ops emitted no event
            if index == len(names):
                raise RuntimeError(
                    f"compute event {event.name!r} matches no remaining "
                    f"schedule position of {graph.name!r}")
            segments[index][0] = pending
            segments[index][1] = event.end - event.start
            compute += event.end - event.start
            pending = 0.0
            position = index + 1
    accounted = sum(pre + dur for pre, dur in segments)
    tail = max(0.0, result.total_time - accounted)
    return DeviceTimeline(
        segments=[(pre, dur) for pre, dur in segments],
        tail_stall=tail, total=result.total_time, compute=compute,
        stall=result.total_time - compute)


@dataclass
class DeviceMeasure:
    """Measured outcome for one mesh device."""

    device_id: int
    role: str
    compute_seconds: float
    local_stall_seconds: float
    mesh_wait: Dict[str, float]
    end_seconds: float

    @property
    def mesh_wait_seconds(self) -> float:
        return sum(self.mesh_wait.values())

    @property
    def utilization(self) -> float:
        return self.compute_seconds / self.end_seconds \
            if self.end_seconds > 0 else 0.0


@dataclass
class LinkMeasure:
    """Measured occupancy of one link."""

    name: str
    busy_seconds: float
    nbytes: int
    transfers: int

    def utilization(self, step_seconds: float) -> float:
        return self.busy_seconds / step_seconds if step_seconds > 0 else 0.0


@dataclass
class MeshResult:
    """End-to-end measurement of one mesh step."""

    strategy: str
    topology: str
    num_devices: int
    global_batch: int
    step_seconds: float
    devices: Dict[int, DeviceMeasure]
    links: Dict[str, LinkMeasure]

    @property
    def throughput(self) -> float:
        """Images per second at the measured step time."""
        return self.global_batch / self.step_seconds \
            if self.step_seconds > 0 else 0.0

    def render(self) -> str:
        lines = [
            f"mesh step: {self.strategy} x{self.num_devices} "
            f"({self.topology}), batch {self.global_batch}",
            f"  step time   {self.step_seconds * 1e3:10.3f} ms"
            f"   throughput {self.throughput:10.1f} img/s",
            "  device  role      compute      stall  mesh-wait"
            "        end   util",
        ]
        for device_id in sorted(self.devices):
            m = self.devices[device_id]
            lines.append(
                f"  dev{device_id:<4d} {m.role:<8s}"
                f" {m.compute_seconds * 1e3:9.3f}ms"
                f" {m.local_stall_seconds * 1e3:9.3f}ms"
                f" {m.mesh_wait_seconds * 1e3:9.3f}ms"
                f" {m.end_seconds * 1e3:9.3f}ms"
                f" {m.utilization * 100:5.1f}%")
        if self.links:
            lines.append("  link             busy      bytes   util")
            for name in sorted(self.links):
                link = self.links[name]
                lines.append(
                    f"  {name:<14s} {link.busy_seconds * 1e3:7.3f}ms"
                    f" {link.nbytes:>10d}"
                    f" {link.utilization(self.step_seconds) * 100:5.1f}%")
        return "\n".join(lines)


class _TransferState:
    __slots__ = ("transfer", "hops", "hop", "arrival")

    def __init__(self, transfer: MeshTransfer, hops: Sequence[Link]) -> None:
        self.transfer = transfer
        self.hops = list(hops)
        self.hop = 0
        self.arrival: Optional[float] = None


@dataclass
class _LinkState:
    link: Link
    busy_until: float = 0.0
    in_flight: bool = False
    waiting: List[Tuple[float, int]] = field(default_factory=list)
    busy_seconds: float = 0.0
    nbytes: int = 0
    transfers: int = 0


@dataclass
class _DeviceState:
    device_id: int
    assignment: Optional[DeviceAssignment]
    timeline: Optional[DeviceTimeline]
    inbound: Dict[int, List[int]]   # position -> transfer ids gating it
    outbound: Dict[int, List[int]]  # position -> transfer ids issued after
    gates: List[int]                # unpassed in/outbound keys, descending
    t: float = 0.0
    position: int = 0
    pre_applied: bool = False
    waiting: Set[int] = field(default_factory=set)
    done: bool = False
    mesh_wait: Dict[str, float] = field(default_factory=dict)


class MeshSimulator:
    """Measures one :class:`MeshPlan` step over one :class:`DeviceMesh`.

    ``shuffle_seed`` permutes every order the event loop is free to pick
    (equal-time batch processing, link scan order, device resume order);
    results are identical for every seed — the determinism contract the
    mesh tests fuzz.
    """

    def __init__(self, mesh: DeviceMesh,
                 shuffle_seed: Optional[int] = None) -> None:
        self.mesh = mesh
        self.shuffle_seed = shuffle_seed

    def run(self, mesh_plan: MeshPlan) -> MeshResult:
        mesh = self.mesh
        if mesh.num_devices < mesh_plan.num_devices:
            raise ValueError(
                f"plan spans {mesh_plan.num_devices} devices but the mesh "
                f"has only {mesh.num_devices}")
        rng = random.Random(self.shuffle_seed) \
            if self.shuffle_seed is not None else None

        timelines = _timelines(mesh_plan)
        transfers = {t.id: t for t in mesh_plan.transfers}
        tstate = {t.id: _TransferState(t, mesh.route(t.src, t.dst))
                  for t in mesh_plan.transfers}
        links = {link.name: _LinkState(link) for link in mesh.links}

        dstate: Dict[int, _DeviceState] = {}
        for device_id in range(mesh.num_devices):
            assignment = mesh_plan.assignment(device_id)
            inbound: Dict[int, List[int]] = {}
            outbound: Dict[int, List[int]] = {}
            for t in mesh_plan.transfers:
                if t.dst == device_id and t.dst_op is not None:
                    inbound.setdefault(t.dst_op, []).append(t.id)
                if t.src == device_id:
                    outbound.setdefault(t.src_op, []).append(t.id)
            dstate[device_id] = _DeviceState(
                device_id=device_id, assignment=assignment,
                timeline=timelines.get(device_id),
                inbound=inbound, outbound=outbound,
                gates=sorted(inbound.keys() | outbound.keys(), reverse=True))

        heap: List[Tuple[float, int, str, int]] = []
        seq = 0

        def push(at: float, tag: str, payload: int) -> None:
            nonlocal seq
            heapq.heappush(heap, (at, seq, tag, payload))
            seq += 1

        def advance(state: _DeviceState) -> None:
            timeline = state.timeline
            if timeline is None:
                state.done = True
                return
            segments = timeline.segments
            gates = state.gates
            while state.position < len(segments):
                if not state.pre_applied:
                    # No transfer touches the positions before the next
                    # gate: run them straight, in the same float order.
                    stop = gates[-1] if gates else len(segments)
                    t = state.t
                    for pre, duration in segments[state.position:stop]:
                        t += pre
                        t += duration
                    state.t = t
                    state.position = stop
                    if stop >= len(segments):
                        break
                    state.t += segments[stop][0]
                    state.pre_applied = True
                gating = state.inbound.get(state.position, ())
                missing = {tid for tid in gating
                           if tstate[tid].arrival is None}
                if missing:
                    state.waiting = missing
                    return
                if gating:
                    latest = max(gating,
                                 key=lambda tid: (tstate[tid].arrival,
                                                  tid))
                    arrival = tstate[latest].arrival
                    assert arrival is not None
                    if arrival > state.t:
                        kind = transfers[latest].kind
                        state.mesh_wait[kind] = (
                            state.mesh_wait.get(kind, 0.0)
                            + arrival - state.t)
                        state.t = arrival
                state.t += segments[state.position][1]
                for tid in state.outbound.get(state.position, ()):
                    push(state.t, "issue", tid)
                gates.pop()
                state.position += 1
                state.pre_applied = False
            state.t += timeline.tail_stall
            state.done = True

        def enqueue(tid: int, at: float, arrived: List[int],
                    dirty: Set[str]) -> None:
            st = tstate[tid]
            if st.hop >= len(st.hops):
                st.arrival = at
                arrived.append(tid)
            else:
                name = st.hops[st.hop].name
                links[name].waiting.append((at, tid))
                dirty.add(name)

        def try_start(name: str, now: float) -> None:
            ls = links[name]
            if ls.in_flight or not ls.waiting:
                return
            ready = [entry for entry in ls.waiting if entry[0] <= now]
            if not ready:
                return
            chosen = min(ready, key=lambda entry: (entry[0], entry[1]))
            ls.waiting.remove(chosen)
            _, tid = chosen
            wire = ls.link.wire_seconds(transfers[tid].nbytes)
            ls.in_flight = True
            ls.busy_until = now + wire
            ls.busy_seconds += wire
            ls.nbytes += transfers[tid].nbytes
            ls.transfers += 1
            push(now + wire, "hop", tid)

        device_order = list(dstate)
        if rng is not None:
            rng.shuffle(device_order)
        for device_id in device_order:
            advance(dstate[device_id])

        while heap:
            now = heap[0][0]
            batch: List[Tuple[float, int, str, int]] = []
            while heap and heap[0][0] == now:
                batch.append(heapq.heappop(heap))
            if rng is not None:
                rng.shuffle(batch)
            arrived: List[int] = []
            dirty: Set[str] = set()
            # 1) apply every mutation of this instant
            for _, _, tag, tid in batch:
                st = tstate[tid]
                if tag == "issue":
                    enqueue(tid, now, arrived, dirty)
                else:  # hop completed
                    ls = links[st.hops[st.hop].name]
                    ls.in_flight = False
                    dirty.add(ls.link.name)
                    st.hop += 1
                    enqueue(tid, now, arrived, dirty)
            # 2) freed / newly fed links pick their next transfer
            dirty_order = sorted(dirty)
            if rng is not None:
                rng.shuffle(dirty_order)
            for name in dirty_order:
                try_start(name, now)
            # 3) resume devices whose gates all arrived
            if arrived:
                resume_order = [d for d in dstate
                                if not dstate[d].done and dstate[d].waiting]
                if rng is not None:
                    rng.shuffle(resume_order)
                for device_id in resume_order:
                    state = dstate[device_id]
                    state.waiting = {tid for tid in state.waiting
                                     if tstate[tid].arrival is None}
                    if not state.waiting:
                        advance(state)

        stuck = [d for d, state in dstate.items() if not state.done]
        if stuck:
            details = {d: sorted(dstate[d].waiting) for d in stuck}
            raise RuntimeError(
                f"mesh deadlock: devices {details} wait on transfers that "
                "never arrive (check partition anchoring / SCA104)")

        barrier_arrivals = [
            tstate[t.id].arrival for t in mesh_plan.transfers
            if t.dst_op is None and tstate[t.id].arrival is not None]
        step = max([state.t for state in dstate.values()]
                   + [a for a in barrier_arrivals if a is not None]
                   + [0.0])

        devices = {}
        for device_id, state in dstate.items():
            timeline = state.timeline
            role = state.assignment.role if state.assignment else "idle"
            devices[device_id] = DeviceMeasure(
                device_id=device_id, role=role,
                compute_seconds=timeline.compute if timeline else 0.0,
                local_stall_seconds=timeline.stall if timeline else 0.0,
                mesh_wait=dict(state.mesh_wait), end_seconds=state.t)
        link_measures = {
            name: LinkMeasure(name=name, busy_seconds=ls.busy_seconds,
                              nbytes=ls.nbytes, transfers=ls.transfers)
            for name, ls in links.items() if ls.transfers > 0}
        return MeshResult(
            strategy=mesh_plan.strategy, topology=mesh_plan.topology,
            num_devices=mesh.num_devices,
            global_batch=mesh_plan.global_batch, step_seconds=step,
            devices=devices, links=link_measures)


def _timelines(mesh_plan: MeshPlan) -> Dict[int, DeviceTimeline]:
    """Per-device timelines, cached on the plan (bandwidth-free)."""
    cache: Dict[int, DeviceTimeline] = getattr(
        mesh_plan, "_timeline_cache", None) or {}
    if not cache:
        by_plan: Dict[int, DeviceTimeline] = {}
        for assignment in mesh_plan.assignments:
            key = id(assignment.plan)
            if key not in by_plan:
                by_plan[key] = extract_timeline(assignment)
            cache[assignment.device_id] = by_plan[key]
        mesh_plan._timeline_cache = cache  # type: ignore[attr-defined]
    return cache
