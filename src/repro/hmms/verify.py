"""Independent static verification of HMMS memory plans.

HMMS's value proposition (paper §4) is that a *statically* planned
schedule of allocs, frees, offloads and prefetches is safe and stall-free
by construction.  This module is the second, independent line of defense
behind the event-driven simulator: a static-analysis pass that validates a
:class:`~repro.hmms.planner.MemoryPlan` without executing it.

It deliberately shares no replay code with :mod:`repro.sim.engine` — the
verifier and the simulator are written against the same *schedule
semantics* but with independent implementations, so each can catch bugs in
the other (and both can catch bugs in the planner).

Five invariant families are checked, each named so a violation can be
traced back to the family it breaks:

- ``residency``: a per-TSO state machine (unallocated -> resident ->
  offloading -> on-host -> prefetching -> resident -> freed) rejecting
  use-after-free, double-free, double-alloc, reads while the data is on
  the host or still in flight, and offloads of never-allocated TSOs.
- ``overlap``: an independent first-fit replay of the device general pool
  — live TSO address intervals must stay pairwise disjoint, and the
  replayed footprint (including transient ``workspace_bytes``) must stay
  within the plan's declared ``device_general_peak`` (and the device
  capacity, when one is given).
- ``transfer``: a FIFO link-model replay certifying the plan's zero-stall
  claim (every ``offload_sync`` after its copy has drained, every
  ``prefetch_sync`` met before the consuming op) and flagging any
  synchronization on a transfer that was never issued.
- ``refcount``: reconciliation against :func:`repro.graph.liveness.
  compute_lifetimes` — every alloc has exactly one free, nothing is freed
  before its last consumer, nothing is allocated after its first use, no
  op rewrites a shared TSO in place (in-place ReLU, ``grad_acc``) while an
  earlier tensor of that TSO still has a reader, and what outlives the
  step — parameters and the gradients no ``grad_acc`` folds into another —
  sits in the static parameter pool.
- ``completeness``: every offloaded TSO is prefetched (and synchronized)
  before its first backward use, or is provably dead in the backward pass.

Zero-stall violations are reported as *warnings* by default (a stall is a
performance bug, not a safety bug); ``strict_stalls=True`` promotes them
to errors.  Everything else is an error.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph.liveness import Lifetime, compute_lifetimes
from ..graph.registry import SHARE_NONE, op_def
from ..profile.cost import CostModel
from ..profile.device import DeviceSpec, P100_NVLINK
from .tso import POOL_DEVICE_GENERAL, POOL_DEVICE_PARAM

__all__ = [
    "FAMILY_RESIDENCY", "FAMILY_OVERLAP", "FAMILY_TRANSFER",
    "FAMILY_REFCOUNT", "FAMILY_COMPLETENESS", "INVARIANT_FAMILIES",
    "Violation", "VerificationReport", "PlanVerificationError", "verify_plan",
]

FAMILY_RESIDENCY = "residency"
FAMILY_OVERLAP = "overlap"
FAMILY_TRANSFER = "transfer"
FAMILY_REFCOUNT = "refcount"
FAMILY_COMPLETENESS = "completeness"
INVARIANT_FAMILIES = (
    FAMILY_RESIDENCY, FAMILY_OVERLAP, FAMILY_TRANSFER,
    FAMILY_REFCOUNT, FAMILY_COMPLETENESS,
)

# Residency states (strings, so messages read naturally).
_UNALLOCATED = "unallocated"
_RESIDENT = "resident"
_OFFLOADING = "offloading"
_ON_HOST = "on-host"
_PREFETCHING = "prefetching"
_FREED = "freed"


class PlanVerificationError(RuntimeError):
    """A memory plan violated at least one static invariant."""

    def __init__(self, report: "VerificationReport") -> None:
        super().__init__(report.render())
        self.report = report


@dataclass(frozen=True)
class Violation:
    """One broken invariant, tagged with the family it belongs to."""

    family: str
    message: str
    op_index: Optional[int] = None
    tso_id: Optional[int] = None
    severity: str = "error"            # error | warning

    def __str__(self) -> str:
        where = []
        if self.op_index is not None:
            where.append(f"op {self.op_index}")
        if self.tso_id is not None:
            where.append(f"TSO {self.tso_id}")
        location = f" [{', '.join(where)}]" if where else ""
        return f"{self.severity} ({self.family}){location}: {self.message}"


@dataclass
class VerificationReport:
    """Outcome of statically verifying one memory plan."""

    graph_name: str
    scheduler: str
    num_ops: int
    num_tsos: int
    num_transfers: int
    violations: List[Violation] = field(default_factory=list)

    @property
    def errors(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *error* was found (warnings do not fail a plan)."""
        return not self.errors

    @property
    def stall_free(self) -> bool:
        """True when the FIFO link replay found every sync met in time."""
        return not any(v.family == FAMILY_TRANSFER and "stall" in v.message
                       for v in self.violations)

    def families_violated(self) -> Tuple[str, ...]:
        return tuple(f for f in INVARIANT_FAMILIES
                     if any(v.family == f for v in self.errors))

    def render(self) -> str:
        lines = [
            f"plan verification: {self.graph_name} "
            f"(scheduler={self.scheduler}, {self.num_ops} ops, "
            f"{self.num_tsos} TSOs, {self.num_transfers} transfers)",
        ]
        for family in INVARIANT_FAMILIES:
            count = sum(1 for v in self.errors if v.family == family)
            status = "ok" if count == 0 else f"{count} violation(s)"
            lines.append(f"  {family:<13}: {status}")
        lines.append(f"  stall-free   : {'yes' if self.stall_free else 'no'}")
        for violation in self.violations:
            lines.append(f"  - {violation}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise PlanVerificationError(self)


# ----------------------------------------------------------------------
# Family 1 (+ the issuance half of family 3): residency state machine.
# ----------------------------------------------------------------------
class _TsoTrace:
    """Everything pass 1 learns about one TSO, for the later passes."""

    __slots__ = ("alloc_indices", "free_indices", "offload_starts",
                 "offload_syncs", "prefetch_starts", "prefetch_syncs")

    def __init__(self) -> None:
        self.alloc_indices: List[int] = []
        self.free_indices: List[int] = []
        self.offload_starts: List[int] = []
        self.offload_syncs: List[int] = []
        self.prefetch_starts: List[int] = []
        self.prefetch_syncs: List[int] = []


def _check_residency(plan, out: List[Violation]) -> Dict[int, _TsoTrace]:
    graph = plan.graph
    assignment = plan.assignment
    state: Dict[int, str] = {}
    traces: Dict[int, _TsoTrace] = {}

    def trace(tso_id: int) -> _TsoTrace:
        if tso_id not in traces:
            traces[tso_id] = _TsoTrace()
        return traces[tso_id]

    def err(family: str, message: str, index: int, tso_id: int) -> None:
        out.append(Violation(family, message, op_index=index, tso_id=tso_id))

    def known(tso_id: int, index: int) -> bool:
        if tso_id not in assignment.tsos:
            err(FAMILY_RESIDENCY,
                f"schedule references TSO {tso_id} which does not exist in "
                "the storage assignment", index, tso_id)
            return False
        return True

    for index, entry in enumerate(plan.schedule):
        if entry.op_index != index:
            out.append(Violation(
                FAMILY_COMPLETENESS,
                f"schedule entry {index} claims op_index {entry.op_index}",
                op_index=index))
        for tso_id in entry.allocs_before:
            if not known(tso_id, index):
                continue
            trace(tso_id).alloc_indices.append(index)
            current = state.get(tso_id, _UNALLOCATED)
            if current != _UNALLOCATED:
                err(FAMILY_RESIDENCY,
                    f"double alloc: TSO {tso_id} allocated while {current}",
                    index, tso_id)
            state[tso_id] = _RESIDENT
        for tso_id in entry.prefetch_allocs_before:
            if not known(tso_id, index):
                continue
            current = state.get(tso_id, _UNALLOCATED)
            if current != _ON_HOST:
                err(FAMILY_RESIDENCY,
                    f"prefetch-alloc of TSO {tso_id} while {current} "
                    "(its data is not on the host)", index, tso_id)
            state[tso_id] = _PREFETCHING
        for tso_id in entry.offload_starts:
            if not known(tso_id, index):
                continue
            trace(tso_id).offload_starts.append(index)
            current = state.get(tso_id, _UNALLOCATED)
            if current != _RESIDENT:
                err(FAMILY_RESIDENCY,
                    f"offload of TSO {tso_id} while {current}", index, tso_id)
            state[tso_id] = _OFFLOADING
        for tso_id in entry.prefetch_starts:
            if not known(tso_id, index):
                continue
            trace(tso_id).prefetch_starts.append(index)
            if state.get(tso_id, _UNALLOCATED) != _PREFETCHING:
                err(FAMILY_RESIDENCY,
                    f"prefetch of TSO {tso_id} issued without a "
                    "prefetch-alloc", index, tso_id)
        for tso_id in entry.prefetch_syncs_before:
            if not known(tso_id, index):
                continue
            trace(tso_id).prefetch_syncs.append(index)
            if not trace(tso_id).prefetch_starts:
                err(FAMILY_TRANSFER,
                    f"op {index} syncs on a prefetch of TSO {tso_id} that "
                    "was never issued", index, tso_id)
            elif state.get(tso_id, _UNALLOCATED) != _PREFETCHING:
                err(FAMILY_RESIDENCY,
                    f"prefetch sync of TSO {tso_id} while "
                    f"{state.get(tso_id, _UNALLOCATED)}", index, tso_id)
            state[tso_id] = _RESIDENT

        # The op executes: every device-general TSO it touches must hold
        # valid device data.  RESIDENT is valid; OFFLOADING too (an
        # offload is a copy — the device bytes stay in place until the
        # end-of-offload synchronization frees them).
        op = graph.ops[index]
        for tensor_id in list(op.inputs) + list(op.outputs):
            tso = assignment.tsos.get(assignment.tso_of.get(tensor_id))
            if tso is None or tso.pool != POOL_DEVICE_GENERAL:
                continue
            current = state.get(tso.id, _UNALLOCATED)
            if current in (_RESIDENT, _OFFLOADING):
                continue
            tensor = graph.tensor(tensor_id)
            if current == _FREED:
                message = (f"use-after-free: op {op.name!r} touches tensor "
                           f"{tensor.name!r} whose TSO {tso.id} was already "
                           "freed")
            elif current == _UNALLOCATED:
                message = (f"op {op.name!r} touches tensor {tensor.name!r} "
                           f"whose TSO {tso.id} was never allocated")
            else:
                message = (f"op {op.name!r} touches tensor {tensor.name!r} "
                           f"whose TSO {tso.id} is {current}")
            err(FAMILY_RESIDENCY, message, index, tso.id)

        for tso_id in entry.offload_syncs_after:
            if not known(tso_id, index):
                continue
            trace(tso_id).offload_syncs.append(index)
            if not trace(tso_id).offload_starts:
                err(FAMILY_TRANSFER,
                    f"op {index} syncs on an offload of TSO {tso_id} that "
                    "was never issued", index, tso_id)
            elif state.get(tso_id, _UNALLOCATED) != _OFFLOADING:
                err(FAMILY_RESIDENCY,
                    f"offload sync of TSO {tso_id} while "
                    f"{state.get(tso_id, _UNALLOCATED)}", index, tso_id)
            state[tso_id] = _ON_HOST
        for tso_id in entry.frees_after:
            if not known(tso_id, index):
                continue
            trace(tso_id).free_indices.append(index)
            current = state.get(tso_id, _UNALLOCATED)
            if current == _FREED:
                err(FAMILY_RESIDENCY,
                    f"double free of TSO {tso_id}", index, tso_id)
            elif current != _RESIDENT:
                err(FAMILY_RESIDENCY,
                    f"free of TSO {tso_id} while {current}", index, tso_id)
            state[tso_id] = _FREED
    return traces


# ----------------------------------------------------------------------
# Family 2: address-interval overlap + capacity accounting.
# ----------------------------------------------------------------------
def _check_overlap(plan, capacity: Optional[int], out: List[Violation]) -> None:
    sizes = {tso_id: tso.size for tso_id, tso in plan.assignment.tsos.items()}
    # Free gaps below ``high_water`` (the end of the highest non-empty live
    # interval): sorted parallel start/end lists, no two touching.  Live
    # intervals and gaps tile [0, high_water), so the live bytes plus the
    # gap bytes equal the high water exactly when no two intervals overlap.
    gap_starts: List[int] = []
    gap_ends: List[int] = []
    gap_bytes = 0
    high_water = 0
    placed: Dict[object, Tuple[int, int]] = {}  # key -> (offset, size)
    live_bytes = 0
    peak_footprint = 0                         # max(high water, live + ws)

    def place(key: object, tso_id: int, index: int) -> None:
        nonlocal gap_bytes, high_water, live_bytes, peak_footprint
        if key in placed or tso_id not in sizes:
            return                             # reported by pass 1 already
        size = sizes[tso_id]
        offset = 0
        if size:
            for position, start in enumerate(gap_starts):
                if gap_ends[position] - start >= size:
                    offset = start
                    gap_bytes -= size
                    if gap_ends[position] - start == size:
                        del gap_starts[position]
                        del gap_ends[position]
                    else:
                        gap_starts[position] += size
                    break
            else:
                offset = high_water
                high_water += size
        placed[key] = (offset, size)
        live_bytes += size
        if live_bytes + gap_bytes != high_water:
            out.append(Violation(
                FAMILY_OVERLAP,
                f"live address intervals overlap placing TSO {tso_id} at "
                f"[{offset}, {offset + size})", op_index=index, tso_id=tso_id))
        peak_footprint = max(peak_footprint, high_water, live_bytes)

    def release(key: object) -> None:
        nonlocal gap_bytes, high_water, live_bytes
        entry = placed.pop(key, None)
        if entry is None:
            return                             # reported by pass 1 already
        start, size = entry
        end = start + size
        live_bytes -= size
        if not size:
            return
        gap_bytes += size
        position = bisect.bisect_left(gap_starts, start)
        if position < len(gap_starts) and gap_starts[position] == end:
            end = gap_ends.pop(position)
            gap_starts.pop(position)
        if position and gap_ends[position - 1] == start:
            position -= 1
            start = gap_starts.pop(position)
            gap_ends.pop(position)
        if end == high_water:                  # the gap reaches the top
            gap_bytes -= end - start
            high_water = start
        else:
            gap_starts.insert(position, start)
            gap_ends.insert(position, end)

    for index, entry in enumerate(plan.schedule):
        for tso_id in entry.allocs_before:
            place((tso_id, "main"), tso_id, index)
        for tso_id in entry.prefetch_allocs_before:
            place((tso_id, "prefetch"), tso_id, index)
        if entry.workspace_bytes:
            peak_footprint = max(peak_footprint,
                                 live_bytes + entry.workspace_bytes)
        for tso_id in entry.offload_syncs_after:
            release((tso_id, "main"))
        for tso_id in entry.frees_after:
            if (tso_id, "prefetch") in placed:
                release((tso_id, "prefetch"))
            else:
                release((tso_id, "main"))

    if peak_footprint > plan.device_general_peak:
        out.append(Violation(
            FAMILY_OVERLAP,
            f"replayed pool footprint {peak_footprint} exceeds the plan's "
            f"declared device_general_peak {plan.device_general_peak} "
            "(live TSO bytes + transient workspace)"))
    if capacity is not None:
        required = max(peak_footprint, plan.device_general_peak) \
            + plan.device_param_bytes
        if required > capacity:
            out.append(Violation(
                FAMILY_OVERLAP,
                f"plan requires {required} device bytes but the pool "
                f"capacity is {capacity}"))


# ----------------------------------------------------------------------
# Family 3: transfer feasibility over the FIFO link model.
# ----------------------------------------------------------------------
def _check_transfers(plan, device: DeviceSpec, cost_model: CostModel,
                     traces: Dict[int, _TsoTrace], strict_stalls: bool,
                     out: List[Violation]) -> None:
    graph = plan.graph
    sizes = {tso_id: tso.size for tso_id, tso in plan.assignment.tsos.items()}
    severity = "error" if strict_stalls else "warning"

    # Stall-free compute clock at the start of each op (the plan's claim).
    time_prefix = [0.0]
    for op in graph.ops:
        time_prefix.append(time_prefix[-1] + cost_model.cost(graph, op).seconds)

    # Replay both link directions as FIFO queues at NVLink bandwidth, in
    # the exact order the simulator issues copies (entry order; offloads
    # before prefetches within one entry).  Full duplex when the device
    # has two memory streams, a single shared queue otherwise.
    duplex = device.num_memory_streams >= 2
    link_free = [0.0, 0.0]
    done: Dict[Tuple[int, str], float] = {}
    for index, entry in enumerate(plan.schedule):
        for kind, tso_ids in (("offload", entry.offload_starts),
                              ("prefetch", entry.prefetch_starts)):
            link = (0 if kind == "offload" else 1) if duplex else 0
            for tso_id in tso_ids:
                if tso_id not in sizes or (tso_id, kind) in done:
                    continue
                start = max(link_free[link], time_prefix[index])
                end = start + sizes[tso_id] / device.nvlink_bandwidth
                link_free[link] = end
                done[(tso_id, kind)] = end

    def tolerance(value: float) -> float:
        return 1e-9 * max(1.0, abs(value))

    for tso_id, trace in sorted(traces.items()):
        if trace.offload_starts and not trace.offload_syncs:
            out.append(Violation(
                FAMILY_TRANSFER,
                f"offload of TSO {tso_id} issued at op "
                f"{trace.offload_starts[0]} is never synchronized",
                op_index=trace.offload_starts[0], tso_id=tso_id))
        if trace.prefetch_starts and not trace.prefetch_syncs:
            out.append(Violation(
                FAMILY_TRANSFER,
                f"prefetch of TSO {tso_id} issued at op "
                f"{trace.prefetch_starts[0]} is never synchronized",
                op_index=trace.prefetch_starts[0], tso_id=tso_id))
        for sync_index in trace.offload_syncs:
            if not trace.offload_starts:
                continue                       # never-issued: flagged in pass 1
            if sync_index < min(trace.offload_starts):
                out.append(Violation(
                    FAMILY_TRANSFER,
                    f"offload sync of TSO {tso_id} at op {sync_index} "
                    f"precedes its issue at op {min(trace.offload_starts)}",
                    op_index=sync_index, tso_id=tso_id))
                continue
            finish = done.get((tso_id, "offload"))
            deadline = time_prefix[sync_index + 1]
            if finish is not None and finish > deadline + tolerance(deadline):
                out.append(Violation(
                    FAMILY_TRANSFER,
                    f"offload of TSO {tso_id} drains at t={finish:.6g} but "
                    f"its sync at op {sync_index} expects the link clear by "
                    f"t={deadline:.6g} — the compute stream would stall",
                    op_index=sync_index, tso_id=tso_id, severity=severity))
        for sync_index in trace.prefetch_syncs:
            if not trace.prefetch_starts:
                continue                       # never-issued: flagged in pass 1
            if sync_index < min(trace.prefetch_starts):
                out.append(Violation(
                    FAMILY_TRANSFER,
                    f"prefetch sync of TSO {tso_id} at op {sync_index} "
                    f"precedes its issue at op {min(trace.prefetch_starts)}",
                    op_index=sync_index, tso_id=tso_id))
                continue
            finish = done.get((tso_id, "prefetch"))
            deadline = time_prefix[sync_index]
            if finish is not None and finish > deadline + tolerance(deadline):
                out.append(Violation(
                    FAMILY_TRANSFER,
                    f"prefetch of TSO {tso_id} arrives at t={finish:.6g}, "
                    f"after op {sync_index} starts at t={deadline:.6g} — "
                    "the compute stream would stall",
                    op_index=sync_index, tso_id=tso_id, severity=severity))


# ----------------------------------------------------------------------
# Family 4: refcount reconciliation against tensor lifetimes.
# ----------------------------------------------------------------------
def _check_refcounts(plan, lifetimes: Dict[int, Lifetime],
                     traces: Dict[int, _TsoTrace],
                     out: List[Violation]) -> None:
    num_ops = len(plan.graph.ops)
    for tso in plan.assignment.tsos.values():
        if tso.pool != POOL_DEVICE_GENERAL:
            continue
        trace = traces.get(tso.id, _TsoTrace())
        if len(trace.alloc_indices) != 1:
            out.append(Violation(
                FAMILY_REFCOUNT,
                f"TSO {tso.id} is allocated {len(trace.alloc_indices)} "
                "times; every TSO must be allocated exactly once",
                tso_id=tso.id))
        if len(trace.free_indices) != 1:
            out.append(Violation(
                FAMILY_REFCOUNT,
                f"TSO {tso.id} is freed {len(trace.free_indices)} times; "
                "every alloc must have exactly one free",
                tso_id=tso.id))
        lives = [lifetimes[t] for t in tso.tensor_ids if t in lifetimes]
        if not lives:
            continue
        last_use = min(max(l.last_use for l in lives), num_ops - 1)
        first_touch = max(0, min(l.produce_index for l in lives))
        if trace.free_indices and min(trace.free_indices) < last_use:
            out.append(Violation(
                FAMILY_REFCOUNT,
                f"TSO {tso.id} is freed at op {min(trace.free_indices)} "
                f"before its last consumer at op {last_use}",
                op_index=min(trace.free_indices), tso_id=tso.id))
        if trace.alloc_indices and min(trace.alloc_indices) > first_touch:
            out.append(Violation(
                FAMILY_REFCOUNT,
                f"TSO {tso.id} is allocated at op "
                f"{min(trace.alloc_indices)}, after its first touch at op "
                f"{first_touch}",
                op_index=min(trace.alloc_indices), tso_id=tso.id))


def _check_sharing(plan, lifetimes: Dict[int, Lifetime],
                    out: List[Violation]) -> None:
    """Refcount family, the part no schedule shows: which tensors were
    mapped onto one TSO, and into which pool."""
    graph = plan.graph
    ops = graph.ops
    tsos = plan.assignment.tsos

    # An op that writes bytes of its own into a TSO ends every tensor the
    # TSO held before; a view or shared summation term only renames them.
    for tso in tsos.values():
        if len(tso.tensor_ids) < 2:
            continue
        lives = sorted((lifetimes[t] for t in tso.tensor_ids
                        if t in lifetimes), key=lambda l: l.produce_index)
        held: Optional[Lifetime] = None      # latest-read earlier tensor
        for produce, group in itertools.groupby(
                lives, key=lambda l: l.produce_index):
            written = list(group)
            if produce >= 0 and held is not None and held.last_use > produce:
                writer = ops[produce]
                definition = op_def(writer.op_type)
                if not (definition.free and definition.sharing != SHARE_NONE):
                    out.append(Violation(
                        FAMILY_REFCOUNT,
                        f"op {writer.name!r} writes tensor "
                        f"{graph.tensor(written[0].tensor_id).name!r} into "
                        f"TSO {tso.id} while tensor "
                        f"{graph.tensor(held.tensor_id).name!r} of the same "
                        f"TSO is still read at op {held.last_use}",
                        op_index=produce, tso_id=tso.id))
            held = max([held, *written] if held else written,
                       key=lambda l: l.last_use)

    folded = {tensor_id for op in ops if op.op_type == "grad_acc"
              for tensor_id in op.inputs}
    for tensor in graph.tensors.values():
        if not (tensor.kind in ("parameter", "constant") or (
                tensor.kind == "gradient" and tensor.id not in folded)):
            continue
        tso = tsos.get(plan.assignment.tso_of.get(tensor.id))
        if tso is not None and tso.pool != POOL_DEVICE_PARAM:
            out.append(Violation(
                FAMILY_REFCOUNT,
                f"tensor {tensor.name!r} ({tensor.kind}) outlives the step "
                f"but its TSO {tso.id} is in the {tso.pool} pool, which the "
                "schedule frees", tso_id=tso.id))


# ----------------------------------------------------------------------
# Family 5: schedule completeness for offloaded TSOs.
# ----------------------------------------------------------------------
def _check_completeness(plan, lifetimes: Dict[int, Lifetime],
                        traces: Dict[int, _TsoTrace],
                        out: List[Violation]) -> None:
    for tso_id, trace in sorted(traces.items()):
        if not trace.offload_starts:
            continue
        tso = plan.assignment.tsos.get(tso_id)
        if tso is None:
            continue
        backward_uses = [
            lifetimes[t].first_backward_use for t in tso.tensor_ids
            if t in lifetimes and lifetimes[t].first_backward_use is not None
        ]
        if not backward_uses:
            continue                           # provably dead after offload
        first_backward = min(backward_uses)
        if not trace.prefetch_starts or not trace.prefetch_syncs:
            out.append(Violation(
                FAMILY_COMPLETENESS,
                f"offloaded TSO {tso_id} is consumed at backward op "
                f"{first_backward} but is never prefetched back",
                op_index=first_backward, tso_id=tso_id))
            continue
        if min(trace.prefetch_syncs) > first_backward:
            out.append(Violation(
                FAMILY_COMPLETENESS,
                f"TSO {tso_id} prefetch is synchronized at op "
                f"{min(trace.prefetch_syncs)}, after its first backward "
                f"use at op {first_backward}",
                op_index=min(trace.prefetch_syncs), tso_id=tso_id))


# ----------------------------------------------------------------------
def verify_plan(
    plan,
    device: Optional[DeviceSpec] = None,
    cost_model: Optional[CostModel] = None,
    capacity: Optional[int] = None,
    strict_stalls: bool = False,
) -> VerificationReport:
    """Statically verify a :class:`~repro.hmms.planner.MemoryPlan`.

    Parameters
    ----------
    plan: the plan to verify (it is not executed or modified).
    device: interconnect/memory model for the transfer-feasibility replay;
        defaults to the planner's default testbed.
    cost_model: op cost model for the stall-free compute clock; defaults
        to ``CostModel(device)``.
    capacity: optional device pool capacity (bytes) the plan must fit in.
    strict_stalls: promote zero-stall violations from warnings to errors.
    """
    device = device if device is not None else P100_NVLINK
    cost_model = cost_model if cost_model is not None else CostModel(device)
    violations: List[Violation] = []
    traces = _check_residency(plan, violations)
    _check_overlap(plan, capacity, violations)
    _check_transfers(plan, device, cost_model, traces, strict_stalls,
                     violations)
    lifetimes = compute_lifetimes(plan.graph)
    _check_refcounts(plan, lifetimes, traces, violations)
    _check_sharing(plan, lifetimes, violations)
    _check_completeness(plan, lifetimes, traces, violations)
    return VerificationReport(
        graph_name=plan.graph.name,
        scheduler=plan.scheduler,
        num_ops=len(plan.schedule),
        num_tsos=len(plan.assignment.tsos),
        num_transfers=len(plan.offload_plan.transfers),
        violations=violations,
    )
