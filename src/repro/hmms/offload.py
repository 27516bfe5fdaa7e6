"""Offload and prefetch planning (paper §4.3, HMMS step 4 — Algorithm 1).

The planner tracks an *offload capacity balance*: offloading a TSO costs
its size; executing an op gains ``exec_time * nvlink_bandwidth``.  The
compute stream synchronizes with the memory streams (the "end of offload",
after which the TSO is freed from the device pool) only at ops where the
balance is non-negative — by construction no outstanding transfer remains,
so the synchronization cannot stall computation.

Prefetch planning mirrors the same analysis backwards from the last
backward op: the "start of prefetch" is placed early enough that the
transfer completes before the consuming op, again without stalling.

A vDNN-style layer-wise planner (the paper's comparison baseline, §6.2) is
in :mod:`repro.hmms.layerwise`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..graph.ir import Graph
from ..graph.liveness import Lifetime
from ..profile.cost import OpCost
from ..profile.device import DeviceSpec
from .storage import StorageAssignment
from .tso import TSO

__all__ = ["TransferPlan", "OffloadPlan", "select_offload_candidates",
           "plan_offload", "plan_prefetch"]


@dataclass
class TransferPlan:
    """Planned transfer moments for one offloaded TSO.

    All fields are indices into ``graph.ops`` with these semantics:

    - ``offload_start``: the device->host copy is issued when this op
      *starts* executing (paper: "immediately after op starts executing").
    - ``offload_sync``: after this op's compute finishes, the compute
      stream waits for the copy, then the device TSO is freed.
    - ``prefetch_start``: the host->device copy is issued when this op
      starts executing (a fresh device TSO is allocated just before).
    - ``prefetch_sync``: before this op starts, the compute stream waits
      for the prefetch to complete.
    """

    tso_id: int
    size: int
    offload_start: int
    offload_sync: int
    prefetch_start: Optional[int] = None
    prefetch_sync: Optional[int] = None


@dataclass
class OffloadPlan:
    """The combined offload + prefetch schedule."""

    transfers: Dict[int, TransferPlan] = field(default_factory=dict)
    offloaded_bytes: int = 0
    candidate_bytes: int = 0
    # Balance trace for inspection/testing: (op_index, balance) at sync points.
    sync_points: List[int] = field(default_factory=list)


def select_offload_candidates(
    graph: Graph,
    assignment: StorageAssignment,
    lifetimes: Dict[int, Lifetime],
) -> List[TSO]:
    """TSOs worth offloading: device-general TSOs holding activations that
    live from the forward into the backward pass (Figure 1's "generated
    data"), in order of production.

    Saved tensors and forward outputs with backward consumers both qualify
    — the latter covers gradient-checkpointed graphs, whose boundary
    tensors are consumed by recompute ops rather than listed as saved.
    """
    candidates: List[TSO] = []
    seen: Set[int] = set()
    for op in graph.forward_ops():
        for tensor_id in list(op.saved) + list(op.outputs):
            tensor = graph.tensor(tensor_id)
            if tensor.kind not in ("activation", "input"):
                continue
            tso = assignment.tso_for_tensor(tensor_id)
            if tso.id in seen or tso.pool != "device_general":
                continue
            lifetime = lifetimes[tensor_id]
            if not lifetime.crosses_boundary():
                continue
            seen.add(tso.id)
            candidates.append(tso)
    return candidates


def _tso_last_forward_touch(graph: Graph, assignment: StorageAssignment,
                            lifetimes: Dict[int, Lifetime], tso: TSO) -> int:
    """Last forward op index that writes or reads any tensor of this TSO.

    Offload may only start once no further *write* happens (Algorithm 1);
    with tensor-level lifetimes the conservative moment is the last forward
    touch of any tensor mapped to the TSO (covers in-place rewrites)."""
    last = -1
    boundary = next(iter(lifetimes.values())).boundary
    for tensor_id in tso.tensor_ids:
        lifetime = lifetimes[tensor_id]
        if lifetime.produce_index <= boundary:
            last = max(last, lifetime.produce_index)
        last_forward = lifetime.last_forward_use
        if last_forward is not None:
            last = max(last, last_forward)
    return last


def plan_offload(
    graph: Graph,
    assignment: StorageAssignment,
    lifetimes: Dict[int, Lifetime],
    profile: Dict[int, OpCost],
    device: DeviceSpec,
    fraction_cap: float = 1.0,
    sync_horizon: int = 16,
    grouped_sync: bool = False,
) -> OffloadPlan:
    """Algorithm 1: plan offload starts and synchronization points.

    ``profile`` is the per-op cost table of
    :meth:`~repro.profile.cost.CostModel.profile` (§4.3's profiled
    execution times); planning only reads it.

    Two guards implement the paper's (intentionally omitted) "simple
    algorithmic logic to keep the ratio of offloaded and non-offloaded
    TSOs under the theoretical limit":

    - a global cap: total offloaded bytes never exceed ``fraction_cap`` of
      the candidate bytes (the §6.2 theoretical limit), and
    - a *local drain* guard: a TSO is offloaded only if the cumulative
      NVLink budget available within the next ``sync_horizon`` ops covers
      all offloads committed so far.  Without it, layers whose local
      generated/offload-able ratio is far above the average (the start of
      ResNet, Figure 1b) would push the capacity balance so deep that no
      synchronization — and therefore no free — happens until the end of
      the forward pass, destroying the memory benefit.

    ``grouped_sync=True`` follows the paper's Algorithm 1 literally: all
    pending transfers synchronize together at the first op where the
    capacity balance is non-negative.  The default refines the same
    principle per transfer: modelling the NVLink as a FIFO at its measured
    bandwidth, each TSO's synchronization is planned at the first op by
    which its own copy (and everything queued before it) has provably
    drained, so its device storage is released as early as safely
    possible.  Both modes plan zero-stall synchronizations; the grouped
    mode just frees later (see the ablation benchmark).
    """
    if not 0.0 <= fraction_cap <= 1.0:
        raise ValueError(f"fraction_cap must be in [0, 1], got {fraction_cap}")
    if sync_horizon < 1:
        raise ValueError(f"sync_horizon must be >= 1, got {sync_horizon}")
    candidates = select_offload_candidates(graph, assignment, lifetimes)
    candidate_bytes = sum(t.size for t in candidates)
    budget = fraction_cap * candidate_bytes
    ready_at = {
        tso.id: _tso_last_forward_touch(graph, assignment, lifetimes, tso)
        for tso in candidates
    }
    by_ready: Dict[int, List[TSO]] = {}
    for tso in candidates:
        by_ready.setdefault(ready_at[tso.id], []).append(tso)

    plan = OffloadPlan(candidate_bytes=candidate_bytes)
    forward_ops = graph.forward_ops()
    last_forward_index = len(forward_ops) - 1

    # Prefix sums of op durations: time_prefix[i] = compute-stream clock at
    # the start of op i (assuming, self-consistently, a stall-free plan).
    time_prefix = [0.0]
    for op in forward_ops:
        time_prefix.append(time_prefix[-1] + profile[op.id].seconds)
    gains_prefix = [t * device.nvlink_bandwidth for t in time_prefix]

    balance = 0.0
    link_free = 0.0              # FIFO-link model: when the D2H link drains
    pending: List[TransferPlan] = []
    offloaded_total = 0
    for index, op in enumerate(forward_ops):
        upcoming_gain = (
            gains_prefix[min(index + sync_horizon, len(forward_ops))]
            - gains_prefix[index]
        )
        for tso in by_ready.get(index, ()):  # no further writes after here
            if offloaded_total + tso.size > budget:
                continue
            if balance - tso.size + upcoming_gain < 0.0:
                continue  # local drain guard: balance could not recover
                          # (and thus no sync/free would happen) within the
                          # next ``sync_horizon`` ops
            transfer = TransferPlan(
                tso_id=tso.id, size=tso.size,
                offload_start=index, offload_sync=-1,
            )
            pending.append(transfer)
            plan.transfers[tso.id] = transfer
            offloaded_total += tso.size
            balance -= tso.size
            if not grouped_sync:
                # FIFO drain: the copy is issued when this op starts and
                # completes after everything queued ahead of it plus its
                # own bytes have crossed the link.
                start_time = max(link_free, time_prefix[index])
                done_time = start_time + tso.size / device.nvlink_bandwidth
                link_free = done_time
                sync_index = index
                while (sync_index < last_forward_index
                       and time_prefix[sync_index + 1] < done_time):
                    sync_index += 1
                transfer.offload_sync = sync_index
                plan.sync_points.append(sync_index)

        exec_time = profile[op.id].seconds
        balance += exec_time * device.nvlink_bandwidth

        if balance >= 0.0 or index == last_forward_index:
            if pending:
                if grouped_sync:
                    for transfer in pending:
                        transfer.offload_sync = index
                    plan.sync_points.append(index)
                balance = 0.0
                pending.clear()
    plan.offloaded_bytes = offloaded_total
    return plan


def plan_prefetch(
    graph: Graph,
    assignment: StorageAssignment,
    lifetimes: Dict[int, Lifetime],
    profile: Dict[int, OpCost],
    device: DeviceSpec,
    plan: OffloadPlan,
    grouped_sync: bool = False,
) -> OffloadPlan:
    """Plan prefetch starts mirroring the offload analysis (paper §4.3).

    ``grouped_sync=True`` is the paper-literal mirror of Algorithm 1,
    walking from the last backward op toward the boundary and starting
    pending prefetches whenever the capacity balance turns positive.  The
    default refines it per transfer: prefetches are served FIFO in use
    order on the H2D link, and each is given the *latest* issue op that
    still lets it (and everything behind it in the queue) finish before
    its consumer — stall-free and with minimal double-residency.
    """
    boundary = next(iter(lifetimes.values())).boundary if lifetimes else -1

    # First backward use (absolute op index) of each offloaded TSO.
    first_use: Dict[int, int] = {}
    for tso_id, transfer in plan.transfers.items():
        uses = []
        for tensor_id in assignment.tensors_of(tso_id):
            first_backward = lifetimes[tensor_id].first_backward_use
            if first_backward is not None:
                uses.append(first_backward)
        if not uses:
            raise ValueError(f"offloaded TSO {tso_id} has no backward use")
        first_use[tso_id] = min(uses)

    for tso_id, use_index in first_use.items():
        plan.transfers[tso_id].prefetch_sync = use_index

    first_backward_index = boundary + 1
    if grouped_sync:
        by_use: Dict[int, List[TransferPlan]] = {}
        for tso_id, use_index in first_use.items():
            by_use.setdefault(use_index, []).append(plan.transfers[tso_id])
        balance = 0.0
        pending: List[TransferPlan] = []
        for index in range(len(graph.ops) - 1, first_backward_index - 1, -1):
            op = graph.ops[index]
            for transfer in by_use.get(index, ()):  # data needed at this op
                pending.append(transfer)
                balance -= transfer.size
            exec_time = profile[op.id].seconds
            balance += exec_time * device.nvlink_bandwidth
            if balance >= 0.0 or index == first_backward_index:
                if pending:
                    for transfer in pending:
                        transfer.prefetch_start = index
                    balance = 0.0
                    pending.clear()
        return plan

    # Latest-feasible FIFO scheduling.  time_prefix[i] = stall-free clock at
    # the start of op i over the WHOLE serialized graph.
    time_prefix = [0.0]
    for op in graph.ops:
        time_prefix.append(time_prefix[-1] + profile[op.id].seconds)
    bandwidth = device.nvlink_bandwidth

    ordered = sorted(plan.transfers.values(), key=lambda t: first_use[t.tso_id])
    latest_done = float("inf")
    for transfer in reversed(ordered):
        deadline = min(time_prefix[first_use[transfer.tso_id]], latest_done)
        duration = transfer.size / bandwidth
        start_time = deadline - duration
        # Cannot start before the backward pass begins or before the TSO's
        # own offload has completed (sync op ends).
        earliest_index = max(first_backward_index, transfer.offload_sync + 1)
        earliest_time = time_prefix[earliest_index]
        start_time = max(start_time, earliest_time)
        # Map to the last op starting at or before start_time.
        index = earliest_index
        for candidate in range(first_use[transfer.tso_id], earliest_index - 1, -1):
            if time_prefix[candidate] <= start_time:
                index = candidate
                break
        transfer.prefetch_start = index
        # FIFO constraint for the transfer ahead of this one: it must have
        # drained by the time this one starts service.
        latest_done = start_time
    return plan
