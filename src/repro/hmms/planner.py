"""The HMMS driver: five-step static memory planning (paper §4, Figure 3).

Step 1 (model splitting) happens before graph construction via
:func:`repro.core.transform.to_split_cnn`; step 2 (serialization) is the
graph builder + backward generator.  This module performs steps 3-5:

3. storage assignment + optimization  (:mod:`repro.hmms.storage`)
4. offload/prefetch planning          (:mod:`repro.hmms.offload` or the
   vDNN-style baseline in :mod:`repro.hmms.layerwise`)
5. static first-fit memory planning over the three pools
   (:mod:`repro.hmms.pools`)

The result is a :class:`MemoryPlan`: a per-op schedule of allocations,
frees, transfer starts and synchronizations, plus the exact peak footprint
of each pool — everything the event-driven simulator (:mod:`repro.sim`)
needs to replay a training step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..graph.ir import Graph
from ..graph.liveness import Lifetime, compute_lifetimes
from ..profile.cost import CostModel, OpCost
from ..profile.device import DeviceSpec, P100_NVLINK
from ..profile.offload_analysis import analyze_offloadability
from .layerwise import plan_layerwise
from .offload import OffloadPlan, plan_offload, plan_prefetch
from .pools import BumpPool, FirstFitPool
from .storage import StorageAssignment, assign_storage
from .tso import POOL_DEVICE_GENERAL, POOL_DEVICE_PARAM

__all__ = ["OpSchedule", "MemoryPlan", "HMMSPlanner", "PlanCache", "SCHEDULERS"]

SCHEDULERS = ("none", "layerwise", "hmms")


@dataclass
class OpSchedule:
    """Planned memory actions around one op (indices are TSO ids)."""

    op_index: int
    allocs_before: List[int] = field(default_factory=list)
    prefetch_allocs_before: List[int] = field(default_factory=list)
    prefetch_syncs_before: List[int] = field(default_factory=list)
    offload_starts: List[int] = field(default_factory=list)
    prefetch_starts: List[int] = field(default_factory=list)
    offload_syncs_after: List[int] = field(default_factory=list)
    frees_after: List[int] = field(default_factory=list)
    workspace_bytes: int = 0


@dataclass
class MemoryPlan:
    """Complete static plan for one training step."""

    graph: Graph
    assignment: StorageAssignment
    offload_plan: OffloadPlan
    schedule: List[OpSchedule]
    scheduler: str
    device_general_peak: int
    device_param_bytes: int
    host_pool_bytes: int          # static per-TSO host slots (paper §4.4)
    host_pool_peak: int           # with slot reuse after prefetch completes
    offload_fraction_used: float

    @property
    def device_peak(self) -> int:
        """Total device memory the plan requires (both device pools)."""
        return self.device_general_peak + self.device_param_bytes


class HMMSPlanner:
    """Drives steps 3-5 and assembles the :class:`MemoryPlan`.

    Parameters
    ----------
    device: device/interconnect model.
    scheduler: ``'hmms'`` (Algorithm 1), ``'layerwise'`` (vDNN baseline) or
        ``'none'`` (no offloading — the throughput baseline of Figure 8).
    inplace_relu / share_summation: the §4.2 storage optimizations.
    first_fit: use first-fit allocation (``False`` -> bump allocator,
        ablation only).
    grouped_sync: follow Algorithm 1 literally (all pending transfers
        synchronize together at the first non-negative capacity balance)
        instead of the default per-transfer FIFO refinement.

    The cap on offloaded bytes, as a fraction of candidate bytes, is the
    theoretical limit of the Figure-1 analysis (the paper's §6.2
    methodology).  The planner does not verify its plans; callers that
    gate on them compose ``verify_plan(plan, ...).raise_if_failed()``.
    """

    def __init__(
        self,
        device: DeviceSpec = P100_NVLINK,
        scheduler: str = "hmms",
        inplace_relu: bool = True,
        share_summation: bool = True,
        first_fit: bool = True,
        cost_model: Optional[CostModel] = None,
        layerwise_conv_only: bool = False,
        grouped_sync: bool = False,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise ValueError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
        self.device = device
        self.scheduler = scheduler
        self.inplace_relu = inplace_relu
        self.share_summation = share_summation
        self.first_fit = first_fit
        self.layerwise_conv_only = layerwise_conv_only
        self.grouped_sync = grouped_sync
        self.cost_model = cost_model if cost_model is not None else CostModel(device)

    # ------------------------------------------------------------------
    def plan(self, graph: Graph) -> MemoryPlan:
        graph.validate()
        assignment = assign_storage(
            graph,
            inplace_relu=self.inplace_relu,
            share_summation=self.share_summation,
        )
        lifetimes = compute_lifetimes(graph)
        fraction, profile = self._profile_once(graph)
        offload_plan = self._plan_transfers(graph, assignment, lifetimes,
                                            fraction, profile)
        schedule = self._build_schedule(graph, assignment, lifetimes, offload_plan)
        general_peak = self._simulate_pool(graph, assignment, schedule)
        param_bytes = assignment.total_bytes(POOL_DEVICE_PARAM)
        host_bytes = sum(t.size for t in offload_plan.transfers.values())
        host_peak = self._simulate_host_pool(offload_plan)
        return MemoryPlan(
            graph=graph, assignment=assignment, offload_plan=offload_plan,
            schedule=schedule, scheduler=self.scheduler,
            device_general_peak=general_peak,
            device_param_bytes=param_bytes,
            host_pool_bytes=host_bytes,
            host_pool_peak=host_peak,
            offload_fraction_used=fraction,
        )

    # ------------------------------------------------------------------
    def _profile_once(self, graph: Graph) -> Tuple[float, Dict[int, OpCost]]:
        """The offload cap and the per-op cost table step 4 plans from.

        §4.3 profiles each layer once and plans statically from that
        table, so this is the planner's only pricing.  Plans that move
        nothing — no offloading, or an inference graph (no tensor lives past
        the forward pass, so there is nothing an offload could hide
        behind) — read no duration and get an empty table.
        """
        if self.scheduler == "none" or not any(
                op.phase == "backward" for op in graph.ops):
            return 0.0, {}
        profile = self.cost_model.profile(graph)
        fraction = analyze_offloadability(
            graph, self.device, profile).offloadable_fraction
        return fraction, profile

    def _plan_transfers(self, graph: Graph, assignment: StorageAssignment,
                        lifetimes: Dict[int, Lifetime], fraction: float,
                        profile: Dict[int, OpCost]) -> OffloadPlan:
        if self.scheduler == "none" or fraction == 0.0:
            return OffloadPlan()
        if self.scheduler == "layerwise":
            return plan_layerwise(graph, assignment, lifetimes, fraction,
                                  conv_only=self.layerwise_conv_only)
        plan = plan_offload(graph, assignment, lifetimes, profile,
                            self.device, fraction,
                            grouped_sync=self.grouped_sync)
        return plan_prefetch(graph, assignment, lifetimes, profile,
                             self.device, plan,
                             grouped_sync=self.grouped_sync)

    # ------------------------------------------------------------------
    def _build_schedule(self, graph: Graph, assignment: StorageAssignment,
                        lifetimes: Dict[int, Lifetime],
                        offload_plan: OffloadPlan) -> List[OpSchedule]:
        num_ops = len(graph.ops)
        schedule = [OpSchedule(op_index=i, workspace_bytes=graph.ops[i].workspace_bytes)
                    for i in range(num_ops)]

        # Per-TSO alloc / free moments in the device general pool.
        for tso in assignment.tsos.values():
            if tso.pool != POOL_DEVICE_GENERAL:
                continue
            produce_indices = [lifetimes[t].produce_index for t in tso.tensor_ids]
            alloc_index = max(0, min(produce_indices))
            last_use = max(lifetimes[t].last_use for t in tso.tensor_ids)
            transfer = offload_plan.transfers.get(tso.id)
            schedule[alloc_index].allocs_before.append(tso.id)
            if transfer is None:
                schedule[min(last_use, num_ops - 1)].frees_after.append(tso.id)
            else:
                schedule[transfer.offload_start].offload_starts.append(tso.id)
                schedule[transfer.offload_sync].offload_syncs_after.append(tso.id)
                schedule[transfer.prefetch_start].prefetch_starts.append(tso.id)
                schedule[transfer.prefetch_start].prefetch_allocs_before.append(tso.id)
                schedule[transfer.prefetch_sync].prefetch_syncs_before.append(tso.id)
                schedule[min(last_use, num_ops - 1)].frees_after.append(tso.id)
        return schedule

    # ------------------------------------------------------------------
    def _simulate_host_pool(self, offload_plan: OffloadPlan) -> int:
        """First-fit peak of the host pinned pool with slot reuse.

        The paper allocates one static host slot per offloaded TSO
        (``host_pool_bytes``); this refinement notes that a slot is dead
        once its prefetch has been consumed, so slots can be reused —
        ``host_pool_peak <= host_pool_bytes`` always.
        """
        pool = FirstFitPool(name="host")
        events = []
        for transfer in offload_plan.transfers.values():
            events.append((transfer.offload_start, 0, "alloc", transfer))
            free_at = transfer.prefetch_sync
            if free_at is None:
                free_at = 1 << 60
            events.append((free_at, 1, "free", transfer))
        for _, _, action, transfer in sorted(events, key=lambda e: (e[0], e[1])):
            if action == "alloc":
                pool.alloc(transfer.size, transfer.tso_id)
            else:
                pool.free(transfer.tso_id)
        return pool.peak

    # ------------------------------------------------------------------
    def _simulate_pool(self, graph: Graph, assignment: StorageAssignment,
                       schedule: List[OpSchedule]) -> int:
        """Replay the schedule against the allocator to get the exact peak.

        Op workspaces share one persistent arena sized for the largest
        (cuDNN-style reuse): allocating and freeing a workspace around
        every op would fragment the pool with large transient blocks.
        """
        pool_cls = FirstFitPool if self.first_fit else BumpPool
        pool = pool_cls(name=POOL_DEVICE_GENERAL)
        sizes = {tso_id: assignment.tsos[tso_id].size
                 for tso_id in assignment.tsos}
        arena = max((entry.workspace_bytes for entry in schedule), default=0)
        if arena:
            pool.alloc(arena, "ws-arena")
        for entry in schedule:
            for tso_id in entry.allocs_before:
                pool.alloc(sizes[tso_id], (tso_id, "main"))
            for tso_id in entry.prefetch_allocs_before:
                pool.alloc(sizes[tso_id], (tso_id, "prefetch"))
            # --- op executes here ---
            for tso_id in entry.offload_syncs_after:
                pool.free((tso_id, "main"))
            for tso_id in entry.frees_after:
                tag = (tso_id, "prefetch") if ((tso_id, "prefetch") in pool._by_tag) \
                    else (tso_id, "main")
                pool.free(tag)
        return pool.peak


class PlanCache:
    """Memoizes ``(key) -> planned artifact`` so steady-state callers never
    replan.

    Planning a graph is pure — same graph, same planner, same plan — so a
    serving runtime that sees the same ``(model, split scheme, batch)``
    over and over only needs HMMS once per distinct key.  The cache is a
    plain dict plus hit/miss counters; the *value* is whatever the builder
    callable returns (the serving engine stores graph + plan + simulated
    latency together).

    ``capacity`` bounds the number of retained entries (FIFO eviction) so
    a pathological key stream cannot grow memory without bound.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("PlanCache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        entry = build()
        if entry is None:
            raise ValueError("PlanCache builders must not return None")
        # Counted only once the entry exists: a builder that raised built
        # nothing, and ``misses == len(cache) + evictions`` must survive it.
        self.misses += 1
        if len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[key] = entry
        return entry

    def keys(self) -> Tuple[Hashable, ...]:
        """The currently retained keys, oldest first."""
        return tuple(self._entries)
