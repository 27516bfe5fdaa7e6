"""Multi-tenant fleet serving: N engines co-resident on one device.

Split-CNN's memory reduction turns into *fleet* headroom: the smaller
each model's forward peak, the more models (and the bigger their
batches) one accelerator can host at once.  This module grows the
single-tenant ``queue -> batcher -> engine`` pipeline into a fleet
runtime (``Server`` is its one-tenant, flush-only front):

- **Tenants**: each :class:`TenantConfig` names a model variant (zoo
  name x split scheme), an SLO class (deadline tier -> flush timeout),
  an admission quota, and an offered rate.  Split and unsplit variants
  of the same model are distinct tenants — the scheduler picks the
  split config per tenant, which is SmartSplit's latency-memory search
  moved into the serving loop.
- **Shared memory accounting**: one :class:`DeviceLedger` holds the
  modelled device's capacity.  Every replica reserves the HMMS plan
  peak of its tenant's largest bucket; the fleet shrinks per-tenant
  bucket caps at startup until all co-resident reservations fit, and
  every later scale-up must fit the ledger or it is refused.
- **Continuous batching**: a dispatched batch executes as a sequence of
  wavefront steps (the graph's dependency levels).  Between steps the
  replica admits queued requests into the in-flight batch's free slots
  — each joiner still runs its own full complement of steps — instead
  of waiting for the next full-batch/flush dispatch.  Padding slots
  become served images.
- **Autoscaling**: a queue-depth + windowed-p99 policy adds replicas
  (when the ledger has room) and retires idle ones.

Everything runs on the simulated clock: the same tenant set, trace and
seed produce byte-identical metrics, which is what lets the soak bench
assert exact per-tenant accounting over a million requests.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import GRID_OF_SPLITS
from ..graph.ir import Graph
from ..hmms import PlanCache
from ..profile.device import DeviceSpec, P100_NVLINK
from .batcher import DynamicBatcher
from .engine import ServingEngine
from .metrics import ServingMetrics, percentile
from .queue import AdmissionQueue
from .request import DenseRequest, Request
from .slo import STANDARD, SLOClass

__all__ = [
    "TenantConfig", "DeviceLedger", "FleetMetrics", "FleetScheduler",
    "wavefront_steps",
]

#: The autoscaler scales up when a tenant's queued images exceed this
#: many bucket caps (a batch's worth of work is waiting that the current
#: replicas cannot absorb) ...
_SCALE_UP_QUEUE_FACTOR = 1.0
#: ... or when the p99 over this sliding window (simulated seconds)
#: breaches the tenant's deadline.
_SLO_WINDOW = 1.0


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class TenantConfig:
    """One tenant: a model variant served under an SLO and a quota."""

    name: str
    model: str                          # zoo model name
    split: int = 1                      # total patches (1 = unsplit)
    split_depth: float = 0.5
    slo: SLOClass = STANDARD
    rps: float = 100.0                  # offered Poisson rate (loadgen)
    request_size: int = 1               # images per request
    queue_depth: int = 256              # admission quota (requests)
    max_replicas: int = 4
    batch_cap: int = 4096               # upper bound for capacity search

    def __post_init__(self) -> None:
        # ``not x > 0`` and the chained range check are False for NaN too.
        if not (self.rps > 0 and math.isfinite(self.rps)):
            raise ValueError(f"tenant {self.name!r}: rps must be positive "
                             f"and finite, got {self.rps}")
        if self.split not in GRID_OF_SPLITS:
            raise ValueError(f"tenant {self.name!r}: split must be one of "
                             f"{sorted(GRID_OF_SPLITS)}, got {self.split}")
        if not 0.0 <= self.split_depth <= 1.0:
            raise ValueError(f"tenant {self.name!r}: split_depth must be in "
                             f"[0, 1], got {self.split_depth}")
        if self.max_replicas < 1:
            raise ValueError(
                f"tenant {self.name!r}: max_replicas must be >= 1, "
                f"got {self.max_replicas}")

    @property
    def variant(self) -> str:
        """Human label for the model variant this tenant serves."""
        if self.split <= 1:
            return self.model
        return f"{self.model}/split{self.split}@{self.split_depth:g}"


# ----------------------------------------------------------------------
# Shared device memory
# ----------------------------------------------------------------------
class DeviceLedger:
    """Byte-exact accounting of one device's memory across the fleet.

    Each replica holds a standing reservation — the HMMS plan peak of
    its tenant's largest servable bucket — for as long as it exists, so
    a replica can always execute its biggest batch without a surprise
    OOM.  ``reserve`` refuses rather than overcommits; the fleet treats
    a refusal as "no scale-up for you".
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1 byte, got {capacity}")
        self.capacity = capacity
        self._reservations: Dict[Tuple[str, int], int] = {}
        self.peak_reserved = 0

    @property
    def reserved(self) -> int:
        return sum(self._reservations.values())

    @property
    def free(self) -> int:
        return self.capacity - self.reserved

    def reserve(self, tenant: str, replica: int, nbytes: int) -> bool:
        key = (tenant, replica)
        if key in self._reservations:
            raise ValueError(f"replica {key} already holds a reservation")
        if nbytes > self.free:
            return False
        self._reservations[key] = nbytes
        self.peak_reserved = max(self.peak_reserved, self.reserved)
        return True

    def release(self, tenant: str, replica: int) -> None:
        del self._reservations[(tenant, replica)]

    def reservation_of(self, tenant: str) -> int:
        return sum(nbytes for (owner, _), nbytes
                   in self._reservations.items() if owner == tenant)


# ----------------------------------------------------------------------
# Wavefront steps
# ----------------------------------------------------------------------
def wavefront_steps(graph: Graph) -> int:
    """Number of wavefronts (dependency levels) of ``graph``.

    Continuous batching admits requests at wavefront boundaries — the
    instants the parallel executor synchronizes anyway — so the step
    count is the graph's critical-path length in levels, not an
    arbitrary quantum.
    """
    deps = graph.op_dependencies()
    depth: Dict[int, int] = {}
    for op in graph.ops:
        depth[op.id] = 1 + max((depth[d] for d in deps[op.id]), default=0)
    return max(depth.values(), default=1)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class FleetMetrics:
    """Per-tenant :class:`ServingMetrics` plus fleet-level counters."""

    def __init__(self, tenant_names: List[str]) -> None:
        self.per_tenant: Dict[str, ServingMetrics] = {
            name: ServingMetrics() for name in tenant_names}
        self.joins: Dict[str, int] = {name: 0 for name in tenant_names}
        self.scale_ups: Dict[str, int] = {name: 0 for name in tenant_names}
        self.scale_downs: Dict[str, int] = {name: 0 for name in tenant_names}
        self.peak_replicas: Dict[str, int] = {name: 1 for name in tenant_names}
        self.scale_up_refusals = 0      # ledger said no

    def tenant(self, name: str) -> ServingMetrics:
        return self.per_tenant[name]

    # ------------------------------------------------------------------
    def check_accounting(self,
                         still_queued: Optional[Dict[str, int]] = None,
                         ) -> None:
        """Per-tenant and global conservation of requests.

        Every tenant individually, then the fleet-wide sums, must satisfy
        ``arrived == rejected + expired + completed + still_queued`` —
        a shared-resource runtime has strictly more ways to lose a
        request (joins, replica retirement, ledger refusals) than a
        single-tenant one, so the invariant is checked at both scopes.
        """
        still_queued = still_queued or {}
        totals = ServingMetrics()
        for name, metrics in self.per_tenant.items():
            queued = still_queued.get(name, 0)
            try:
                metrics.check_accounting(still_queued=queued)
            except AssertionError as error:
                raise AssertionError(f"tenant {name!r}: {error}") from None
            totals.arrived += metrics.arrived
            totals.rejected_queue_full += metrics.rejected_queue_full
            totals.expired += metrics.expired
            totals.completed_requests += metrics.completed_requests
        totals.check_accounting(
            still_queued=sum(still_queued.values()))


# ----------------------------------------------------------------------
# Runtime state (internal)
# ----------------------------------------------------------------------
@dataclass
class _Replica:
    """One execution slot of a tenant's engine on the shared device."""

    id: int
    bucket: int = 0                     # 0 = idle
    dense: bool = False                 # serving a dense (patch) request
    step_index: int = 0
    step_time: float = 0.0
    steps_per_pass: int = 1
    resident_images: int = 0
    # step number -> requests completing at that boundary
    completions: Dict[int, List[Request]] = field(default_factory=dict)
    idle_since: float = 0.0

    @property
    def idle(self) -> bool:
        return self.bucket == 0


@dataclass
class _Tenant:
    """Per-tenant runtime: engine, queue, batcher, metrics, replicas, SLO
    window."""

    config: TenantConfig
    engine: ServingEngine
    queue: AdmissionQueue
    batcher: DynamicBatcher
    metrics: ServingMetrics             # this tenant's FleetMetrics entry
    bucket_cap: int                     # fleet-capped largest bucket
    reservation: int                    # ledger bytes per replica
    replicas: List[_Replica] = field(default_factory=list)
    idle_replicas: int = 0              # how many of ``replicas`` are idle
    next_replica_id: int = 0
    next_check_at: float = float("inf")
    # (completion_time, latency) of recent completions for windowed p99
    window: List[Tuple[float, float]] = field(default_factory=list)
    steps_by_bucket: Dict[int, int] = field(default_factory=dict)

    def in_flight(self) -> int:
        return sum(len(batch) for replica in self.replicas
                   for batch in replica.completions.values())


# ----------------------------------------------------------------------
# The fleet scheduler
# ----------------------------------------------------------------------
class FleetScheduler:
    """Hosts N serving engines on one simulated device.

    Parameters
    ----------
    tenants: the fleet's tenant configs (order is scheduling priority on
        ties, and the shrink order tiebreak for the startup capacity
        partition).
    device: the shared accelerator; its ``memory_capacity`` seeds the
        :class:`DeviceLedger`.
    continuous: admit requests into in-flight batches at wavefront-step
        boundaries.  ``False`` is flush-only dispatch (each batch
        occupies its replica atomically): what ``Server`` runs, and the
        baseline the continuous mode is benchmarked against.
    autoscale: enable the replica autoscaler.
    autoscale_interval: simulated seconds between autoscaler ticks.
    idle_timeout: retire a replica idle this long (never below one
        replica per tenant).
    compile_plans: forward to every tenant's engine.
    """

    def __init__(
        self,
        tenants: List[TenantConfig],
        device: DeviceSpec = P100_NVLINK,
        continuous: bool = True,
        autoscale: bool = True,
        autoscale_interval: float = 0.25,
        idle_timeout: float = 0.5,
        compile_plans: bool = False,
    ) -> None:
        if not tenants:
            raise ValueError("a fleet needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.autoscale_interval = autoscale_interval
        self.idle_timeout = idle_timeout
        #: One plan cache for the whole fleet: keys carry model, split
        #: scheme, bucket and pipeline fingerprint, so tenants serving
        #: the same variant share plans instead of building twins.
        self.cache = PlanCache()
        hosted = [(config, ServingEngine.from_zoo(
            config.model, split=config.split,
            split_depth=config.split_depth, device=device,
            compile_plans=compile_plans, batch_cap=config.batch_cap,
            cache=self.cache)) for config in tenants]
        self._host(hosted, device, device.memory_capacity,
                   continuous, autoscale)
        # Plan and verify each reserved bucket before traffic: a bad plan
        # fails here, and the trace's first full batch is a cache hit.
        for tenant in self.tenants.values():
            tenant.engine.entry_for(tenant.bucket_cap)

    @classmethod
    def _around(cls, engine: ServingEngine, config: TenantConfig,
                max_pending_images: Optional[int]) -> "FleetScheduler":
        """Internal: the one-tenant, flush-only fleet behind ``Server``.

        Hosts a pre-built engine, which keeps its own plan cache and
        whose memory budget is the ledger's capacity.  Nothing is planned
        ahead, so every cache lookup belongs to an executed batch.
        """
        fleet = cls.__new__(cls)
        fleet.cache = engine.cache
        fleet._host([(config, engine)], engine.device, engine.memory_budget,
                    continuous=False, autoscale=False,
                    max_pending_images=max_pending_images)
        return fleet

    def _host(self, hosted: List[Tuple[TenantConfig, ServingEngine]],
              device: DeviceSpec, capacity: int, continuous: bool,
              autoscale: bool,
              max_pending_images: Optional[int] = None) -> None:
        """Partition ``capacity`` and open one replica per engine."""
        self.device = device
        self.continuous = continuous
        self.autoscale = autoscale
        self.ledger = DeviceLedger(capacity)
        self.metrics = FleetMetrics([config.name for config, _ in hosted])
        self.tenants: Dict[str, _Tenant] = {}
        caps = self._partition_capacity(hosted)
        for config, engine in hosted:
            cap = caps[config.name]
            tenant = _Tenant(
                config=config, engine=engine,
                queue=AdmissionQueue(config.queue_depth, cap,
                                     max_pending_images),
                batcher=DynamicBatcher(cap, config.slo.flush_timeout),
                metrics=self.metrics.tenant(config.name),
                bucket_cap=cap, reservation=engine.planned_peak(cap))
            self.tenants[config.name] = tenant
            if not self._add_replica(tenant, now=0.0):
                raise ValueError(
                    f"tenant {config.name!r}: ledger refused the "
                    f"first replica — capacity partition bug")
        # Event heap: (time, seq, kind, tenant, replica); ``seq`` is unique,
        # so ties never compare the runtime objects behind it.
        self._events: List[Tuple[float, int, str, Optional[_Tenant],
                                 Optional[_Replica]]] = []
        self._seq = 0
        self.clock = 0.0

    # ------------------------------------------------------------------
    # Startup: shared-device capacity partition
    # ------------------------------------------------------------------
    def _partition_capacity(
            self, hosted: List[Tuple[TenantConfig, ServingEngine]],
    ) -> Dict[str, int]:
        """Per-tenant bucket caps under which one replica each co-fits.

        Starts every tenant at its solo discovered maximum (the Figure-10
        search against the whole device) and repeatedly halves the bucket
        of the tenant with the largest plan peak until the sum of peaks
        fits the device — the multi-tenant generalization of the dyadic
        capacity search.  The peaks are the ones that search measured.
        """
        engines = {config.name: engine for config, engine in hosted}
        caps = {config.name: min(engine.max_batch, config.batch_cap)
                for config, engine in hosted}
        while True:
            peaks = {name: engines[name].planned_peak(cap)
                     for name, cap in caps.items()}
            if sum(peaks.values()) <= self.ledger.capacity:
                return caps
            # Halve the hungriest tenant (ties: config order).
            worst = max(peaks, key=lambda name: peaks[name])
            if caps[worst] <= 1:
                raise ValueError(
                    f"fleet does not fit {self.device.name}: tenant "
                    f"{worst!r} needs {peaks[worst]} bytes even at "
                    f"batch 1 and {self.ledger.capacity} total is "
                    f"available for {len(caps)} tenants")
            caps[worst] //= 2

    # ------------------------------------------------------------------
    # Replicas
    # ------------------------------------------------------------------
    def _add_replica(self, tenant: _Tenant, now: float) -> bool:
        replica_id = tenant.next_replica_id
        if not self.ledger.reserve(tenant.config.name, replica_id,
                                   tenant.reservation):
            return False
        tenant.next_replica_id += 1
        tenant.replicas.append(_Replica(id=replica_id, idle_since=now))
        tenant.idle_replicas += 1
        name = tenant.config.name
        self.metrics.peak_replicas[name] = max(
            self.metrics.peak_replicas[name], len(tenant.replicas))
        return True

    def _retire_replica(self, tenant: _Tenant, replica: _Replica) -> None:
        tenant.replicas.remove(replica)
        tenant.idle_replicas -= 1       # only idle replicas retire
        self.ledger.release(tenant.config.name, replica.id)

    # ------------------------------------------------------------------
    # Event machinery
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str,
              tenant: Optional[_Tenant] = None,
              replica: Optional[_Replica] = None) -> None:
        self._seq += 1
        heapq.heappush(self._events, (time, self._seq, kind, tenant, replica))

    def _dispatch_and_arm(self, tenant: _Tenant, now: float) -> None:
        """Dispatch whatever is ready; arm a future check if time-gated.

        A check event is scheduled only when dispatch is blocked on the
        *clock* (a flush timer still arming).  Blocked-on-replicas needs
        no event: a replica draining is itself an event (``step``), and
        its handler retries dispatch.  Re-arming on a busy fleet would
        push checks at the current instant forever and stall the clock.
        """
        ready = self._try_dispatch(tenant, now)
        if ready is None or ready <= now:
            return
        if now < tenant.next_check_at <= ready:
            return                      # an earlier pending check covers it
        tenant.next_check_at = ready
        self._push(ready, "check", tenant)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, request: Request, now: float) -> bool:
        """Admit one request at ``now``; ``False`` means rejected (queue
        full).  Raises ``ValueError`` for an unknown tenant and
        :class:`~repro.serve.queue.OversizeRequestError` for a request no
        batch can carry."""
        self.clock = max(self.clock, now)
        tenant = self.tenants.get(request.tenant)
        if tenant is None:
            raise ValueError(
                f"request {request.id} names unknown tenant "
                f"{request.tenant!r}")
        return self._admit(tenant, request, now)

    def _admit(self, tenant: _Tenant, request: Request, now: float) -> bool:
        """Offer a request to its tenant's queue and count it.  Dispatch is
        probed only when a replica is idle: with every replica busy it
        could only return at once, and the next step event retries it."""
        queue = tenant.queue
        admitted = queue.offer(request)     # raises before anything counts
        metrics = tenant.metrics
        metrics.arrived += 1
        if admitted:
            metrics.admitted += 1
        else:
            metrics.rejected_queue_full += 1
        metrics.queue_depths.append(len(queue))
        if admitted and tenant.idle_replicas:
            self._dispatch_and_arm(tenant, now)
        return admitted

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _steps_for(self, tenant: _Tenant, bucket: int) -> int:
        steps = tenant.steps_by_bucket.get(bucket)
        if steps is None:
            steps = wavefront_steps(tenant.engine.entry_for(bucket).graph)
            tenant.steps_by_bucket[bucket] = steps
        return steps

    def _try_dispatch(self, tenant: _Tenant, now: float) -> Optional[float]:
        """Form batches onto idle replicas while dispatch is ready.

        Returns the future ready time when dispatch is blocked on the
        flush timer, ``None`` when it is blocked on replicas or the
        queue is empty (no clock-based wakeup needed).
        """
        metrics = tenant.metrics
        while len(tenant.queue):
            if not tenant.idle_replicas:
                return None             # joins/step events make progress
            for replica in tenant.replicas:
                if replica.idle:
                    break
            ready = tenant.batcher.ready_at(tenant.queue, now)
            if ready > now:
                return ready            # flush timer still arming
            batch = tenant.batcher.form_batch(tenant.queue, now, metrics)
            if not batch:
                metrics.empty_flushes += 1
                continue                # purged corpses; queue may go on
            self._start_batch(tenant, replica, batch, now)
        return None

    def _start_batch(self, tenant: _Tenant, replica: _Replica,
                     batch: List[Request], now: float) -> None:
        """Serve ``batch`` through the engine and occupy ``replica``.

        The engine keeps its own batch/image/padding counters.  Only a
        classification batch under continuous batching runs as wavefront
        steps; flush-only dispatch and a dense request (streamed through
        the patch path, whose plans own the memory joiners would borrow)
        occupy the replica atomically, as one synthetic step.
        """
        metrics = tenant.metrics
        images = sum(r.size for r in batch)
        latency = tenant.engine.execute(batch)
        metrics.batches += 1
        metrics.batch_sizes[images] += 1
        replica.dense = isinstance(batch[0], DenseRequest)
        replica.bucket = images if replica.dense \
            else tenant.engine.bucket(images)
        replica.step_index = 0
        replica.steps_per_pass = \
            self._steps_for(tenant, replica.bucket) \
            if self.continuous and not replica.dense else 1
        replica.step_time = latency / replica.steps_per_pass
        replica.resident_images = images
        replica.completions = {replica.steps_per_pass: batch}
        tenant.idle_replicas -= 1
        self._push(now + replica.step_time, "step", tenant, replica)

    # ------------------------------------------------------------------
    # Step boundaries: completions + continuous joins
    # ------------------------------------------------------------------
    def _on_step(self, tenant: _Tenant, replica: _Replica,
                 now: float) -> None:
        replica.step_index += 1
        done = replica.completions.pop(replica.step_index, None)
        if done:
            metrics = tenant.metrics
            for request in done:
                metrics.record_completion(request, now)
                replica.resident_images -= request.size
                if self.autoscale:      # the window's only reader prunes it
                    tenant.window.append((now, request.latency))
        if self.continuous and len(tenant.queue):
            self._admit_joiners(tenant, replica, now)
        if replica.completions:
            self._push(now + replica.step_time, "step", tenant, replica)
            return
        replica.bucket = 0              # drained: idle
        replica.idle_since = now
        tenant.idle_replicas += 1
        self._dispatch_and_arm(tenant, now)

    def _admit_joiners(self, tenant: _Tenant, replica: _Replica,
                       now: float) -> None:
        """Fill the in-flight batch's free slots from the queue.

        A joiner needs a full pass — ``steps_per_pass`` further wavefront
        steps — from the boundary it joins at; its slots free when it
        completes.  Joining never changes the bucket (no replan): the
        slots exist because the bucket was padded or because earlier
        residents finished.

        Joining stops once the queue has outgrown the in-flight bucket
        (pending images would fill a bucket at least twice this size and
        a bigger bucket is available).  Without that cutoff a rolling
        batch formed under light traffic never drains, pinning the
        replica to a tiny bucket while load rises — the batch is allowed
        to finish so dispatch can reform it at the right size.
        """
        if replica.dense:
            return                      # patch plans own the memory
        queue = tenant.queue
        bucket = replica.bucket
        if bucket < tenant.bucket_cap and queue.pending_images >= 2 * bucket:
            return                      # drain, then reform bigger
        room = free = bucket - replica.resident_images
        joined: List[Request] = []
        while len(queue):
            head = queue.peek()
            if head.expired_at(now):
                tenant.metrics.expired += 1
                queue.pop()
                continue
            # A dense head dispatches alone, in order.
            if head.size > free or isinstance(head, DenseRequest):
                break
            queue.pop()
            head.dispatch_time = now
            free -= head.size
            joined.append(head)
        if not joined:
            return
        images = room - free
        replica.resident_images += images
        # Later than every pending completion, so the key is new.
        replica.completions[replica.step_index + replica.steps_per_pass] \
            = joined
        self.metrics.joins[tenant.config.name] += len(joined)
        tenant.engine.executed_images += images
        tenant.engine.padded_images -= images   # the slots were padding

    # ------------------------------------------------------------------
    # Autoscaler
    # ------------------------------------------------------------------
    def _windowed_p99(self, tenant: _Tenant, now: float) -> Optional[float]:
        # Appended in clock order: drop the prefix older than the window.
        del tenant.window[:bisect.bisect_left(tenant.window,
                                              (now - _SLO_WINDOW,))]
        if not tenant.window:
            return None
        return percentile([lat for _, lat in tenant.window], 99)

    def _autoscale_tick(self, now: float) -> None:
        for tenant in self.tenants.values():
            name = tenant.config.name
            p99 = self._windowed_p99(tenant, now)
            backlog = tenant.queue.pending_images \
                > _SCALE_UP_QUEUE_FACTOR * tenant.bucket_cap
            breaching = (tenant.config.slo.deadline is not None
                         and p99 is not None
                         and p99 > tenant.config.slo.deadline)
            if ((backlog or breaching)
                    and len(tenant.replicas) < tenant.config.max_replicas):
                if self._add_replica(tenant, now):
                    self.metrics.scale_ups[name] += 1
                    self._dispatch_and_arm(tenant, now)
                else:
                    self.metrics.scale_up_refusals += 1
            elif not backlog and not breaching and len(tenant.replicas) > 1:
                idle = [r for r in tenant.replicas if r.idle
                        and now - r.idle_since >= self.idle_timeout]
                if idle and not len(tenant.queue):
                    self._retire_replica(tenant, idle[0])
                    self.metrics.scale_downs[name] += 1

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(self, arrivals: List[Request]) -> FleetMetrics:
        """Replay a time-sorted multi-tenant trace to completion.

        Arrivals are admitted in trace order; dispatches, wavefront
        steps and autoscaler ticks interleave on the simulated clock.
        After the last arrival the fleet drains completely — every
        queue empty, every replica idle — so the returned metrics
        satisfy the accounting invariant with ``still_queued == 0``.  A
        later trace may not start before the clock this one leaves.
        """
        self._check_trace(arrivals)
        events = self._events
        index, total = 0, len(arrivals)
        if self.autoscale:
            self._push(self.clock + self.autoscale_interval, "scale")
        while index < total or events:
            next_event = events[0][0] if events else float("inf")
            if index < total and arrivals[index].arrival_time <= next_event:
                request = arrivals[index]
                index += 1
                # The trace is sorted and never behind the clock.
                self.clock = request.arrival_time
                self._admit(self.tenants[request.tenant], request,
                            request.arrival_time)
                continue
            time, _, kind, tenant, replica = heapq.heappop(events)
            self.clock = max(self.clock, time)
            if kind == "step":
                if not replica.idle:
                    self._on_step(tenant, replica, time)
            elif kind == "check":
                if tenant.next_check_at <= time:
                    tenant.next_check_at = float("inf")
                self._dispatch_and_arm(tenant, time)
            elif kind == "scale":
                self._autoscale_tick(time)
                if (index < total
                        or any(len(t.queue) or t.in_flight()
                               for t in self.tenants.values())):
                    self._push(time + self.autoscale_interval, "scale")
        self.metrics.check_accounting(self.still_queued())
        return self.metrics

    def _check_trace(self, arrivals: List[Request]) -> None:
        """Raise on a trace ``run`` could not finish — unsorted, behind the
        clock, naming an unknown tenant or oversize — before any request
        is queued, any event pushed or any counter moved."""
        if arrivals and arrivals[0].arrival_time < self.clock:
            raise ValueError(
                f"trace starts at {arrivals[0].arrival_time}, before the "
                f"scheduler's clock ({self.clock}): build a fresh scheduler")
        limits = {name: tenant.queue.max_request_size
                  for name, tenant in self.tenants.items()}
        last = self.clock
        for request in arrivals:
            if request.arrival_time < last:
                raise ValueError("arrival trace must be time-sorted")
            last = request.arrival_time
            limit = limits.get(request.tenant)
            if limit is None:
                raise ValueError(
                    f"request {request.id} names unknown tenant "
                    f"{request.tenant!r}")
            if request.size > limit:
                self.tenants[request.tenant].queue.check_size(request)

    # ------------------------------------------------------------------
    def still_queued(self) -> Dict[str, int]:
        """Requests neither finished nor dropped, per tenant (queued or
        riding an in-flight batch)."""
        return {name: len(tenant.queue) + tenant.in_flight()
                for name, tenant in self.tenants.items()}

    def replica_counts(self) -> Dict[str, int]:
        return {name: len(tenant.replicas)
                for name, tenant in self.tenants.items()}

    def bucket_caps(self) -> Dict[str, int]:
        return {name: tenant.bucket_cap
                for name, tenant in self.tenants.items()}
