"""Tests for the fleet runtime: SLOs, ledger, partition, continuous
batching, autoscaler, and the per-tenant accounting invariant."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.graph import build_inference_graph
from repro.models import small_resnet
from repro.profile.device import P100_NVLINK
from repro.serve import (
    BATCH, INTERACTIVE, STANDARD, SLO_CLASSES, DeviceLedger,
    FleetBenchConfig, FleetScheduler, Request, SLOClass, TenantConfig,
    fleet_arrivals, run_fleet_bench, wavefront_steps,
)


def small_tenant(name, **kwargs):
    """A CIFAR-scale tenant: cheap to plan, capacity search capped at 8."""
    kwargs.setdefault("model", "small_resnet")
    kwargs.setdefault("batch_cap", 8)
    kwargs.setdefault("rps", 400.0)
    return TenantConfig(name=name, **kwargs)


def small_fleet(tenants, **kwargs):
    kwargs.setdefault("autoscale", False)
    return FleetScheduler(tenants, **kwargs)


# ----------------------------------------------------------------------
# SLO classes
# ----------------------------------------------------------------------
class TestSLOClass:
    def test_standard_tiers_are_registered(self):
        assert SLO_CLASSES == {"interactive": INTERACTIVE,
                               "standard": STANDARD, "batch": BATCH}
        assert INTERACTIVE.deadline < STANDARD.deadline
        assert BATCH.deadline is None

    def test_flush_timeout_may_not_exceed_deadline(self):
        with pytest.raises(ValueError, match="exceeds the deadline"):
            SLOClass("bad", deadline=0.01, flush_timeout=0.02)

    def test_from_deadline_derives_flush(self):
        slo = SLOClass.from_deadline("quarter", deadline=0.4)
        assert slo.flush_timeout == pytest.approx(0.1)
        with pytest.raises(ValueError, match="flush_fraction"):
            SLOClass.from_deadline("bad", deadline=0.4, flush_fraction=0.0)

    def test_absolute_deadline(self):
        assert STANDARD.absolute_deadline(2.5) == pytest.approx(3.5)
        assert BATCH.absolute_deadline(2.5) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="deadline must be positive"):
            SLOClass("bad", deadline=0.0, flush_timeout=0.0)
        with pytest.raises(ValueError, match="flush_timeout must be"):
            SLOClass("bad", deadline=None, flush_timeout=-1.0)


# ----------------------------------------------------------------------
# Tenant configs
# ----------------------------------------------------------------------
class TestTenantConfig:
    @pytest.mark.parametrize("rps", [0.0, -1.0, float("inf"), float("nan")])
    def test_rps_must_be_positive_and_finite(self, rps):
        # inf used to hang the trace generator; nan crashed it.
        with pytest.raises(ValueError, match="rps must be positive"):
            TenantConfig(name="a", model="small_vgg", rps=rps)

    @pytest.mark.parametrize("depth", [-0.1, 1.5, float("nan")])
    def test_split_depth_must_be_in_unit_interval(self, depth):
        # nan used to build an unsplit model labelled as split.
        with pytest.raises(ValueError, match=r"split_depth must be in \[0, 1\]"):
            TenantConfig(name="a", model="small_vgg", split=4,
                         split_depth=depth)

    @pytest.mark.parametrize("split", [0, 5])
    def test_split_must_be_a_known_grid(self, split):
        with pytest.raises(ValueError, match="split must be one of"):
            TenantConfig(name="a", model="small_vgg", split=split)

    def test_zoo_builder_rejects_a_nan_depth(self):
        from repro.serve import ServingEngine
        with pytest.raises(ValueError, match="split depth"):
            ServingEngine.from_zoo("small_vgg", split=4,
                                   split_depth=float("nan"))


# ----------------------------------------------------------------------
# Device ledger
# ----------------------------------------------------------------------
class TestDeviceLedger:
    def test_reserve_release_cycle(self):
        ledger = DeviceLedger(capacity=100)
        assert ledger.reserve("a", 0, 60)
        assert ledger.reserved == 60 and ledger.free == 40
        assert ledger.reserve("b", 0, 40)
        assert ledger.free == 0
        ledger.release("a", 0)
        assert ledger.reserved == 40
        assert ledger.peak_reserved == 100   # high-water mark survives

    def test_refuses_overcommit(self):
        ledger = DeviceLedger(capacity=100)
        assert ledger.reserve("a", 0, 70)
        assert not ledger.reserve("b", 0, 31)
        assert ledger.reserved == 70         # refusal left no residue

    def test_duplicate_reservation_raises(self):
        ledger = DeviceLedger(capacity=100)
        ledger.reserve("a", 0, 10)
        with pytest.raises(ValueError, match="already holds"):
            ledger.reserve("a", 0, 10)

    def test_reservation_of_sums_per_tenant(self):
        ledger = DeviceLedger(capacity=100)
        ledger.reserve("a", 0, 10)
        ledger.reserve("a", 1, 20)
        ledger.reserve("b", 0, 5)
        assert ledger.reservation_of("a") == 30
        assert ledger.reservation_of("b") == 5


# ----------------------------------------------------------------------
# Wavefront steps
# ----------------------------------------------------------------------
class TestWavefrontSteps:
    def test_counts_dependency_levels(self):
        model = small_resnet(rng=np.random.default_rng(0))
        graph = build_inference_graph(model, 2)
        steps = wavefront_steps(graph)
        # A deep CNN has many levels but no more levels than ops.
        assert 2 <= steps <= len(graph.ops)

    def test_deterministic(self):
        model = small_resnet(rng=np.random.default_rng(0))
        graph = build_inference_graph(model, 2)
        assert wavefront_steps(graph) == wavefront_steps(graph)


# ----------------------------------------------------------------------
# Capacity partition on the shared device
# ----------------------------------------------------------------------
class TestCapacityPartition:
    def test_reservations_fit_the_ledger(self):
        fleet = small_fleet([small_tenant("a"), small_tenant("b"),
                             small_tenant("c")])
        assert fleet.ledger.reserved <= fleet.ledger.capacity
        for tenant in fleet.tenants.values():
            assert tenant.bucket_cap >= 1
            assert fleet.ledger.reservation_of(tenant.config.name) \
                == tenant.reservation

    def test_contention_shrinks_the_hungriest_tenant(self):
        # Give the fleet only ~1.5x one tenant's solo reservation: the
        # partition must halve buckets until both tenants co-fit.
        solo = small_fleet([small_tenant("a")])
        solo_cap = solo.bucket_caps()["a"]
        solo_bytes = solo.tenants["a"].reservation
        tight = dataclasses.replace(P100_NVLINK,
                                    memory_capacity=int(1.5 * solo_bytes))
        pair = small_fleet([small_tenant("a"), small_tenant("b")],
                           device=tight)
        caps = pair.bucket_caps()
        assert min(caps.values()) < solo_cap
        assert pair.ledger.reserved <= tight.memory_capacity

    def test_queue_and_batcher_sized_to_the_cap(self):
        fleet = small_fleet([small_tenant("a")])
        tenant = fleet.tenants["a"]
        assert tenant.queue.max_request_size == tenant.bucket_cap
        assert tenant.batcher.max_batch_images == tenant.bucket_cap
        assert tenant.batcher.flush_timeout \
            == tenant.config.slo.flush_timeout

    def test_unfittable_fleet_raises(self):
        # Room for ~1.5 batch-1 plans: each tenant fits alone, but two
        # cannot co-fit even after the partition shrinks both to 1.
        solo = small_fleet([small_tenant("a")])
        peak1 = solo.tenants["a"].engine.entry_for(1).plan.device_peak
        hopeless = dataclasses.replace(P100_NVLINK,
                                       memory_capacity=int(1.5 * peak1))
        with pytest.raises(ValueError, match="does not fit"):
            small_fleet([small_tenant("a"), small_tenant("b")],
                        device=hopeless)

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant names"):
            small_fleet([small_tenant("a"), small_tenant("a")])

    def test_split_variant_keeps_more_capacity_under_contention(self):
        # The paper's claim at fleet scope: on a device too small for two
        # full-size tenants, the split variant's smaller plan peak lets
        # it keep a bucket at least as large as its unsplit twin.
        solo = small_fleet([small_tenant("base")])
        solo_bytes = solo.tenants["base"].reservation
        tight = dataclasses.replace(P100_NVLINK,
                                    memory_capacity=int(1.5 * solo_bytes))
        fleet = small_fleet(
            [small_tenant("base"), small_tenant("split", split=4)],
            device=tight)
        caps = fleet.bucket_caps()
        assert caps["split"] >= caps["base"]


# ----------------------------------------------------------------------
# Shared plan cache
# ----------------------------------------------------------------------
class TestSharedPlanCache:
    def test_tenants_serving_the_same_variant_share_plans(self):
        fleet = small_fleet([small_tenant("a"), small_tenant("b")])
        engines = [t.engine for t in fleet.tenants.values()]
        assert all(engine.cache is fleet.cache for engine in engines)
        # The partition builds tenant a's largest-bucket entry; tenant
        # b's identical key must hit instead of building a twin.
        assert fleet.cache.hits >= 1


# ----------------------------------------------------------------------
# The fleet event loop
# ----------------------------------------------------------------------
def run_small_fleet(tenants=None, duration=0.5, seed=0, **fleet_kwargs):
    tenants = tenants or [small_tenant("a"), small_tenant("b", split=4)]
    config = FleetBenchConfig(tenants=tenants, duration=duration, seed=seed,
                              continuous=fleet_kwargs.pop("continuous", True),
                              autoscale=fleet_kwargs.pop("autoscale", False))
    fleet = FleetScheduler(tenants, continuous=config.continuous,
                           autoscale=config.autoscale, **fleet_kwargs)
    metrics = fleet.run(fleet_arrivals(config))
    return fleet, metrics


class TestFleetRun:
    def test_trace_is_deterministic_and_per_tenant_seeded(self):
        tenants = [small_tenant("a"), small_tenant("b")]
        config = FleetBenchConfig(tenants=tenants, duration=1.0, seed=3)
        first = fleet_arrivals(config)
        second = fleet_arrivals(config)
        assert [(r.arrival_time, r.tenant) for r in first] \
            == [(r.arrival_time, r.tenant) for r in second]
        # Adding a tenant must not perturb existing tenants' instants.
        wider = FleetBenchConfig(tenants=tenants + [small_tenant("c")],
                                 duration=1.0, seed=3)
        a_times = [r.arrival_time for r in first if r.tenant == "a"]
        a_wider = [r.arrival_time for r in fleet_arrivals(wider)
                   if r.tenant == "a"]
        assert a_times == a_wider

    def test_run_is_deterministic(self):
        results = []
        for _ in range(2):
            _, metrics = run_small_fleet()
            summary = {name: (m.completed_requests, m.batches, m.expired,
                              m.latency.p(99) if m.latency.samples else None)
                       for name, m in metrics.per_tenant.items()}
            results.append(summary)
        assert results[0] == results[1]

    def test_fleet_drains_completely(self):
        fleet, metrics = run_small_fleet()
        assert all(count == 0 for count in fleet.still_queued().values())
        for name, m in metrics.per_tenant.items():
            assert m.completed_requests > 0, name
            assert m.arrived == (m.rejected_queue_full + m.expired
                                 + m.completed_requests), name

    def test_continuous_mode_joins_in_flight_batches(self):
        fleet, metrics = run_small_fleet(
            tenants=[small_tenant("a", rps=2000.0)])
        assert fleet.metrics.joins["a"] > 0

    def test_flush_only_mode_never_joins(self):
        fleet, metrics = run_small_fleet(
            tenants=[small_tenant("a", rps=2000.0)], continuous=False)
        assert fleet.metrics.joins["a"] == 0
        assert metrics.tenant("a").completed_requests > 0

    def test_unknown_tenant_rejected_at_submit(self):
        fleet = small_fleet([small_tenant("a")])
        with pytest.raises(ValueError, match="unknown tenant"):
            fleet.submit(Request(id=0, arrival_time=0.0, tenant="ghost"),
                         now=0.0)
        with pytest.raises(ValueError, match="unknown tenant"):
            fleet.submit(Request(id=0, arrival_time=0.0), now=0.0)

    def test_unsorted_trace_rejected(self):
        fleet = small_fleet([small_tenant("a")])
        trace = [Request(id=0, arrival_time=1.0, tenant="a"),
                 Request(id=1, arrival_time=0.5, tenant="a")]
        with pytest.raises(ValueError, match="time-sorted"):
            fleet.run(trace)

    def test_warm_scheduler_refuses_a_trace_from_its_past(self):
        # Replaying a t~0 trace on a drained scheduler used to run it
        # against a clock already at the end of the first run, expiring
        # most of it into the first run's metrics.
        tenants = [small_tenant("a", rps=500.0, slo=INTERACTIVE)]
        trace = fleet_arrivals(FleetBenchConfig(tenants=tenants,
                                                duration=0.5))
        fleet = small_fleet(tenants)
        fleet.run([dataclasses.replace(r) for r in trace])
        arrived = fleet.metrics.tenant("a").arrived
        with pytest.raises(ValueError, match="fresh scheduler"):
            fleet.run([dataclasses.replace(r) for r in trace])
        assert fleet.metrics.tenant("a").arrived == arrived

    @pytest.mark.parametrize("bad", [
        Request(id=1, arrival_time=0.002, tenant="ghost"),
        Request(id=1, arrival_time=0.002, size=64, tenant="a"),
    ], ids=["unknown-tenant", "oversize"])
    def test_bad_trace_leaves_the_scheduler_untouched(self, bad):
        # Used to raise at request 1 with request 0 queued, two events on
        # the heap and the clock at 0.001, and a later run() added its
        # counts to those metrics.
        fleet = small_fleet([small_tenant("a")])
        trace = [Request(id=0, arrival_time=0.001, tenant="a"), bad,
                 Request(id=2, arrival_time=0.003, tenant="a")]
        with pytest.raises(ValueError):
            fleet.run(trace)
        assert fleet.clock == 0.0 and fleet._events == []
        assert fleet.still_queued() == {"a": 0}
        m = fleet.metrics.tenant("a")
        assert (m.arrived, m.admitted, m.queue_depths) == (0, 0, [])
        good = [trace[0], dataclasses.replace(trace[2], id=1)]
        assert fleet.run(good).tenant("a").completed_requests == 2

    def test_continuous_beats_flush_p99_on_the_same_trace(self):
        # The headline property: joining in-flight batches at wavefront
        # boundaries strictly lowers tail latency at moderate load,
        # because partial batches stop serializing behind full passes.
        tenants = [small_tenant("a", rps=10_000.0, slo=STANDARD)]
        config = FleetBenchConfig(tenants=tenants, duration=1.0, seed=0)
        trace = fleet_arrivals(config)
        p99 = {}
        for continuous in (True, False):
            fleet = small_fleet(tenants, continuous=continuous)
            metrics = fleet.run([dataclasses.replace(r) for r in trace])
            p99[continuous] = metrics.tenant("a").latency.p(99)
        assert p99[True] < p99[False]


# ----------------------------------------------------------------------
# Deadline boundary under continuous batching
# ----------------------------------------------------------------------
class TestContinuousDeadlineBoundary:
    """Pinned semantics carried into the join path: a request admitted
    into an in-flight batch exactly at its deadline is served."""

    def _boundary_fleet(self):
        tenant = small_tenant("a", slo=STANDARD)
        fleet = small_fleet([tenant])
        engine = fleet.tenants["a"].engine
        entry = engine.entry_for(3)        # bucket 4: one free slot
        steps = wavefront_steps(entry.graph)
        assert steps >= 2                  # joins need a later boundary
        flush = STANDARD.flush_timeout
        # r0 dispatches when its flush timer fires; the first wavefront
        # boundary after that is where r1 can join.  Times are computed
        # with the same float operations the scheduler uses, so the
        # "exactly at the deadline" case is exact, not approximate.
        dispatch = 0.0 + flush
        boundary = dispatch + entry.latency / steps
        return fleet, dispatch, boundary

    def _run(self, fleet, dispatch, boundary, deadline):
        # r1 lands while r0's batch is mid-pass: after the dispatch,
        # before the first wavefront boundary.
        trace = [
            Request(id=0, arrival_time=0.0, size=3, tenant="a"),
            Request(id=1, arrival_time=(dispatch + boundary) / 2, size=1,
                    deadline=deadline, tenant="a"),
        ]
        return fleet.run(trace).tenant("a")

    def test_join_exactly_at_deadline_is_served(self):
        fleet, dispatch, boundary = self._boundary_fleet()
        metrics = self._run(fleet, dispatch, boundary, deadline=boundary)
        assert metrics.completed_requests == 2
        assert metrics.expired == 0
        assert fleet.metrics.joins["a"] == 1

    def test_join_past_deadline_expires(self):
        fleet, dispatch, boundary = self._boundary_fleet()
        metrics = self._run(fleet, dispatch, boundary,
                            deadline=boundary - 1e-9)
        assert metrics.completed_requests == 1
        assert metrics.expired == 1
        assert fleet.metrics.joins["a"] == 0

    def test_joiner_runs_a_full_pass(self):
        # The joiner's latency covers a whole pass from its boundary —
        # it does not piggyback on the host batch's remaining steps.
        fleet, dispatch, boundary = self._boundary_fleet()
        engine = fleet.tenants["a"].engine
        entry = engine.entry_for(3)
        steps = wavefront_steps(entry.graph)
        metrics = self._run(fleet, dispatch, boundary, deadline=None)
        # Completions record in completion order; the joiner finishes a
        # full boundary after the host batch, so it is the last sample.
        joiner_latency = metrics.latency.samples[-1]
        arrival = (dispatch + boundary) / 2
        expected = (boundary + entry.latency) - arrival
        assert joiner_latency == pytest.approx(expected)
        assert steps >= 2


# ----------------------------------------------------------------------
# Autoscaler
# ----------------------------------------------------------------------
class TestAutoscaler:
    def test_backlog_scales_up_within_ledger(self):
        # Tiny buckets + heavy load: queued images outgrow a batch's
        # worth of work and the backlog rule must fire.
        tenants = [small_tenant("a", rps=20_000.0, batch_cap=2,
                                max_replicas=3)]
        config = FleetBenchConfig(tenants=tenants, duration=0.5, seed=0)
        fleet = FleetScheduler(tenants, autoscale=True,
                               autoscale_interval=0.05)
        fleet.run(fleet_arrivals(config))
        assert fleet.metrics.scale_ups["a"] > 0
        assert fleet.metrics.peak_replicas["a"] > 1
        assert fleet.metrics.peak_replicas["a"] <= 3
        assert fleet.ledger.peak_reserved <= fleet.ledger.capacity

    def test_idle_replicas_scale_back_down(self):
        # Burst then trickle: replicas added for the burst must retire
        # once they sit idle while the trickle keeps the fleet ticking.
        tenants = [small_tenant("a", rps=20_000.0, batch_cap=2,
                                max_replicas=3)]
        burst = fleet_arrivals(FleetBenchConfig(
            tenants=tenants, duration=0.5, seed=0))
        trickle = [Request(id=0, arrival_time=0.5 + 0.2 * i, size=1,
                           tenant="a") for i in range(20)]
        trace = burst + trickle
        for index, request in enumerate(trace):
            request.id = index
        fleet = FleetScheduler(tenants, autoscale=True,
                               autoscale_interval=0.05, idle_timeout=0.2)
        fleet.run(trace)
        assert fleet.metrics.scale_ups["a"] > 0
        assert fleet.metrics.scale_downs["a"] > 0
        assert fleet.replica_counts()["a"] < fleet.metrics.peak_replicas["a"]

    def test_ledger_refusal_is_counted_not_fatal(self):
        # Capacity for ~1.2 replicas: the first fits, the backlog-driven
        # second must be refused by the ledger and counted.
        probe = small_fleet([small_tenant("a", batch_cap=2)])
        solo_bytes = probe.tenants["a"].reservation
        tight = dataclasses.replace(P100_NVLINK,
                                    memory_capacity=int(1.2 * solo_bytes))
        tenants = [small_tenant("a", rps=20_000.0, batch_cap=2,
                                max_replicas=4)]
        config = FleetBenchConfig(tenants=tenants, duration=0.5, seed=0)
        fleet = FleetScheduler(tenants, device=tight, autoscale=True,
                               autoscale_interval=0.05)
        metrics = fleet.run(fleet_arrivals(config))
        assert fleet.metrics.scale_up_refusals > 0
        assert fleet.metrics.peak_replicas["a"] == 1
        metrics.check_accounting(fleet.still_queued())


# ----------------------------------------------------------------------
# Accounting invariant: property-style fuzz over seeded Poisson traces
# ----------------------------------------------------------------------
class TestFleetAccountingFuzz:
    """arrived == rejected + expired + completed + still_queued, per
    tenant and globally, over randomized-but-seeded fleet configurations.
    Every trace, tenant mix, SLO and mode is derived from the seed, so a
    failure replays exactly."""

    SLOS = [INTERACTIVE, STANDARD, BATCH,
            SLOClass.from_deadline("tight", 0.05)]

    @pytest.mark.parametrize("seed", range(6))
    def test_invariant_over_random_fleets(self, seed):
        rng = np.random.default_rng(seed)
        tenants = []
        for i in range(int(rng.integers(1, 4))):
            tenants.append(small_tenant(
                f"t{i}",
                split=int(rng.choice([1, 4])),
                slo=self.SLOS[int(rng.integers(len(self.SLOS)))],
                rps=float(rng.integers(200, 3000)),
                request_size=int(rng.integers(1, 3)),
                queue_depth=int(rng.integers(4, 64)),
            ))
        config = FleetBenchConfig(
            tenants=tenants,
            duration=float(rng.uniform(0.2, 0.6)),
            seed=seed,
            continuous=bool(seed % 2),
            autoscale=bool(rng.integers(2)),
        )
        fleet, metrics = run_fleet_bench(config)
        # run_fleet_bench already called check_accounting; re-assert the
        # arithmetic explicitly so the invariant survives driver changes.
        still = fleet.still_queued()
        assert all(count == 0 for count in still.values())
        totals = [0, 0]
        for name, m in metrics.per_tenant.items():
            assert m.arrived == (m.rejected_queue_full + m.expired
                                 + m.completed_requests), name
            totals[0] += m.arrived
            totals[1] += (m.rejected_queue_full + m.expired
                          + m.completed_requests)
        assert totals[0] == totals[1]

    def test_check_accounting_localizes_the_tenant(self):
        from repro.serve import FleetMetrics
        metrics = FleetMetrics(["good", "bad"])
        metrics.tenant("bad").arrived = 1
        with pytest.raises(AssertionError, match="tenant 'bad'"):
            metrics.check_accounting()


# ----------------------------------------------------------------------
# Mixed dense + classification tenants
# ----------------------------------------------------------------------
class TestMixedDenseFleet:
    """One fleet serving a classification tenant next to a dense
    (patch-inference) tenant: exact accounting, no joiners into dense
    replicas, plan-verification invariant on the dense engine."""

    def make_fleet(self, continuous=True):
        tenants = [
            small_tenant("cls", rps=800.0),
            small_tenant("dense", model="small_vgg", rps=200.0,
                         queue_depth=8),
        ]
        return small_fleet(tenants, continuous=continuous)

    def make_trace(self, n=40, seed=3):
        from repro.serve import DenseRequest
        rng = np.random.default_rng(seed)
        arrivals, clock = [], 0.0
        for i in range(n):
            clock += float(rng.exponential(0.0005))
            if rng.random() < 0.3:
                hw = (32, 32) if rng.random() < 0.5 else (64, 64)
                arrivals.append(DenseRequest(
                    id=i, arrival_time=clock, tenant="dense",
                    image_hw=hw, grid=(2, 2)))
            else:
                arrivals.append(Request(
                    id=i, arrival_time=clock, tenant="cls",
                    size=int(rng.integers(1, 3))))
        return arrivals

    @pytest.mark.parametrize("continuous", [False, True])
    def test_mixed_trace_accounts_exactly(self, continuous):
        fleet = self.make_fleet(continuous=continuous)
        arrivals = self.make_trace()
        metrics = fleet.run(arrivals)       # run() checks accounting
        assert all(v == 0 for v in fleet.still_queued().values())
        dense_m = metrics.tenant("dense")
        assert dense_m.completed_requests > 0
        # Every dense batch is exactly one request of its patch total.
        assert set(dense_m.batch_sizes) <= {4}
        dense_engine = fleet.tenants["dense"].engine
        completed_patches = sum(
            r.size for r in arrivals
            if r.tenant == "dense" and r.completion_time is not None)
        assert dense_engine.executed_images >= completed_patches
        # The fleet shares one plan cache across tenants, so the
        # verification invariant holds fleet-wide: every miss was built
        # by exactly one engine and verified there.
        verified = sum(t.engine.plans_verified
                       for t in fleet.tenants.values())
        assert verified == dense_engine.cache.misses

    def test_no_joiners_into_dense_replicas(self):
        fleet = self.make_fleet(continuous=True)
        metrics = fleet.run(self.make_trace(n=60, seed=5))
        # Classification joins may happen; dense ones never do — a dense
        # replica's synthetic step admits no joiners, so the dense
        # tenant's join counter stays zero.
        assert fleet.metrics.joins["dense"] == 0
        assert metrics.tenant("dense").completed_requests > 0


# ----------------------------------------------------------------------
# Golden digests: the continuous fleet, request for request
# ----------------------------------------------------------------------
#: The ``benchmarks/test_fleet_soak.py`` tenant mix (200k req/s offered).
SOAK_TENANTS = [
    TenantConfig(name="resnet-live", model="small_resnet", batch_cap=64,
                 slo=INTERACTIVE, rps=100_000.0, queue_depth=512),
    TenantConfig(name="resnet-split4", model="small_resnet", split=4,
                 batch_cap=64, slo=STANDARD, rps=60_000.0, queue_depth=512),
    TenantConfig(name="vgg-bulk", model="small_vgg", batch_cap=64,
                 slo=BATCH, rps=40_000.0, queue_depth=512),
]


def _soak_trace(scale, requests=10_000, seed=0):
    tenants = [dataclasses.replace(t, rps=t.rps * scale)
               for t in SOAK_TENANTS]
    return fleet_arrivals(FleetBenchConfig(
        tenants=tenants, seed=seed,
        duration=requests / (200_000.0 * scale)))


def _dense_mix_trace(n=300, seed=5):
    """Classification and 2x2 dense requests under tight deadlines."""
    from repro.serve import DenseRequest
    rng = np.random.default_rng(seed)
    arrivals, clock = [], 0.0
    for i in range(n):
        clock += float(rng.exponential(0.0002))
        if rng.random() < 0.3:
            hw = (32, 32) if rng.random() < 0.5 else (64, 64)
            arrivals.append(DenseRequest(
                id=i, arrival_time=clock, tenant="dense", image_hw=hw,
                grid=(2, 2), deadline=clock + 0.003))
        else:
            arrivals.append(Request(
                id=i, arrival_time=clock, tenant="cls",
                size=int(rng.integers(1, 3)), deadline=clock + 0.002))
    return arrivals


def _golden_fleet_cases():
    """``(name, fleet factory, trace)`` for every pinned fleet run."""
    for scale, label in ((0.5, "x0_5"), (1.0, "x1"), (2.0, "x2")):
        yield (f"soak-{label}",
               lambda: FleetScheduler(SOAK_TENANTS, autoscale=True),
               _soak_trace(scale))
    yield ("soak-x1-flush",
           lambda: FleetScheduler(SOAK_TENANTS, continuous=False,
                                  autoscale=True),
           _soak_trace(1.0))
    # A device with room for one extra replica and a trickle after the
    # burst: scale-ups, ledger refusals, queue-full rejections and idle
    # retirements all fire.
    trace = _soak_trace(2.0)
    end = trace[-1].arrival_time
    trace += [Request(id=len(trace) + i, arrival_time=end + 0.003 * (i + 1),
                      tenant=SOAK_TENANTS[i % 3].name) for i in range(30)]
    tight = dataclasses.replace(P100_NVLINK, memory_capacity=150_000_000)
    yield ("soak-x2-tight",
           lambda: FleetScheduler(SOAK_TENANTS, device=tight, autoscale=True,
                                  autoscale_interval=0.004,
                                  idle_timeout=0.006),
           trace)
    mix = [small_tenant("cls", rps=800.0),
           small_tenant("dense", model="small_vgg", rps=200.0,
                        queue_depth=8)]
    for continuous in (True, False):
        yield (f"dense-mix-{'continuous' if continuous else 'flush'}",
               lambda continuous=continuous: FleetScheduler(
                   mix, continuous=continuous, autoscale=True,
                   autoscale_interval=0.002, idle_timeout=0.003),
               _dense_mix_trace())


def _fleet_digest(case) -> str:
    """blake2b over every request's instants, every per-tenant counter
    and sample list, the fleet's counters and the engines' counters."""
    _, make_fleet, trace = case
    fleet = make_fleet()
    arrivals = [dataclasses.replace(r) for r in trace]
    metrics = fleet.run(arrivals)
    digest = hashlib.blake2b(digest_size=16)
    for request in arrivals:
        digest.update(repr((request.id, request.tenant, request.dispatch_time,
                            request.completion_time)).encode())
    for name, tenant in fleet.tenants.items():
        m = metrics.per_tenant[name]
        engine = tenant.engine
        digest.update(repr((
            name, m.arrived, m.admitted, m.completed_requests,
            m.completed_images, m.rejected_queue_full, m.expired, m.batches,
            m.empty_flushes, sorted(m.batch_sizes.items()),
            m.latency.samples, m.queue_wait.samples, m.queue_depths,
            metrics.joins[name], metrics.scale_ups[name],
            metrics.scale_downs[name], metrics.peak_replicas[name],
            engine.executed_batches, engine.executed_images,
            engine.padded_images,
        )).encode())
    digest.update(repr((
        metrics.scale_up_refusals, fleet.ledger.peak_reserved, fleet.clock,
        fleet.cache.hits, fleet.cache.misses,
    )).encode())
    return digest.hexdigest()


#: Recorded on the event loop before arrivals stopped probing dispatch on
#: busy tenants and step boundaries stopped recording empty completions.
GOLDEN_FLEET_DIGESTS = {
    "soak-x0_5": "d79b0394522597231b42a25ac7fe1ac4",
    "soak-x1": "605c496b01c2c6af7279ab24c342a426",
    "soak-x2": "f03293451f0aad90ae3b95a3255374a6",
    "soak-x1-flush": "a5c427a5b19d7a541a6e7746e0c37b70",
    "soak-x2-tight": "237e9d4e4027fdce45f22fd057ad8e82",
    "dense-mix-continuous": "84dee408992fb34adac8bf6bdbfb2e83",
    "dense-mix-flush": "50b5e93b7c8ab593b01dd4c2eee01811",
}


class TestFleetGoldenDigests:
    CASES = list(_golden_fleet_cases())

    def test_covers_every_recorded_trace(self):
        assert [case[0] for case in self.CASES] == list(GOLDEN_FLEET_DIGESTS)

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_request_for_request_counter_for_counter(self, case):
        assert _fleet_digest(case) == GOLDEN_FLEET_DIGESTS[case[0]]


if __name__ == "__main__":
    # Prints the ``GOLDEN_FLEET_DIGESTS`` rows for the code as it stands.
    for case in _golden_fleet_cases():
        print(f'    "{case[0]}": "{_fleet_digest(case)}",')
