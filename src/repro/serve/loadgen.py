"""Open-loop Poisson load generation and the serve-bench driver.

Open-loop means arrivals do not wait for responses — the generator fires
at the offered rate no matter how far the server falls behind, which is
what exposes queueing collapse and makes admission control earn its keep
(a closed-loop generator self-throttles and hides both).

Inter-arrival gaps are exponential draws from a seeded generator, so a
``(rps, duration, seed)`` triple names one exact trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .engine import ServingEngine
from .fleet import FleetMetrics, FleetScheduler, TenantConfig
from .metrics import ServingMetrics
from .request import Request
from .server import Server

__all__ = [
    "BenchConfig", "poisson_arrivals", "run_bench", "render_report",
    "FleetBenchConfig", "fleet_arrivals", "run_fleet_bench",
    "render_fleet_report",
]


@dataclass
class BenchConfig:
    """One serve-bench run, fully determined by its fields."""

    rps: float = 100.0                 # offered request rate
    duration: float = 5.0              # arrival window, simulated seconds
    seed: int = 0
    request_size: int = 1              # images per request
    flush_timeout: float = 0.005
    queue_depth: int = 256
    max_batch_images: Optional[int] = None   # None -> engine's discovered max
    deadline: Optional[float] = None   # per-request latency budget, seconds

    def __post_init__(self) -> None:
        if self.rps <= 0:
            raise ValueError(f"rps must be positive, got {self.rps}")
        if self.duration <= 0:
            raise ValueError(
                f"duration must be positive, got {self.duration}")


def poisson_arrivals(config: BenchConfig) -> List[Request]:
    """The arrival trace of one bench run (sorted by arrival time)."""
    rng = np.random.default_rng(config.seed)
    arrivals: List[Request] = []
    now = 0.0
    while True:
        now += rng.exponential(1.0 / config.rps)
        if now >= config.duration:
            return arrivals
        deadline = now + config.deadline if config.deadline is not None \
            else None
        arrivals.append(Request(id=len(arrivals), arrival_time=now,
                                size=config.request_size, deadline=deadline))


def run_bench(engine: ServingEngine,
              config: BenchConfig) -> ServingMetrics:
    """Run one open-loop bench against a fresh :class:`Server`."""
    server = Server(
        engine,
        flush_timeout=config.flush_timeout,
        queue_depth=config.queue_depth,
        max_batch_images=config.max_batch_images,
    )
    metrics = server.run(poisson_arrivals(config))
    # Every arrival must land in exactly one bucket; an imbalance here is
    # a runtime bug, not a workload property.
    metrics.check_accounting(still_queued=len(server.queue))
    return metrics


# ----------------------------------------------------------------------
# Fleet benches
# ----------------------------------------------------------------------
@dataclass
class FleetBenchConfig:
    """One fleet bench run, fully determined by its fields.

    Each tenant offers its own Poisson stream at its configured ``rps``;
    traces are drawn from per-tenant seeded generators and merged, so a
    ``(tenants, duration, seed)`` triple names one exact multi-tenant
    trace regardless of batching mode — which is what makes the
    continuous-vs-flush p99 comparison apples to apples.
    """

    tenants: List[TenantConfig]
    duration: float = 5.0
    seed: int = 0
    continuous: bool = True
    autoscale: bool = True
    compile_plans: bool = False

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a fleet bench needs at least one tenant")
        if self.duration <= 0:
            raise ValueError(
                f"duration must be positive, got {self.duration}")


def fleet_arrivals(config: FleetBenchConfig) -> List[Request]:
    """The merged multi-tenant arrival trace (sorted by arrival time).

    Every tenant draws from its own generator seeded by ``(seed, tenant
    index)``, so adding a tenant never perturbs the other tenants'
    arrival instants.  Request deadlines come from each tenant's SLO
    class; ids are assigned in merged order (globally unique).
    """
    arrivals: List[Request] = []
    for index, tenant in enumerate(config.tenants):
        rng = np.random.default_rng([config.seed, index])
        now = 0.0
        while True:
            now += rng.exponential(1.0 / tenant.rps)
            if now >= config.duration:
                break
            arrivals.append(Request(
                id=0, arrival_time=now, size=tenant.request_size,
                deadline=tenant.slo.absolute_deadline(now),
                tenant=tenant.name))
    arrivals.sort(key=lambda r: r.arrival_time)
    for index, request in enumerate(arrivals):
        request.id = index
    return arrivals


def run_fleet_bench(config: FleetBenchConfig,
                    ) -> "tuple[FleetScheduler, FleetMetrics]":
    """Run one fleet bench; returns the (drained) scheduler + metrics.

    Always on a fresh :class:`FleetScheduler`: one that has run keeps
    its clock and metrics and cannot replay a trace from t = 0.  The
    accounting invariant is re-checked here even though ``run`` already
    enforces it — the bench is the contract's last line of defense.
    """
    fleet = FleetScheduler(config.tenants,
                           continuous=config.continuous,
                           autoscale=config.autoscale,
                           compile_plans=config.compile_plans)
    metrics = fleet.run(fleet_arrivals(config))
    metrics.check_accounting(fleet.still_queued())
    return fleet, metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def render_report(engine: ServingEngine, config: BenchConfig,
                  metrics: ServingMetrics) -> str:
    """The one-screen serve-bench report."""
    lines: List[str] = []
    lines.append(f"serve-bench — {engine.model.name}")
    lines.append(f"offered load     : {config.rps:g} req/s x "
                 f"{config.duration:g} s (Poisson, seed {config.seed}, "
                 f"{config.request_size} img/req)")
    lines.append(f"max batch        : "
                 f"{engine.max_batch} images (discovered), "
                 f"flush timeout {config.flush_timeout * 1e3:g} ms, "
                 f"queue depth {config.queue_depth}")
    lines.append(f"requests         : {metrics.arrived} arrived / "
                 f"{metrics.admitted} admitted / "
                 f"{metrics.completed_requests} completed")
    lines.append(f"drops            : {metrics.rejected_queue_full} "
                 f"queue-full, {metrics.expired} deadline-expired, "
                 f"{metrics.empty_flushes} empty flushes")
    rates = metrics.throughput(config.duration)
    lines.append(f"throughput       : {rates['requests_per_s']:.1f} req/s, "
                 f"{rates['images_per_s']:.1f} img/s (simulated)")
    lines.append(f"latency          : {metrics.latency.summary()}")
    lines.append(f"queue wait       : {metrics.queue_wait.summary()}")
    depth_p95 = metrics.queue_depth_p95()
    lines.append(f"queue depth p95  : "
                 f"{depth_p95 if depth_p95 is not None else 'n/a'}")
    lines.append(f"batch sizes      : {metrics.batch_size_summary()}")
    lines.append(f"engine           : {metrics.batches} batches, "
                 f"{engine.padded_images} padded images, "
                 f"{engine.replans} plans built "
                 f"({engine.plans_verified} verified, 0 violations), "
                 f"{engine.cache.hits} cache hits")
    if metrics.latency.samples:
        lines.append("latency histogram:")
        lines.append(metrics.latency.render())
    return "\n".join(lines)


def render_fleet_report(fleet: FleetScheduler, config: FleetBenchConfig,
                        metrics: FleetMetrics) -> str:
    """The one-screen fleet-bench report: one block per tenant."""
    gib = 1 << 30
    lines: List[str] = []
    mode = "continuous" if config.continuous else "flush-only"
    lines.append(f"fleet-bench — {len(config.tenants)} tenants on "
                 f"{fleet.device.name} ({mode} batching, "
                 f"autoscale {'on' if config.autoscale else 'off'}, "
                 f"seed {config.seed})")
    lines.append(f"device memory    : {fleet.ledger.capacity / gib:.1f} GiB "
                 f"capacity, {fleet.ledger.peak_reserved / gib:.2f} GiB "
                 f"peak reserved, {fleet.metrics.scale_up_refusals} "
                 f"scale-ups refused by the ledger")
    caps = fleet.bucket_caps()
    for tenant in config.tenants:
        name = tenant.name
        m = metrics.tenant(name)
        lines.append(f"--- {name} ({tenant.variant}, slo {tenant.slo.name}, "
                     f"{tenant.rps:g} req/s offered) ---")
        lines.append(f"  bucket cap     : {caps[name]} images "
                     f"(shared-device partition), replicas peak "
                     f"{metrics.peak_replicas[name]} "
                     f"(+{metrics.scale_ups[name]}/-"
                     f"{metrics.scale_downs[name]} scale events)")
        lines.append(f"  requests       : {m.arrived} arrived / "
                     f"{m.admitted} admitted / {m.completed_requests} "
                     f"completed / {m.rejected_queue_full} rejected / "
                     f"{m.expired} expired")
        lines.append(f"  batching       : {m.batches} batches formed, "
                     f"{metrics.joins[name]} continuous joins, "
                     f"{m.empty_flushes} empty flushes")
        lines.append(f"  latency        : {m.latency.summary()}")
    return "\n".join(lines)
