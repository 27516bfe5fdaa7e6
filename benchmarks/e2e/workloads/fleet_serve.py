"""``fleet_serve``: replay three seeded Poisson traces of the fleet-soak
tenant mix — at half, one and two times the offered rate — through fresh
``FleetScheduler`` instances.

The engines are symbolic, so kernels and the planner are idle after
start-up and the host time is the event loop's: batcher, admission queue,
continuous joins (1x), the rejection path (2x, about a quarter refused)
and the flush-timeout path (0.5x).  Open loop on the simulated clock.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple

from repro.serve import (
    BATCH, INTERACTIVE, STANDARD, FleetBenchConfig, FleetScheduler, Request,
    Server, ServingEngine, TenantConfig, fleet_arrivals,
)

from harness import MIB, Workload, nearest_rank, timed
from spans import SETUP

#: The ``benchmarks/test_fleet_soak.py`` tenant mix (200k req/s offered).
TENANTS = [
    TenantConfig(name="resnet-live", model="small_resnet", batch_cap=64,
                 slo=INTERACTIVE, rps=100_000.0, queue_depth=512),
    TenantConfig(name="resnet-split4", model="small_resnet", split=4,
                 batch_cap=64, slo=STANDARD, rps=60_000.0, queue_depth=512),
    TenantConfig(name="vgg-bulk", model="small_vgg", batch_cap=64,
                 slo=BATCH, rps=40_000.0, queue_depth=512),
]
SCALES = (0.5, 1.0, 2.0)
#: About this many requests per trace at every scale.  The issue asked for
#: 20k; halved so that 50 ops fit the window the driver's time cap allows.
REQUESTS_PER_TRACE = 10_000
OFFERED_RPS = sum(t.rps for t in TENANTS)


def p99(latencies: List[float]) -> float:
    """The benchmark's own nearest-rank percentile: the reference shares
    no code with ``repro.serve.metrics``."""
    return nearest_rank(latencies, 99)


class FleetServe(Workload):
    name = "fleet_serve"

    def setup(self) -> None:
        tracer = self.tracer
        self.traces: List[List[Request]] = []
        with tracer.span("serve.loadgen.arrivals", "serve.loadgen"):
            for scale in SCALES:
                tenants = [dataclasses.replace(t, rps=t.rps * scale)
                           for t in TENANTS]
                self.traces.append(fleet_arrivals(FleetBenchConfig(
                    tenants=tenants, seed=self.seed,
                    duration=REQUESTS_PER_TRACE / (OFFERED_RPS * scale))))
        # The first scheduler plans every tenant's buckets and partitions
        # the device; later ones are cheap but not free, so each op gets
        # fresh ones built outside its timed interval.
        with tracer.span("serve.fleet.startup", "serve.fleet"):
            FleetScheduler(TENANTS)

    def prepare(self, index: int) -> List[Tuple[FleetScheduler,
                                                List[Request]]]:
        prepared = []
        for trace in self.traces:
            fleet = FleetScheduler(TENANTS)
            for tenant in fleet.tenants.values():
                self.tracer.wrap(tenant.engine, "entry_for", "serve.engine",
                                 "serve.engine.entry_for")
                self.tracer.wrap(tenant.engine, "execute", "serve.engine",
                                 "serve.engine.execute")
            prepared.append((fleet, [dataclasses.replace(r) for r in trace]))
        return prepared

    def op(self, index: int, prepared: Any) -> Any:
        for fleet, requests in prepared:
            with self.tracer.span("serve.fleet.run", "serve.fleet"):
                fleet.run(requests)
        return prepared

    def token(self, index: int, prepared: Any, out: Any) -> Dict[str, Any]:
        """Re-derive every tenant's counts and p99 from the raw requests."""
        token: Dict[str, Any] = {"sound": True, "p99": []}
        for scale, (fleet, requests) in zip(SCALES, out):
            fleet.metrics.check_accounting(fleet.still_queued())
            sound = not any(fleet.still_queued().values())
            latencies: Dict[str, List[float]] = {t.name: [] for t in TENANTS}
            arrived = dict.fromkeys(latencies, 0)
            for request in requests:
                arrived[request.tenant] += 1
                if request.completion_time is not None:
                    latencies[request.tenant].append(request.latency)
            for name, samples in latencies.items():
                metrics = fleet.metrics.tenant(name)
                tail = p99(samples)
                sound = sound and metrics.arrived == arrived[name] \
                    and metrics.completed_requests == len(samples) \
                    and metrics.latency.p(99) == tail \
                    and arrived[name] == (len(samples) + metrics.expired
                                          + metrics.rejected_queue_full)
                token["p99"].append(tail)
            token["sound"] = token["sound"] and sound
            if scale == 2.0:
                completed = [r for r in requests
                             if r.completion_time is not None]
                makespan = max(r.completion_time for r in completed)
                self.sim = (sum(r.size for r in completed) / makespan,
                            fleet.ledger.peak_reserved / MIB)
        return token

    def verify(self, tokens: List[Tuple[int, Any]]) -> List[int]:
        expected = tokens[0][1]["p99"]
        return [index for index, token in tokens
                if not token["sound"] or token["p99"] != expected]

    def layers(self, last_out: Any, op_ms_p50: float) -> Dict[str, float]:
        tracer = self.tracer
        ops = tracer.count("bench.op")
        run_ms = tracer.total_ms("serve.fleet.run") / ops
        engine_ms = (tracer.total_ms("serve.engine.entry_for")
                     + tracer.total_ms("serve.engine.execute")) / ops
        requests = sum(len(trace) for trace in self.traces)
        by_scale = dict(zip(SCALES, last_out))

        def pooled(scale: float, attribute: str) -> List[float]:
            fleet, _ = by_scale[scale]
            return [sample for metrics in fleet.metrics.per_tenant.values()
                    for sample in getattr(metrics, attribute).samples]

        overload, _ = by_scale[2.0]
        tenants = list(overload.metrics.per_tenant.values())
        missed = sum(m.rejected_queue_full + m.expired for m in tenants)
        fleets = [fleet for fleet, _ in last_out]
        every = [m for fleet in fleets
                 for m in fleet.metrics.per_tenant.values()]
        hits = sum(fleet.cache.hits for fleet in fleets)
        misses = sum(fleet.cache.misses for fleet in fleets)

        # The single-tenant Server on the interactive tenant's 1x trace:
        # the number to hold when Server becomes the one-tenant fleet.
        engine = ServingEngine.from_zoo(TENANTS[0].model,
                                        batch_cap=TENANTS[0].batch_cap)
        server = Server(engine, flush_timeout=INTERACTIVE.flush_timeout,
                        queue_depth=TENANTS[0].queue_depth)
        alone = [dataclasses.replace(r, tenant=None) for r in self.traces[1]
                 if r.tenant == TENANTS[0].name]
        _, server_ms = timed(lambda: server.run(alone))

        return {
            "serve.loadgen.arrivals_ms":
                tracer.total_ms("serve.loadgen.arrivals", SETUP),
            "serve.fleet.startup_ms":
                tracer.total_ms("serve.fleet.startup", SETUP),
            "serve.fleet.run_us_per_request": run_ms * 1e3 / requests,
            "serve.engine.calls": float(
                tracer.count("serve.engine.entry_for")
                + tracer.count("serve.engine.execute")) / ops,
            "serve.engine.busy_ms": engine_ms,
            "serve.fleet.loop_ms": run_ms - engine_ms,
            "serve.fleet.batches": float(sum(m.batches for m in every)),
            "serve.fleet.joins": float(sum(
                sum(fleet.metrics.joins.values()) for fleet in fleets)),
            "serve.fleet.empty_flushes":
                float(sum(m.empty_flushes for m in every)),
            "serve.fleet.sim_p99_ms.x0_5": p99(pooled(0.5, "latency")) * 1e3,
            "serve.fleet.sim_p99_ms.x1": p99(pooled(1.0, "latency")) * 1e3,
            "serve.fleet.sim_p99_ms.x2": p99(pooled(2.0, "latency")) * 1e3,
            "serve.fleet.queue_wait_p99_ms.x1":
                p99(pooled(1.0, "queue_wait")) * 1e3,
            "serve.fleet.miss_ratio.x2":
                missed / float(sum(m.arrived for m in tenants)),
            "serve.server.run_us_per_request": server_ms * 1e3 / len(alone),
            "hmms.plancache.hits": float(hits),
            "hmms.plancache.misses": float(misses),
            "hmms.plancache.evictions":
                float(sum(fleet.cache.evictions for fleet in fleets)),
            "hmms.plancache.hit_ratio": hits / float(hits + misses),
        }
