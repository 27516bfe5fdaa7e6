"""``repro.serve`` — memory-plan-aware inference serving runtime.

The serving side of the reproduction: forward-only inference graphs
planned by HMMS, verified by :mod:`repro.hmms.verify`, cached per
``(model, split scheme, batch, pipeline fingerprint)``, and driven by an
event-loop of admission queue -> dynamic batcher -> engine on a
simulated clock.  On top of the single-tenant pipeline sits the fleet
runtime (:mod:`repro.serve.fleet`): N engines co-resident on one device
with shared memory accounting, per-tenant SLO classes and quotas,
continuous batching at wavefront-step boundaries, and a replica
autoscaler.  See ``docs/serving.md`` and ``docs/fleet_serving.md``.
"""

from .batcher import DynamicBatcher
from .engine import ServingEngine
from .fleet import (
    DeviceLedger, FleetMetrics, FleetScheduler, TenantConfig,
    wavefront_steps,
)
from .loadgen import (
    BenchConfig, FleetBenchConfig, fleet_arrivals, poisson_arrivals,
    render_fleet_report, render_report, run_bench, run_fleet_bench,
)
from .metrics import LatencyHistogram, ServingMetrics, percentile
from .queue import AdmissionQueue, OversizeRequestError
from .request import Request
from .server import Server
from .slo import BATCH, INTERACTIVE, SLO_CLASSES, STANDARD, SLOClass

__all__ = [
    "Request",
    "AdmissionQueue", "OversizeRequestError",
    "DynamicBatcher",
    "ServingEngine",
    "Server",
    "LatencyHistogram", "ServingMetrics", "percentile",
    "BenchConfig", "poisson_arrivals", "run_bench", "render_report",
    "SLOClass", "INTERACTIVE", "STANDARD", "BATCH", "SLO_CLASSES",
    "TenantConfig", "DeviceLedger", "FleetMetrics", "FleetScheduler",
    "wavefront_steps",
    "FleetBenchConfig", "fleet_arrivals", "run_fleet_bench",
    "render_fleet_report",
]
