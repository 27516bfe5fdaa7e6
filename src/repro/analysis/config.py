"""Configuration lint (``SCA5xx``) for the serving, fleet, and patch-
inference runtimes.

These checks are *static* in the serving sense: they inspect standing
configuration — capacity partitions, SLO classes, memory budgets, plan-
cache keys — against the cost model and HMMS planner, without admitting
a single request.  Every hazard here is one that today surfaces only at
run time (an OOM'd batch, a tenant whose every request expires, a
``ValueError`` mid-stream) or not at all (a cache collision between
compiled and interpreted plans).

Codes:

- ``SCA501`` — tenant reservations overcommit the :class:`DeviceLedger`,
  or a reservation is below the plan peak of the tenant's capped bucket;
- ``SCA502`` — an SLO deadline the modelled inference latency can never
  meet (error at batch 1, warning when only the capped bucket overruns);
- ``SCA503`` — a planned graph's device peak exceeds its owner's memory
  budget (serving bucket, patch-variant plan or unsplit tail);
- ``SCA504`` — a plan-cache key that does not end with a pipeline
  fingerprint.

Imports of the runtimes are deferred to call time: the analysis package
must stay importable without pulling the serving stack in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from .diagnostics import SEV_WARNING, Diagnostic

if TYPE_CHECKING:
    from ..hmms.planner import PlanCache
    from ..infer.inferer import PatchInferer
    from ..serve.engine import ServingEngine
    from ..serve.fleet import FleetScheduler

__all__ = [
    "lint_engine_config", "lint_fleet_config", "lint_dense_config",
    "check_cache_keys",
]

_HEX_DIGITS = frozenset("0123456789abcdef")


def _fingerprintish(value: object) -> bool:
    """True when ``value`` looks like a pipeline identity: the literal
    ``"interpreter"`` or a hex fingerprint digest."""
    if not isinstance(value, str):
        return False
    if value == "interpreter":
        return True
    return len(value) >= 8 and set(value) <= _HEX_DIGITS


def check_cache_keys(cache: "PlanCache", owner: str) -> List[Diagnostic]:
    """SCA504 over every retained key of ``cache``."""
    findings: List[Diagnostic] = []
    for key in cache.keys():
        if isinstance(key, tuple) and key and _fingerprintish(key[-1]):
            continue
        findings.append(Diagnostic(
            "SCA504",
            f"{owner}: plan-cache key {key!r} does not end with a "
            "pipeline fingerprint — compiled and interpreted plans can "
            "collide"))
    return findings


def lint_engine_config(engine: "ServingEngine",
                       owner: str = "") -> List[Diagnostic]:
    """Budget and cache-key checks for one :class:`ServingEngine`."""
    findings: List[Diagnostic] = []
    label = owner or f"engine {engine.model.name!r}"
    try:
        bucket = engine.max_batch
    except ValueError as exc:
        findings.append(Diagnostic(
            "SCA503",
            f"{label}: no batch fits the memory budget — {exc}"))
        return findings + check_cache_keys(engine.cache, label)
    entry = engine.entry_for(bucket)
    if entry.plan.device_peak > engine.memory_budget:
        findings.append(Diagnostic(
            "SCA503",
            f"{label}: bucket {bucket} plans a device peak of "
            f"{entry.plan.device_peak} bytes, over the "
            f"{engine.memory_budget}-byte budget"))
    findings.extend(check_cache_keys(engine.cache, label))
    return findings


def lint_fleet_config(scheduler: "FleetScheduler") -> List[Diagnostic]:
    """Capacity-partition, SLO, and cache-key checks for a fleet."""
    findings: List[Diagnostic] = []
    ledger = scheduler.ledger
    total_reserved = 0
    for name, tenant in scheduler.tenants.items():
        label = f"tenant {name!r}"
        cap_entry = tenant.engine.entry_for(tenant.bucket_cap)
        peak = cap_entry.plan.device_peak
        if tenant.reservation < peak:
            findings.append(Diagnostic(
                "SCA501",
                f"{label}: reservation {tenant.reservation} bytes is "
                f"below the bucket-{tenant.bucket_cap} plan peak "
                f"{peak} bytes — a full batch would exceed the "
                "reservation"))
        total_reserved += tenant.reservation

        deadline = tenant.config.slo.deadline
        if deadline is not None:
            single = tenant.engine.entry_for(1).latency
            if deadline <= single:
                findings.append(Diagnostic(
                    "SCA502",
                    f"{label}: SLO deadline {deadline:.3f}s does not "
                    f"exceed even the batch-1 modelled latency "
                    f"{single:.3f}s — every request expires"))
            elif deadline <= cap_entry.latency:
                findings.append(Diagnostic(
                    "SCA502",
                    f"{label}: SLO deadline {deadline:.3f}s is within "
                    f"the bucket-{tenant.bucket_cap} modelled latency "
                    f"{cap_entry.latency:.3f}s — full buckets expire",
                    severity=SEV_WARNING))

    if total_reserved > ledger.capacity:
        findings.append(Diagnostic(
            "SCA501",
            f"one replica per tenant reserves {total_reserved} bytes "
            f"total, over the ledger capacity {ledger.capacity} — the "
            "tenants cannot co-reside"))
    findings.extend(check_cache_keys(scheduler.cache, "fleet"))
    return findings


def lint_dense_config(inferer: "PatchInferer", in_hw: Tuple[int, int],
                      grid: Tuple[int, int],
                      overlap: int = 0) -> List[Diagnostic]:
    """Budget and cache-key checks for one dense (patched) workload.

    Reads the inferer's own decision (``_dense_plan``: join depth, head
    variants, patch batch, tail) rather than re-deriving it, and
    statically proves every entry the stream will run — each head
    variant at each bucket it uses, and the unsplit tail — inside the
    budget: the check :meth:`max_patch_batch` does with a runtime
    ``ValueError`` mid-request today."""
    findings: List[Diagnostic] = []
    label = f"dense {getattr(inferer.model, 'name', '?')!r} grid {grid}"
    try:
        tiles, variants, patch_batch, tail, _ = inferer._dense_plan(
            in_hw, grid, overlap)
    except ValueError as exc:
        findings.append(Diagnostic("SCA503", f"{label}: {exc}"))
    else:
        entries = [entry for _, entry
                   in inferer._executions(variants, patch_batch)]
        if tail is not None:
            entries.append(tail)
        for entry in entries:
            if entry.plan.device_peak > inferer.memory_budget:
                findings.append(Diagnostic(
                    "SCA503",
                    f"{label}: join_depth {tiles.depth}: graph "
                    f"{entry.graph.name!r} at batch {entry.batch} plans "
                    f"{entry.plan.device_peak} bytes, over the "
                    f"{inferer.memory_budget}-byte budget"))
    findings.extend(check_cache_keys(inferer.cache, label))
    return findings
