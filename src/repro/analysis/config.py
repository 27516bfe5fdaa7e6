"""Configuration lint (``SCA5xx``) for a serving engine.

These checks are *static* in the serving sense: they inspect standing
configuration — the memory budget and the plan-cache keys — against the
cost model and HMMS planner, without admitting a single request.
``repro lint --config`` runs them.

Codes:

- ``SCA503`` — a serving bucket's planned device peak exceeds the
  engine's memory budget, or no bucket fits it at all;
- ``SCA504`` — a plan-cache key that does not end with a pipeline
  fingerprint (compiled and interpreted plans could collide).

Imports of the runtimes are deferred to call time: the analysis package
must stay importable without pulling the serving stack in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .diagnostics import Diagnostic

if TYPE_CHECKING:
    from ..hmms.planner import PlanCache
    from ..serve.engine import ServingEngine

__all__ = ["lint_engine_config", "check_cache_keys"]

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

