"""``repro.hmms`` — the Heterogeneous Memory Management System (paper §4)."""

from .layerwise import plan_layerwise
from .offload import (
    OffloadPlan, TransferPlan, plan_offload, plan_prefetch,
    select_offload_candidates,
)
from .planner import SCHEDULERS, HMMSPlanner, MemoryPlan, OpSchedule, PlanCache
from .pools import BumpPool, FirstFitPool, PoolError
from .storage import StorageAssignment, assign_storage
from .tso import POOL_DEVICE_GENERAL, POOL_DEVICE_PARAM, TSO
from .verify import (
    INVARIANT_FAMILIES, PlanVerificationError, VerificationReport, Violation,
    verify_plan,
)

__all__ = [
    "TSO", "POOL_DEVICE_GENERAL", "POOL_DEVICE_PARAM",
    "StorageAssignment", "assign_storage",
    "FirstFitPool", "BumpPool", "PoolError",
    "OffloadPlan", "TransferPlan", "plan_offload", "plan_prefetch",
    "select_offload_candidates", "plan_layerwise",
    "HMMSPlanner", "MemoryPlan", "OpSchedule", "PlanCache", "SCHEDULERS",
    "INVARIANT_FAMILIES", "PlanVerificationError", "VerificationReport",
    "Violation", "verify_plan",
]
