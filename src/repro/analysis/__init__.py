"""repro.analysis — whole-stack static analyzer.

Graph passes over a serialized :class:`~repro.graph.ir.Graph`:

- **graph-lint** (``SCA0xx``): structural integrity, registry shape
  re-inference, dead ops, orphan tensors, dangling references,
  inference-graph purity; and (``SCA3xx``) the constant values and op
  attributes the kernels trust unchecked — a batchnorm running-var
  constant at or below ``-eps``, a dropout rate outside ``[0, 1)``,
  constant and per-op dtype widths;
- **concurrency** (``SCA1xx``): may-happen-in-parallel hazards of the
  wavefront executor against the HMMS storage plan — TSO write/write
  and read/write conflicts, eager-free use-after-free;
- **determinism** (``SCA2xx``): frozen gradient reductions and unique
  per-op seeds for stochastic ops.

Artifact passes (they take richer targets than a graph):

- **lowering** (``SCA4xx``): :func:`verify_lowering` independently
  re-derives the lowered tables of a
  :class:`~repro.graph.executor.GraphExecutor` (every execution,
  compiled or not) from its source graph; :func:`analyze_graph` runs it
  when given the executor as ``plan=``;
- **config-lint** (``SCA5xx``): :func:`lint_engine_config` audits a
  serving engine's memory budget and plan-cache keys.

The concurrency pass extends across devices for mesh plans
(``SCA104`` via :func:`detect_mesh_hazards` — invoked directly, mesh
plans are not single graphs).

Entry points: :func:`analyze_graph` (library; ``.raise_if_failed()`` is
the guard before running a graph), ``repro lint`` (CLI),
:func:`detect_mesh_hazards` (``repro mesh-bench`` guard).  Every finding
counts: there is no suppression channel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..graph.ir import Graph
from ..hmms.storage import StorageAssignment, assign_storage
from .config import check_cache_keys, lint_engine_config
from .determinism import audit_determinism
from .diagnostics import (
    CODES, PASS_CONFIG, PASS_DETERMINISM, PASS_LINT,
    PASS_LOWERING, PASS_RACES, SEV_ERROR, SEV_WARNING, AnalysisReport,
    Diagnostic, DiagnosticSpec, GraphAnalysisError,
)
from .lint import lint_graph
from .lowering import verify_lowering
from .mesh import detect_mesh_hazards
from .races import ancestor_masks, detect_races

if TYPE_CHECKING:                            # no runtime executor import
    from ..graph.executor import GraphExecutor

__all__ = [
    "analyze_graph", "lint_graph", "detect_races", "audit_determinism",
    "verify_lowering",
    "lint_engine_config", "check_cache_keys",
    "ancestor_masks", "detect_mesh_hazards",
    "AnalysisReport", "Diagnostic", "DiagnosticSpec", "GraphAnalysisError",
    "CODES", "SEV_ERROR", "SEV_WARNING",
    "PASS_LINT", "PASS_RACES", "PASS_DETERMINISM",
    "PASS_LOWERING", "PASS_CONFIG",
    "GRAPH_PASSES",
]

#: Passes :func:`analyze_graph` can run over a bare graph.
GRAPH_PASSES = (PASS_LINT, PASS_RACES, PASS_DETERMINISM)


def analyze_graph(
    graph: Graph,
    *,
    assignment: Optional[StorageAssignment] = None,
    workers: int = 4,
    inference: bool = False,
    passes: Sequence[str] = GRAPH_PASSES,
    plan: Optional["GraphExecutor"] = None,
) -> AnalysisReport:
    """Run the graph passes over ``graph`` and return a report.

    ``assignment`` defaults to a fresh :func:`assign_storage` run with
    the paper's optimizations on — the same plan the executor and HMMS
    use.  ``workers`` selects the happens-before model the concurrency
    pass checks against: >1 means DAG reachability (the wavefront
    executor), 1 means the total serialized order.  ``inference=True``
    additionally enforces inference-graph purity and skips the
    (training-only) determinism audit.

    ``passes`` selects among :data:`GRAPH_PASSES`.  Given ``plan`` — an
    executor lowered from ``graph`` — the lowering verifier runs as well.
    Naming ``lowering`` without a plan, or ``config-lint`` at all, raises
    ``ValueError`` rather than silently checking nothing.

    The report never raises; call :meth:`AnalysisReport.raise_if_failed`
    to turn error-severity findings into :class:`GraphAnalysisError`.
    """
    if PASS_LOWERING in passes and plan is None:
        raise ValueError(
            f"the {PASS_LOWERING!r} pass verifies a lowered executor: "
            "pass plan=")
    valid = GRAPH_PASSES + (PASS_LOWERING,)
    unknown = [p for p in passes if p not in valid]
    if unknown:
        raise ValueError(
            f"unknown graph pass(es) {unknown}; valid: {list(valid)} "
            f"({PASS_CONFIG!r} has no graph: call lint_engine_config)")

    findings: List[Diagnostic] = []
    if PASS_LINT in passes:
        findings.extend(lint_graph(graph, inference=inference))
    if PASS_RACES in passes:
        if assignment is None:
            assignment = assign_storage(graph)
        findings.extend(detect_races(graph, assignment, workers=workers))
    if PASS_DETERMINISM in passes and not inference:
        findings.extend(audit_determinism(graph))
    ran = tuple(p for p in GRAPH_PASSES if p in passes)
    if plan is not None:
        findings.extend(verify_lowering(plan))
        ran += (PASS_LOWERING,)

    return AnalysisReport(
        graph_name=graph.name,
        num_ops=len(graph.ops),
        num_tensors=len(graph.tensors),
        workers=workers,
        passes=ran,
        findings=findings,
    )
