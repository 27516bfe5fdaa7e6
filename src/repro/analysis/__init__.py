"""repro.analysis — whole-stack static analyzer.

Graph passes over a serialized :class:`~repro.graph.ir.Graph`:

- **graph-lint** (``SCA0xx``): structural integrity, registry shape
  re-inference, dead ops, orphan tensors, dangling references,
  inference-graph purity;
- **absint** (``SCA3xx``): abstract interpretation — a per-tensor
  interval/NaN lattice propagated through registry ``abstract_eval``
  hooks, plus declared-dtype checks (provable-only policy);
- **concurrency** (``SCA1xx``): may-happen-in-parallel hazards of the
  wavefront executor against the HMMS storage plan — TSO write/write
  and read/write conflicts, eager-free use-after-free;
- **determinism** (``SCA2xx``): frozen gradient reductions and unique
  per-op seeds for stochastic ops.

Artifact passes (not run by :func:`analyze_graph` — they take richer
targets than a graph):

- **lowering** (``SCA4xx``): :func:`verify_lowering` independently
  re-derives the lowered tables of a
  :class:`~repro.graph.executor.GraphExecutor` (every execution,
  compiled or not) from its source graph;
- **config-lint** (``SCA5xx``): :func:`lint_engine_config` /
  :func:`lint_fleet_config` / :func:`lint_dense_config` audit serving,
  fleet, and patch-inference configuration.

The concurrency pass extends across devices for mesh plans
(``SCA104``/``SCA105`` via :func:`detect_mesh_hazards` — invoked
directly, mesh plans are not single graphs).

:class:`AnalysisSuite` drives everything at scale with inline/baseline
suppressions and a fingerprint-keyed result cache.

Entry points: :func:`analyze_graph` (library; ``.raise_if_failed()`` is
the guard before running a graph), :class:`AnalysisSuite` (suppressions
+ cache), ``repro lint`` (CLI), :func:`detect_mesh_hazards`
(``repro mesh-bench`` guard).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..graph.ir import Graph
from ..hmms.storage import StorageAssignment, assign_storage
from .absint import interpret_graph
from .config import (
    check_cache_keys, lint_dense_config, lint_engine_config,
    lint_fleet_config,
)
from .determinism import audit_determinism
from .diagnostics import (
    CODES, HELP_URI, PASS_ABSINT, PASS_CONFIG, PASS_DETERMINISM, PASS_LINT,
    PASS_LOWERING, PASS_RACES, SEV_ERROR, SEV_WARNING, AnalysisReport,
    Diagnostic, DiagnosticSpec, GraphAnalysisError,
)
from .lint import lint_graph
from .lowering import verify_lowering
from .mesh import analyze_mesh_plan, detect_mesh_hazards
from .races import ancestor_masks, detect_races
from .suite import (
    SUPPRESS_ATTR, AnalysisSuite, SuiteReport, Suppression,
    graph_fingerprint, load_baseline, write_baseline,
)

__all__ = [
    "analyze_graph", "lint_graph", "detect_races", "audit_determinism",
    "interpret_graph", "verify_lowering",
    "lint_engine_config", "lint_fleet_config", "lint_dense_config",
    "check_cache_keys",
    "ancestor_masks", "detect_mesh_hazards", "analyze_mesh_plan",
    "AnalysisSuite", "SuiteReport", "Suppression", "SUPPRESS_ATTR",
    "graph_fingerprint", "load_baseline", "write_baseline",
    "AnalysisReport", "Diagnostic", "DiagnosticSpec", "GraphAnalysisError",
    "CODES", "SEV_ERROR", "SEV_WARNING", "HELP_URI",
    "PASS_LINT", "PASS_RACES", "PASS_DETERMINISM",
    "PASS_ABSINT", "PASS_LOWERING", "PASS_CONFIG",
    "ALL_PASSES", "GRAPH_PASSES",
]

#: Passes :func:`analyze_graph` can run over a bare graph.
GRAPH_PASSES = (PASS_LINT, PASS_ABSINT, PASS_RACES, PASS_DETERMINISM)

#: Every registered pass name, including the artifact passes driven
#: through :class:`AnalysisSuite` / the dedicated entry points.
ALL_PASSES = GRAPH_PASSES + (PASS_LOWERING, PASS_CONFIG)


def analyze_graph(
    graph: Graph,
    *,
    assignment: Optional[StorageAssignment] = None,
    workers: int = 4,
    inference: bool = False,
    passes: Sequence[str] = GRAPH_PASSES,
) -> AnalysisReport:
    """Run the graph passes over ``graph`` and return a report.

    ``assignment`` defaults to a fresh :func:`assign_storage` run with
    the paper's optimizations on — the same plan the executor and HMMS
    use.  ``workers`` selects the happens-before model the concurrency
    pass checks against: >1 means DAG reachability (the wavefront
    executor), 1 means the total serialized order.  ``inference=True``
    additionally enforces inference-graph purity and skips the
    (training-only) determinism audit.

    ``passes`` may name any registered pass; the artifact passes
    (``lowering``, ``config-lint``) need a plan or runtime object and
    are skipped here — run them through :class:`AnalysisSuite` or their
    dedicated entry points.

    The report never raises; call :meth:`AnalysisReport.raise_if_failed`
    to turn error-severity findings into :class:`GraphAnalysisError`.
    """
    unknown = [p for p in passes if p not in ALL_PASSES]
    if unknown:
        raise ValueError(
            f"unknown analysis pass(es) {unknown}; valid: {list(ALL_PASSES)}")

    findings: List[Diagnostic] = []
    if PASS_LINT in passes:
        findings.extend(lint_graph(graph, inference=inference))
    if PASS_ABSINT in passes:
        findings.extend(interpret_graph(graph))
    if PASS_RACES in passes:
        if assignment is None:
            assignment = assign_storage(graph)
        findings.extend(detect_races(graph, assignment, workers=workers))
    if PASS_DETERMINISM in passes and not inference:
        findings.extend(audit_determinism(graph))

    return AnalysisReport(
        graph_name=graph.name,
        num_ops=len(graph.ops),
        num_tensors=len(graph.tensors),
        workers=workers,
        passes=tuple(p for p in GRAPH_PASSES if p in passes),
        findings=findings,
    )
