"""repro.analysis — whole-stack static analyzer.

Graph passes over a serialized :class:`~repro.graph.ir.Graph` that
:meth:`~repro.graph.ir.Graph.validate` accepts:

- **graph-lint** (``SCA0xx``): dead ops, orphan tensors,
  inference-graph purity; and (``SCA3xx``) the constant values and op
  attributes the kernels trust unchecked — a batchnorm running-var
  constant at or below ``-eps``, a dropout rate outside ``[0, 1)``,
  constant and per-op dtype widths;
- **concurrency** (``SCA1xx``): may-happen-in-parallel hazards of the
  wavefront executor against the HMMS storage plan — TSO write/write
  and read/write conflicts, eager-free use-after-free;
- **determinism** (``SCA2xx``): frozen gradient reductions and unique
  per-op seeds for stochastic ops.

:func:`verify_lowering` (``SCA4xx``) independently re-derives the
lowered tables of a :class:`~repro.graph.executor.GraphExecutor`
(every execution, compiled or not) from its source graph;
:func:`analyze_graph` runs it when given the executor as ``plan=``.

The concurrency pass extends across devices for mesh plans
(``SCA104`` via :func:`detect_mesh_hazards` — invoked directly, mesh
plans are not single graphs).

Entry points: :func:`analyze_graph` (library; ``.raise_if_failed()`` is
the guard before running a graph), ``repro lint`` (CLI),
:func:`detect_mesh_hazards` (``repro mesh-bench`` guard).  Every finding
counts: there is no suppression channel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..graph.ir import Graph
from ..hmms.storage import assign_storage
from .determinism import audit_determinism
from .diagnostics import (
    CODES, PASS_DETERMINISM, PASS_LINT, PASS_LOWERING, PASS_RACES,
    SEV_ERROR, SEV_WARNING, AnalysisReport, Diagnostic, DiagnosticSpec,
    GraphAnalysisError,
)
from .lint import lint_graph
from .lowering import verify_lowering
from .mesh import detect_mesh_hazards
from .races import ancestor_masks, detect_races

if TYPE_CHECKING:                            # no runtime executor import
    from ..graph.executor import GraphExecutor

__all__ = [
    "analyze_graph", "lint_graph", "detect_races", "audit_determinism",
    "verify_lowering", "ancestor_masks", "detect_mesh_hazards",
    "AnalysisReport", "Diagnostic", "DiagnosticSpec", "GraphAnalysisError",
    "CODES", "SEV_ERROR", "SEV_WARNING",
    "PASS_LINT", "PASS_RACES", "PASS_DETERMINISM", "PASS_LOWERING",
]


def analyze_graph(
    graph: Graph,
    *,
    workers: int = 4,
    inference: bool = False,
    plan: Optional["GraphExecutor"] = None,
) -> AnalysisReport:
    """Validate ``graph``, run the graph passes and return a report.

    A graph :meth:`~repro.graph.ir.Graph.validate` rejects raises its
    ``ValueError`` here: it is never reported clean.  The concurrency
    pass checks a fresh :func:`assign_storage` plan — the one the
    executor and HMMS use — under the happens-before model ``workers``
    selects: >1 means DAG reachability (the wavefront executor), 1 the
    total serialized order.  ``inference=True`` additionally enforces
    inference-graph purity and skips the (training-only) determinism
    audit.  Given ``plan`` — an executor lowered from ``graph`` — the
    lowering verifier runs as well.

    Call :meth:`AnalysisReport.raise_if_failed` to turn error-severity
    findings into :class:`GraphAnalysisError`.
    """
    graph.validate()
    findings: List[Diagnostic] = lint_graph(graph, inference=inference)
    findings.extend(detect_races(graph, assign_storage(graph),
                                 workers=workers))
    passes = (PASS_LINT, PASS_RACES)
    if not inference:
        findings.extend(audit_determinism(graph))
        passes += (PASS_DETERMINISM,)
    if plan is not None:
        findings.extend(verify_lowering(plan))
        passes += (PASS_LOWERING,)

    return AnalysisReport(
        graph_name=graph.name,
        num_ops=len(graph.ops),
        num_tensors=len(graph.tensors),
        workers=workers,
        passes=passes,
        findings=findings,
    )
