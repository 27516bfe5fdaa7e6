"""Diagnostics framework for the whole-graph static analyzer.

Every finding carries a stable ``SCAxxx`` code (Split-CNN Analyzer) so
tests and CI greps can pin behavior to a code rather than to message
text.  Codes are grouped by pass:

- ``SCA0xx`` — graph lint (dead ops, orphan tensors, inference purity);
- ``SCA1xx`` — concurrency hazards under the wavefront executor;
- ``SCA2xx`` — determinism audit;
- ``SCA3xx`` — constant values and op attributes the kernels trust
  unchecked (run by the graph lint);
- ``SCA4xx`` — lowering verification of the executor's build-time tables.

Findings anchor to graph objects (op ids, tensor ids, TSO ids), not to
source files.  A report renders as text or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SEV_ERROR", "SEV_WARNING",
    "PASS_LINT", "PASS_RACES", "PASS_DETERMINISM",
    "PASS_LOWERING",
    "DiagnosticSpec", "CODES", "Diagnostic", "AnalysisReport",
    "GraphAnalysisError",
]

SEV_ERROR = "error"
SEV_WARNING = "warning"

PASS_LINT = "graph-lint"
PASS_RACES = "concurrency"
PASS_DETERMINISM = "determinism"
PASS_LOWERING = "lowering"

@dataclass(frozen=True)
class DiagnosticSpec:
    """Static description of one diagnostic code."""

    code: str
    title: str                  # short kebab-case label
    severity: str               # default severity of findings with this code
    pass_name: str
    description: str            # one-sentence rule statement


_SPECS = [
    # --- graph lint -----------------------------------------------------
    DiagnosticSpec(
        "SCA002", "dead-op", SEV_WARNING, PASS_LINT,
        "No output of the op is ever consumed and none is a run output — "
        "the op burns time and memory for nothing."),
    DiagnosticSpec(
        "SCA003", "orphan-tensor", SEV_WARNING, PASS_LINT,
        "The tensor has no producer and no consumer: it is unreachable "
        "from any execution of the graph."),
    DiagnosticSpec(
        "SCA006", "inference-impurity", SEV_ERROR, PASS_LINT,
        "An inference graph carries training-only structure: stochastic "
        "ops, backward ops, gradient/error tensors, saved-for-backward "
        "marks, or a loss head."),
    # --- concurrency hazards --------------------------------------------
    DiagnosticSpec(
        "SCA101", "write-write-race", SEV_ERROR, PASS_RACES,
        "Two ops that may execute in parallel both write bytes of the "
        "same TSO with no dependency path ordering them."),
    DiagnosticSpec(
        "SCA102", "read-write-race", SEV_ERROR, PASS_RACES,
        "One op writes a TSO while an unordered op reads it — the reader "
        "may observe partially updated bytes."),
    DiagnosticSpec(
        "SCA103", "use-after-free-race", SEV_ERROR, PASS_RACES,
        "The eager-free plan may drop a value while (or before) an "
        "unaccounted reader still uses it: the reader is neither counted "
        "in the tensor's refcount nor ordered before any counted "
        "consumer."),
    DiagnosticSpec(
        "SCA104", "cross-device-transfer-race", SEV_ERROR, PASS_RACES,
        "A mesh transfer lands in a destination tensor that a kernel on "
        "the destination device may be producing or reading concurrently: "
        "the landing tensor has a local producer, does not exist, or the "
        "transfer is not ordered before the tensor's first consumer."),
    # --- determinism ----------------------------------------------------
    DiagnosticSpec(
        "SCA201", "unfrozen-reduction", SEV_ERROR, PASS_DETERMINISM,
        "A multi-producer gradient reduction is not a single frozen "
        "grad_acc chain, so the reduction order — and the floating-point "
        "result — depends on execution timing."),
    DiagnosticSpec(
        "SCA202", "unseeded-stochastic-op", SEV_ERROR, PASS_DETERMINISM,
        "A stochastic op is missing a per-op seed attribute, or shares "
        "its seed with another stochastic op — replay and parallel "
        "execution would not be bit-reproducible."),
    # --- constants and attributes (graph lint) --------------------------
    DiagnosticSpec(
        "SCA301", "possible-division-by-zero", SEV_ERROR, PASS_LINT,
        "An eval-mode batchnorm's running-var constant reaches -eps or "
        "below, so 1/sqrt(var + eps) is NaN, or a dropout rate lies "
        "outside [0, 1), so the inverted-dropout scale zeroes or "
        "shrinks the layer — both run to completion silently."),
    DiagnosticSpec(
        "SCA304", "dtype-mismatch", SEV_ERROR, PASS_LINT,
        "A compile-time constant stores a non-float array or one whose "
        "itemsize differs from its declared dtype_bytes, or an op mixes "
        "tensors of different declared float widths — memory accounting "
        "then disagrees with the values the kernels compute on."),
    # --- lowering verification ------------------------------------------
    DiagnosticSpec(
        "SCA401", "kernel-binding-mismatch", SEV_ERROR, PASS_LOWERING,
        "The lowered step list does not cover every source op exactly "
        "once in serialized order with the kernel the registry declares "
        "for its op type."),
    DiagnosticSpec(
        "SCA402", "dependency-array-mismatch", SEV_ERROR, PASS_LOWERING,
        "The plan's dense wavefront arrays (remaining-dependency counts, "
        "dependent lists, initial ready set) disagree with the dependency "
        "DAG re-derived from tensor producers and forward_of links."),
    DiagnosticSpec(
        "SCA403", "refcount-mismatch", SEV_ERROR, PASS_LOWERING,
        "The plan's eager-free refcounts disagree with independently "
        "re-derived consumer counts, or the plan would free a pinned "
        "value (parameter, constant, run output, or final gradient)."),
    DiagnosticSpec(
        "SCA404", "twin-retarget-mismatch", SEV_ERROR, PASS_LOWERING,
        "A backward op's precomputed forward reference, or any op's "
        "seed pair, disagrees with the source graph — e.g. a fused op "
        "whose backward twins were not retargeted."),
    DiagnosticSpec(
        "SCA405", "constant-table-mismatch", SEV_ERROR, PASS_LOWERING,
        "A persistent value the plan seeds at build time (parameter or "
        "constant) is missing, shape-inconsistent, or non-finite — or a "
        "non-persistent tensor is seeded as if it were."),
    DiagnosticSpec(
        "SCA406", "unsafe-overwrite", SEV_ERROR, PASS_LOWERING,
        "The plan lets an op overwrite an input that is not provably dead: "
        "the tensor has another consumer, is pinned or a graph input, or "
        "is produced by a forward op (its value may be a view of one later "
        "ops read) or by an aliasing op."),
]

CODES: Dict[str, DiagnosticSpec] = {spec.code: spec for spec in _SPECS}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a code plus anchors into the graph it was found in."""

    code: str
    message: str
    severity: str = ""                       # filled from CODES when empty
    op_ids: Tuple[int, ...] = ()
    tensor_id: Optional[int] = None
    tso_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if not self.severity:
            object.__setattr__(self, "severity", CODES[self.code].severity)

    @property
    def spec(self) -> DiagnosticSpec:
        return CODES[self.code]

    def anchor(self) -> str:
        parts = []
        if self.op_ids:
            label = "op" if len(self.op_ids) == 1 else "ops"
            parts.append(f"{label} {'<->'.join(str(i) for i in self.op_ids)}")
        if self.tensor_id is not None:
            parts.append(f"tensor {self.tensor_id}")
        if self.tso_id is not None:
            parts.append(f"TSO {self.tso_id}")
        return ", ".join(parts)

    def __str__(self) -> str:
        where = self.anchor()
        location = f" [{where}]" if where else ""
        return (f"{self.code} {self.severity} "
                f"({self.spec.title}){location}: {self.message}")


class GraphAnalysisError(RuntimeError):
    """The static analyzer found at least one error-severity diagnostic."""

    def __init__(self, report: "AnalysisReport") -> None:
        super().__init__(report.render())
        self.report = report


@dataclass
class AnalysisReport:
    """Outcome of statically analyzing one graph."""

    graph_name: str
    num_ops: int
    num_tensors: int
    workers: int
    passes: Tuple[str, ...] = ()
    findings: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.findings if d.severity == SEV_ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.findings if d.severity == SEV_WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding exists (warnings allowed)."""
        return not self.errors

    def raise_if_failed(self) -> "AnalysisReport":
        if not self.ok:
            raise GraphAnalysisError(self)
        return self

    # -- emitters --------------------------------------------------------
    def render(self) -> str:
        """Human-readable multi-line report."""
        mode = "serial" if self.workers <= 1 else f"{self.workers} workers"
        lines = [
            f"static analysis of {self.graph_name!r} "
            f"({self.num_ops} ops, {self.num_tensors} tensors, {mode}; "
            f"passes: {', '.join(self.passes)})",
            f"  {len(self.errors)} errors, {len(self.warnings)} warnings",
        ]
        for finding in self.findings:
            lines.append(f"  {finding}")
        if not self.findings:
            lines.append("  clean")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload: Dict[str, Any] = {
            "graph": self.graph_name,
            "num_ops": self.num_ops,
            "num_tensors": self.num_tensors,
            "workers": self.workers,
            "passes": list(self.passes),
            "ok": self.ok,
            "findings": [
                {
                    "code": d.code,
                    "title": d.spec.title,
                    "severity": d.severity,
                    "pass": d.spec.pass_name,
                    "message": d.message,
                    "op_ids": list(d.op_ids),
                    "tensor_id": d.tensor_id,
                    "tso_id": d.tso_id,
                }
                for d in self.findings
            ],
        }
        return json.dumps(payload, indent=2)
