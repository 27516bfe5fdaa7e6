"""Diagnostics framework for the whole-graph static analyzer.

Every finding carries a stable ``SCAxxx`` code (Split-CNN Analyzer) so
tests, CI greps, and suppression lists can pin behavior to a code rather
than to message text.  Codes are grouped by pass:

- ``SCA0xx`` — graph lint (structure, shapes, reachability);
- ``SCA1xx`` — concurrency hazards under the wavefront executor;
- ``SCA2xx`` — determinism audit;
- ``SCA3xx`` — abstract interpretation (interval/dtype dataflow);
- ``SCA4xx`` — lowering verification of the executor's build-time tables;
- ``SCA5xx`` — serving/fleet/infer configuration lint.

Findings anchor to graph objects (op ids, tensor ids, TSO ids), not to
source files; the SARIF emitter maps them onto logical locations so
standard SARIF viewers can still group and filter them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SEV_ERROR", "SEV_WARNING",
    "PASS_LINT", "PASS_RACES", "PASS_DETERMINISM",
    "PASS_ABSINT", "PASS_LOWERING", "PASS_CONFIG",
    "HELP_URI", "DiagnosticSpec", "CODES", "Diagnostic", "AnalysisReport",
    "GraphAnalysisError", "sarif_rules", "sarif_result",
]

SEV_ERROR = "error"
SEV_WARNING = "warning"

PASS_LINT = "graph-lint"
PASS_RACES = "concurrency"
PASS_DETERMINISM = "determinism"
PASS_ABSINT = "absint"
PASS_LOWERING = "lowering"
PASS_CONFIG = "config-lint"

# Every rule's helpUri points at its family section in the analyzer doc.
HELP_URI = ("https://github.com/split-cnn-repro/blob/main/docs/"
            "static_analysis.md")


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
        "SCA001", "shape-mismatch", SEV_ERROR, PASS_LINT,
        "Recorded output shapes disagree with the registry's symbolic "
        "shape re-inference for the op's inputs and attributes."),
    DiagnosticSpec(
        "SCA002", "dead-op", SEV_WARNING, PASS_LINT,
        "No output of the op is ever consumed and none is a run output — "
        "the op burns time and memory for nothing."),
    DiagnosticSpec(
        "SCA003", "orphan-tensor", SEV_WARNING, PASS_LINT,
        "The tensor has no producer and no consumer: it is unreachable "
        "from any execution of the graph."),
    DiagnosticSpec(
        "SCA004", "saved-without-backward", SEV_WARNING, PASS_LINT,
        "A forward op marks tensors saved-for-backward but no backward op "
        "references it via forward_of — the save keeps memory alive that "
        "nothing will read."),
    DiagnosticSpec(
        "SCA005", "dangling-reference", SEV_ERROR, PASS_LINT,
        "forward_of or inplace_of points at an op/tensor that does not "
        "exist, is not a forward op, or is serialized after the referrer."),
    DiagnosticSpec(
        "SCA006", "inference-impurity", SEV_ERROR, PASS_LINT,
        "An inference graph carries training-only structure: stochastic "
        "ops, backward ops, gradient/error tensors, saved-for-backward "
        "marks, or a loss head."),
    DiagnosticSpec(
        "SCA007", "use-before-def", SEV_ERROR, PASS_LINT,
        "An op consumes a tensor before its producer in the serialized "
        "order, or references a tensor the graph does not contain."),
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
    DiagnosticSpec(
        "SCA105", "halo-read-before-arrival", SEV_ERROR, PASS_RACES,
        "A patch kernel may read its input before the halo exchange that "
        "contributes boundary bytes has arrived: the halo transfer is "
        "anchored after the destination tensor's first consumer, or not "
        "anchored at all."),
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
    # --- abstract interpretation ----------------------------------------
    DiagnosticSpec(
        "SCA301", "possible-division-by-zero", SEV_ERROR, PASS_ABSINT,
        "Interval analysis proves a divisor or inverse-sqrt argument can "
        "reach zero or below — e.g. a batchnorm running-var constant with "
        "var + eps <= 0, or a dropout rate that zeroes the inverted-"
        "dropout scale — so the op emits Inf/NaN (or silently zeroes its "
        "output) at run time."),
    DiagnosticSpec(
        "SCA302", "non-finite-constant", SEV_ERROR, PASS_ABSINT,
        "A compile-time constant contains NaN or Inf, has no stored "
        "value, or its array shape disagrees with the tensor's recorded "
        "shape — e.g. a folded bn_affine scale computed from corrupt "
        "running statistics."),
    DiagnosticSpec(
        "SCA303", "interval-overflow", SEV_ERROR, PASS_ABSINT,
        "The interval lattice proves a tensor's values exceed the finite "
        "range of its declared dtype width, so the value overflows to "
        "Inf when materialized at that width."),
    DiagnosticSpec(
        "SCA304", "dtype-mismatch", SEV_ERROR, PASS_ABSINT,
        "An op mixes tensors of different declared dtype widths, or a "
        "compile-time constant's array dtype differs from the executors' "
        "float64 contract — today this only surfaces as a runtime "
        "TypeError (or a silent precision loss)."),
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
        "A backward op's precomputed forward reference, saved-context "
        "refcount, or per-op seed pair disagrees with the source graph — "
        "e.g. a fused op whose backward twins were not retargeted."),
    DiagnosticSpec(
        "SCA405", "constant-table-mismatch", SEV_ERROR, PASS_LOWERING,
        "A persistent value the plan seeds at build time (parameter or "
        "constant) is missing, shape-inconsistent, or non-finite — or a "
        "non-persistent tensor is seeded as if it were."),
    DiagnosticSpec(
        "SCA406", "unsafe-overwrite", SEV_ERROR, PASS_LOWERING,
        "The plan lets an op overwrite an input that is not provably dead: "
        "the tensor has another consumer, is pinned or a graph input, or "
        "is produced by a forward or aliasing op whose array something "
        "else still references."),
    # --- configuration lint ---------------------------------------------
    DiagnosticSpec(
        "SCA501", "ledger-overcommit", SEV_ERROR, PASS_CONFIG,
        "Tenant reservations cannot co-fit the DeviceLedger capacity, or "
        "a reservation is smaller than the HMMS plan peak of the "
        "tenant's capped bucket — a served batch would exceed device "
        "memory."),
    DiagnosticSpec(
        "SCA502", "infeasible-slo", SEV_ERROR, PASS_CONFIG,
        "A tenant's SLO deadline does not exceed the modelled inference "
        "latency of its bucket: requests expire before any batch can "
        "complete (error at batch 1; warning when only the capped "
        "bucket overruns)."),
    DiagnosticSpec(
        "SCA503", "memory-budget-overflow", SEV_ERROR, PASS_CONFIG,
        "A planned graph's device peak exceeds the memory budget its "
        "owner is configured with — a serving bucket or patch-variant "
        "plan that cannot execute without breaking the budget."),
    DiagnosticSpec(
        "SCA504", "unfingerprinted-cache-key", SEV_ERROR, PASS_CONFIG,
        "A plan-cache key does not end with a pipeline fingerprint, so "
        "compiled and interpreted plans for the same model and bucket "
        "can collide in a shared cache."),
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

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.findings if d.code == code]

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

    def to_sarif(self) -> Dict[str, Any]:
        """SARIF 2.1.0 log (one run).  Anchors become logical locations —
        the graph has no physical source files."""
        results = [sarif_result(d) for d in self.findings]
        return {
            "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                        "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
            "version": "2.1.0",
            "runs": [{
                "tool": {
                    "driver": {
                        "name": "repro-sca",
                        "informationUri":
                            "https://github.com/split-cnn-repro",
                        "rules": sarif_rules(),
                    },
                },
                "properties": {
                    "graph": self.graph_name,
                    "workers": self.workers,
                    "passes": list(self.passes),
                },
                "results": results,
            }],
        }


def sarif_rules() -> List[Dict[str, Any]]:
    """The complete ``driver.rules`` table: every registered SCA code
    with id, name, descriptions, default level, and helpUri — emitted in
    full regardless of which codes the run tripped, so SARIF consumers
    can baseline-diff against a stable rule set."""
    return [
        {
            "id": spec.code,
            "name": spec.title,
            "shortDescription": {"text": spec.title},
            "fullDescription": {"text": spec.description},
            "helpUri": f"{HELP_URI}#{spec.code.lower()}",
            "defaultConfiguration": {
                "level": "error" if spec.severity == SEV_ERROR
                else "warning",
            },
        }
        for spec in _SPECS
    ]


def sarif_result(d: Diagnostic) -> Dict[str, Any]:
    """One SARIF result object for ``d`` (no suppression metadata —
    :class:`~repro.analysis.suite.SuiteReport` layers that on top)."""
    logical: List[Dict[str, Any]] = [
        {"name": f"op:{op_id}", "kind": "function"} for op_id in d.op_ids
    ]
    if d.tensor_id is not None:
        logical.append({"name": f"tensor:{d.tensor_id}", "kind": "variable"})
    if d.tso_id is not None:
        logical.append({"name": f"tso:{d.tso_id}", "kind": "object"})
    result: Dict[str, Any] = {
        "ruleId": d.code,
        "level": "error" if d.severity == SEV_ERROR else "warning",
        "message": {"text": d.message},
    }
    if logical:
        result["locations"] = [{"logicalLocations": logical}]
    return result
