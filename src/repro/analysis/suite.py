"""AnalysisSuite: every pass, at scale, with suppressions and caching.

The per-pass entry points (:func:`analyze_graph`,
:func:`verify_lowering`, the config linters) return raw findings.  This
module layers the policy on top:

- **inline suppressions** — the graph-native ``# noqa``: an op whose
  ``attrs["lint_suppress"]`` contains a code silences findings of that
  code anchored at that op (exactly that (code, location) pair, nothing
  else);
- **baseline suppressions** — a committed JSON file of known findings
  matched on ``(code, graph, anchor)``; entries whose finding
  disappeared are reported as *expired* so the baseline ratchets down;
- **strict mode** — ignores both suppression channels (CI gate);
- **result cache** — raw graph-pass findings keyed by a structural
  graph fingerprint, so linting the zoo × split × compile matrix
  re-analyzes each distinct graph once.  Suppression policy is applied
  after the cache, so changing policy never invalidates it.

:class:`SuiteReport` extends :class:`AnalysisReport` with the suppression
partition and emits it in SARIF: active results carry ``baselineState:
"new"``, suppressed ones ``"unchanged"`` plus a ``suppressions`` entry
(``inSource`` for inline, ``external`` for baseline), and expired
baseline entries ride in the run properties for the diff.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from ..graph.ir import Graph
from .diagnostics import (
    PASS_LOWERING, AnalysisReport, CODES, Diagnostic, sarif_result,
)

if TYPE_CHECKING:
    from ..compile import CompiledPlan
    from ..hmms.storage import StorageAssignment

__all__ = [
    "SUPPRESS_ATTR", "Suppression", "load_baseline", "write_baseline",
    "graph_fingerprint", "SuiteReport", "AnalysisSuite",
]

#: Op attribute holding inline-suppressed codes (str or sequence of str).
SUPPRESS_ATTR = "lint_suppress"

#: Distinct (graph, passes, workers, inference) results the suite keeps.
_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class Suppression:
    """One baseline entry: silence ``code`` at ``anchor`` in ``graph``.

    ``graph`` may be ``"*"`` to match any graph (wildcard entries never
    expire — there is no single finding whose disappearance retires
    them)."""

    code: str
    graph: str = "*"
    anchor: str = ""
    reason: str = ""

    def matches(self, graph_name: str, finding: Diagnostic) -> bool:
        return (self.code == finding.code
                and self.graph in ("*", graph_name)
                and self.anchor == finding.anchor())

    def to_json(self) -> Dict[str, str]:
        return {"code": self.code, "graph": self.graph,
                "anchor": self.anchor, "reason": self.reason}


def load_baseline(path: str) -> List[Suppression]:
    """Parse a baseline JSON file (``{"suppressions": [...]}``)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = payload.get("suppressions", []) \
        if isinstance(payload, dict) else payload
    baseline: List[Suppression] = []
    for entry in entries:
        if "code" not in entry:
            raise ValueError(f"baseline entry without a code: {entry!r}")
        if entry["code"] not in CODES:
            raise ValueError(
                f"baseline suppresses unknown code {entry['code']!r}")
        baseline.append(Suppression(
            code=entry["code"], graph=entry.get("graph", "*"),
            anchor=entry.get("anchor", ""),
            reason=entry.get("reason", "")))
    return baseline


def write_baseline(path: str,
                   suppressions: Sequence[Suppression]) -> None:
    """Write a baseline file accepting exactly ``suppressions``."""
    payload = {"suppressions": [s.to_json() for s in suppressions]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def graph_fingerprint(graph: Graph) -> str:
    """Structural digest of everything the graph passes read: ops with
    attrs and links, tensor records, and constant bytes."""
    digest = hashlib.sha256()
    digest.update(graph.name.encode())
    for op in graph.ops:
        record = (op.id, op.name, op.op_type, tuple(op.inputs),
                  tuple(op.outputs),
                  repr(sorted(op.attrs.items(), key=lambda kv: kv[0])),
                  op.phase, tuple(op.saved), op.workspace_bytes,
                  op.forward_of, op.inplace_of)
        digest.update(repr(record).encode())
    for tensor_id in sorted(graph.tensors):
        tensor = graph.tensors[tensor_id]
        record = (tensor.id, tensor.name, tensor.shape, tensor.kind,
                  tensor.dtype_bytes, tensor.producer,
                  tuple(tensor.consumers))
        digest.update(repr(record).encode())
    for tensor_id in sorted(graph.constants):
        value = np.ascontiguousarray(graph.constants[tensor_id])
        digest.update(repr((tensor_id, value.shape,
                            value.dtype.str)).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()[:16]


@dataclass
class SuiteReport(AnalysisReport):
    """An :class:`AnalysisReport` plus the suite's suppression partition.

    ``findings`` holds only *active* findings — ``ok``/``errors``/
    ``render`` keep their semantics ("does this graph gate CI").
    """

    fingerprint: str = ""
    cache_hit: bool = False
    strict: bool = False
    #: (finding, "inline" | "baseline") pairs silenced this run.
    suppressed: List[Tuple[Diagnostic, str]] = field(default_factory=list)
    #: Baseline entries for this graph that matched nothing.
    expired_baseline: List[Suppression] = field(default_factory=list)

    def render(self) -> str:
        lines = [super().render()]
        if self.suppressed:
            lines.append(f"  {len(self.suppressed)} suppressed "
                         f"({', '.join(sorted({kind for _, kind in self.suppressed}))})")
        for entry in self.expired_baseline:
            lines.append(
                f"  expired baseline entry: {entry.code} [{entry.anchor}]"
                " — the finding is gone; remove it from the baseline")
        return "\n".join(lines)

    def to_sarif(self) -> Dict[str, Any]:
        log = super().to_sarif()
        run = log["runs"][0]
        for result in run["results"]:
            result["baselineState"] = "new"
        for finding, kind in self.suppressed:
            result = sarif_result(finding)
            result["baselineState"] = "unchanged"
            result["suppressions"] = [
                {"kind": "inSource" if kind == "inline" else "external"}
            ]
            run["results"].append(result)
        run["properties"]["strict"] = self.strict
        run["properties"]["fingerprint"] = self.fingerprint
        run["properties"]["cacheHit"] = self.cache_hit
        run["properties"]["expiredBaseline"] = [
            entry.to_json() for entry in self.expired_baseline
        ]
        return log


def _inline_suppressed(graph: Graph, finding: Diagnostic) -> bool:
    """True when an op the finding anchors to carries the code in its
    ``lint_suppress`` attribute."""
    for op_id in finding.op_ids:
        try:
            op = graph.op_by_id(op_id)
        except (IndexError, KeyError, StopIteration):
            continue                 # finding about a missing op
        codes = op.attrs.get(SUPPRESS_ATTR, ())
        if isinstance(codes, str):
            codes = (codes,)
        if finding.code in codes:
            return True
    return False


class AnalysisSuite:
    """Driver running every pass with one policy and one result cache."""

    def __init__(self, *,
                 baseline: Union[str, Sequence[Suppression], None] = None,
                 strict: bool = False) -> None:
        if isinstance(baseline, str):
            self.baseline: List[Suppression] = load_baseline(baseline)
        else:
            self.baseline = list(baseline or ())
        self.strict = strict
        self._cache: "OrderedDict[str, List[Diagnostic]]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    def analyze(self, graph: Graph, *,
                assignment: Optional["StorageAssignment"] = None,
                workers: int = 4, inference: bool = False,
                plan: Optional["CompiledPlan"] = None,
                passes: Optional[Sequence[str]] = None) -> SuiteReport:
        """Graph passes (cached by structural fingerprint) plus, when a
        lowered ``plan`` is given, the lowering verifier."""
        # Call-time import so test monkeypatching of the package-level
        # analyze_graph keeps working through the suite.
        from . import GRAPH_PASSES, analyze_graph

        graph_passes = tuple(passes) if passes is not None else GRAPH_PASSES
        fingerprint = graph_fingerprint(graph)
        key = "|".join((fingerprint, ",".join(sorted(graph_passes)),
                        str(workers), str(bool(inference))))
        cached = self._cache.get(key)
        if cached is not None and assignment is None:
            self.cache_hits += 1
            findings = list(cached)
            cache_hit = True
        else:
            self.cache_misses += 1
            report = analyze_graph(
                graph, assignment=assignment, workers=workers,
                inference=inference, passes=graph_passes)
            findings = list(report.findings)
            graph_passes = report.passes
            if assignment is None:
                if len(self._cache) >= _CACHE_CAPACITY:
                    self._cache.popitem(last=False)
                self._cache[key] = list(findings)
            cache_hit = False

        ran = tuple(graph_passes)
        if plan is not None:
            from .lowering import verify_lowering
            findings = findings + verify_lowering(plan)
            ran = ran + (PASS_LOWERING,)
        return self._assemble(
            graph.name, findings, ran, workers=workers, graph=graph,
            num_ops=len(graph.ops), num_tensors=len(graph.tensors),
            fingerprint=fingerprint, cache_hit=cache_hit)

    def report_for(self, name: str, findings: Sequence[Diagnostic],
                   passes: Sequence[str], *,
                   workers: int = 1) -> SuiteReport:
        """Apply the suite's policy to externally produced findings
        (config lint has no graph to fingerprint or cache)."""
        return self._assemble(name, list(findings), tuple(passes),
                              workers=workers, graph=None, num_ops=0,
                              num_tensors=0, fingerprint="", cache_hit=False)

    # ------------------------------------------------------------------
    def _assemble(self, name: str, findings: List[Diagnostic],
                  passes: Tuple[str, ...], *, workers: int,
                  graph: Optional[Graph], num_ops: int, num_tensors: int,
                  fingerprint: str, cache_hit: bool) -> SuiteReport:
        active: List[Diagnostic] = []
        suppressed: List[Tuple[Diagnostic, str]] = []
        matched: Set[int] = set()
        if self.strict:
            active = findings
        else:
            for finding in findings:
                if graph is not None and _inline_suppressed(graph,
                                                            finding):
                    suppressed.append((finding, "inline"))
                    continue
                hit = None
                for index, entry in enumerate(self.baseline):
                    if entry.matches(name, finding):
                        hit = index
                        break
                if hit is not None:
                    matched.add(hit)
                    suppressed.append((finding, "baseline"))
                else:
                    active.append(finding)
        expired = [entry for index, entry in enumerate(self.baseline)
                   if entry.graph == name and index not in matched]
        return SuiteReport(
            graph_name=name, num_ops=num_ops, num_tensors=num_tensors,
            workers=workers, passes=passes, findings=active,
            fingerprint=fingerprint, cache_hit=cache_hit,
            strict=self.strict, suppressed=suppressed,
            expired_baseline=expired)
