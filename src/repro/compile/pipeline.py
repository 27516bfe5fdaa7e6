"""Pass/Pipeline framework over serialized graphs.

A :class:`Pass` is a named, versioned graph rewrite; a :class:`Pipeline`
runs a sequence of them in place and reports what each one did.  The
pipeline's :attr:`~Pipeline.fingerprint` digests every (name, version)
pair, so any change to the pass list or to a pass's semantics (bump its
version) yields a new fingerprint — serving plan caches key on it to
keep compiled and uncompiled plans apart.

Rewrite *rules* are declared on the central registry's ``OpDef`` records
(``fusions`` / ``sibling_fused`` / ``fold``, see
:mod:`repro.graph.registry`); the passes in :mod:`repro.compile.rewrites`
only walk the graph and apply them — the same split between mechanism
and per-op knowledge the analysis framework uses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..graph.ir import Graph

__all__ = [
    "CompileContext", "Pass", "PassResult", "Pipeline",
    "CompileReport", "default_pipeline", "compile_graph",
]


@dataclass
class CompileContext:
    """Shared state the pipeline hands to every pass.

    ``params`` (parameter name -> array) enables folds that consume
    parameter values (the folded BN scale); passes must treat it as
    read-only and optional.
    """

    params: Optional[Dict[str, np.ndarray]] = None


@dataclass
class PassResult:
    """What one pass did: a change count plus per-rewrite detail counters
    (e.g. ``{"conv2d_relu": 8, "conv2d_siblings": 4}``)."""

    name: str
    changed: int
    details: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Pass:
    """A named, versioned rewrite: ``fn(graph, ctx) -> PassResult``.

    Bump ``version`` whenever the pass's output graphs change — the
    pipeline fingerprint (and with it every serving cache key) derives
    from it.
    """

    name: str
    version: int
    fn: Callable[[Graph, CompileContext], PassResult]


@dataclass
class CompileReport:
    """Per-pass results of one pipeline run over one graph."""

    graph_name: str
    fingerprint: str
    ops_before: int
    ops_after: int
    passes: List[PassResult]

    def render(self) -> str:
        lines = [
            f"compile report for {self.graph_name!r} "
            f"(pipeline {self.fingerprint})",
            f"  ops: {self.ops_before} -> {self.ops_after}",
        ]
        for result in self.passes:
            lines.append(f"  pass {result.name}: {result.changed} rewrite(s)")
            for key in sorted(result.details):
                lines.append(f"    {key}: {result.details[key]}")
        return "\n".join(lines)


class Pipeline:
    """An ordered sequence of passes applied in place."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes = tuple(passes)

    @property
    def fingerprint(self) -> str:
        """Digest of every pass's (name, version) — the compilation
        identity that serving plan-cache keys include."""
        digest = hashlib.sha256(
            "|".join(f"{p.name}@{p.version}" for p in self.passes).encode()
        )
        return digest.hexdigest()[:12]

    def run(self, graph: Graph,
            params: Optional[Dict[str, np.ndarray]] = None) -> CompileReport:
        ctx = CompileContext(params=params)
        ops_before = len(graph.ops)
        results = [p.fn(graph, ctx) for p in self.passes]
        graph.validate()
        return CompileReport(
            graph_name=graph.name, fingerprint=self.fingerprint,
            ops_before=ops_before, ops_after=len(graph.ops),
            passes=results,
        )


def default_pipeline() -> Pipeline:
    """The standard byte-identical pipeline: chain + sibling fusion, then
    constant folding."""
    from . import rewrites

    return Pipeline([rewrites.FUSE_OPS, rewrites.FOLD_CONSTANTS])


def compile_graph(graph: Graph,
                  params: Optional[Dict[str, np.ndarray]] = None
                  ) -> CompileReport:
    """Run :func:`default_pipeline` over ``graph`` in place and return the
    report."""
    return default_pipeline().run(graph, params=params)
