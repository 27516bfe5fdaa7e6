"""The compiler's entry point over serialized graphs.

:func:`compile_graph` runs chain, sibling and ReLU backward fusion, then
constant folding, over a graph in place and reports what each pass did.
The passes' output graphs are identified by :data:`FINGERPRINT`, which
every serving plan-cache key includes to keep compiled and uncompiled
plans apart.

The rewrites are written directly in :mod:`repro.compile.rewrites`: a
two-entry conv→ReLU fusion table, the builder's split-layer stacking
(:func:`repro.graph.siblings.stack_layers`), a three-entry table folding
``relu_bwd`` into the backward op producing its gradient, and the
``batchnorm_eval`` fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..graph.ir import Graph
from .rewrites import PassResult, fold_constants, fuse_ops

__all__ = ["FINGERPRINT", "CompileReport", "compile_graph"]

#: Compilation identity of :func:`compile_graph`'s output graphs (the
#: digest of ``fuse_ops@1|fold_constants@1`` it was born as).  Serving
#: plan caches key on it, and the only compiled graphs they hold are
#: inference graphs: change it whenever a compiled *inference* graph
#: changes, not for a rewrite that moves training graphs alone.
FINGERPRINT = "2e105fded4f4"


@dataclass
class CompileReport:
    """Per-pass results of one :func:`compile_graph` over one graph."""

    graph_name: str
    ops_before: int
    ops_after: int
    passes: List[PassResult]

    def render(self) -> str:
        lines = [
            f"compile report for {self.graph_name!r} "
            f"(pipeline {FINGERPRINT})",
            f"  ops: {self.ops_before} -> {self.ops_after}",
        ]
        for result in self.passes:
            lines.append(f"  pass {result.name}: {result.changed} rewrite(s)")
            for key in sorted(result.details):
                lines.append(f"    {key}: {result.details[key]}")
        return "\n".join(lines)


def compile_graph(graph: Graph,
                  params: Optional[Dict[str, np.ndarray]] = None
                  ) -> CompileReport:
    """Fuse, then fold (``params`` feeds folds that consume parameter
    values, the folded BN scale) ``graph`` in place; validate it and
    return the report."""
    ops_before = len(graph.ops)
    passes = [fuse_ops(graph), fold_constants(graph, params)]
    graph.validate()
    return CompileReport(
        graph_name=graph.name, ops_before=ops_before,
        ops_after=len(graph.ops), passes=passes)
