"""Pass-based graph compiler: fusion and constant folding over the graph
IR.

Entry points:

- :func:`compile_graph` / :func:`default_pipeline` — run the standard
  byte-identity pipeline (chain + sibling fusion, constant folding) over
  a graph in place; returns a :class:`CompileReport`.
- ``CompiledPlan`` — the old name of
  :class:`repro.graph.GraphExecutor`, which lowers every graph (compiled
  or plain) to flat tables and runs it; kept as a plain binding for
  callers that import it from here.
"""

from .pipeline import (
    CompileContext, CompileReport, Pass, PassResult, Pipeline,
    compile_graph, default_pipeline,
)
from .rewrites import FOLD_CONSTANTS, FUSE_OPS, fold_constants, fuse_ops
from ..graph.executor import GraphExecutor

CompiledPlan = GraphExecutor

__all__ = [
    "CompileContext", "CompileReport", "CompiledPlan",
    "FOLD_CONSTANTS", "FUSE_OPS", "Pass", "PassResult", "Pipeline",
    "compile_graph", "default_pipeline", "fold_constants", "fuse_ops",
]
