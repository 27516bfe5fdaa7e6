"""Graph compiler: fusion and constant folding over the graph IR.

Entry points:

- :func:`compile_graph` — fuse (chain, sibling, ReLU backward), then fold
  constants, over a graph in place; returns a :class:`CompileReport`
  whose fingerprint is :data:`FINGERPRINT`.
- ``CompiledPlan`` — the old name of
  :class:`repro.graph.GraphExecutor`, which lowers every graph (compiled
  or plain) to flat tables and runs it; kept as a plain binding for
  callers that import it from here.
"""

from .pipeline import FINGERPRINT, CompileReport, compile_graph
from .rewrites import PassResult, fold_constants, fuse_ops
from ..graph.executor import GraphExecutor

CompiledPlan = GraphExecutor

__all__ = [
    "FINGERPRINT", "CompileReport", "CompiledPlan", "PassResult",
    "compile_graph", "fold_constants", "fuse_ops",
]
