"""``repro.graph`` — static computation-graph IR for memory planning."""

from .backward import append_backward_graph
from .builder import GraphBuilder, build_forward_graph
from .checkpoint import append_checkpointed_backward, build_checkpointed_training_graph
from .executor import GraphExecutor
from .export import GraphStats, graph_stats, to_dot, to_networkx
from .ir import FLOAT_BYTES, Graph, OpNode, TensorValue
from .liveness import Lifetime, compute_lifetimes
from .registry import OpDef, REGISTRY, infer_op_shapes, op_def

__all__ = [
    "Graph", "OpNode", "TensorValue", "FLOAT_BYTES",
    "GraphBuilder", "build_forward_graph", "build_inference_graph",
    "append_backward_graph",
    "Lifetime", "compute_lifetimes",
    "GraphStats", "graph_stats", "to_dot", "to_networkx",
    "GraphExecutor", "append_checkpointed_backward",
    "build_checkpointed_training_graph",
    "OpDef", "REGISTRY", "op_def", "infer_op_shapes",
]


def build_training_graph(model, batch_size: int, **kwargs):
    """Forward + loss + backward graph for one training step of ``model``;
    a split layer whose weight gradient is one GEMM runs stacked in every
    direction (:func:`append_backward_graph`)."""
    graph = build_forward_graph(model, batch_size, **kwargs)
    return append_backward_graph(graph)


def build_inference_graph(model, batch_size: int, **kwargs):
    """Forward-only serving graph of ``model``: stops at the logits, marks
    nothing saved for backward, drops dropout layers, and normalizes with
    batch norm's running statistics."""
    return build_forward_graph(model, batch_size, inference=True, **kwargs)
