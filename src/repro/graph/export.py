"""Graph export and structural analysis utilities.

Converts the serialized IR to a ``networkx`` DiGraph for inspection,
renders Graphviz DOT for visualization, and computes the structural
statistics the paper's analysis leans on (memory-bound op mix, widest
tensors, forward/backward op counts, split-region structure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from .ir import Graph

# networkx is imported inside the two functions that use it: every
# process loads this module through ``repro.graph``, few of them export.
if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_networkx", "to_dot", "GraphStats", "graph_stats"]

MEMORY_BOUND_TYPES = frozenset({
    "relu", "relu_bwd", "batchnorm", "batchnorm_bwd", "batchnorm_eval",
    "bn_affine", "maxpool2d", "maxpool2d_bwd", "maxpool2d_bwd_relu", "add",
    "grad_acc", "dropout", "dropout_bwd", "split", "split_bwd", "concat",
    "concat_bwd", "gap", "gap_bwd",
})


def to_networkx(graph: Graph) -> nx.DiGraph:
    """Op-level dataflow DiGraph: nodes are ops, edges carry tensor ids."""
    import networkx as nx

    dag = nx.DiGraph(name=graph.name)
    for op in graph.ops:
        dag.add_node(op.id, name=op.name, op_type=op.op_type, phase=op.phase,
                     workspace=op.workspace_bytes)
    for op in graph.ops:
        for tensor_id in op.inputs:
            tensor = graph.tensor(tensor_id)
            if tensor.producer is not None:
                dag.add_edge(tensor.producer, op.id, tensor=tensor_id,
                             nbytes=tensor.nbytes)
    return dag


def to_dot(graph: Graph, max_ops: int = 200) -> str:
    """Render the (possibly truncated) graph as Graphviz DOT text."""
    lines = [f'digraph "{graph.name}" {{', "  rankdir=TB;"]
    shown = graph.ops[:max_ops]
    shown_ids = {op.id for op in shown}
    colors = {"forward": "lightblue", "backward": "lightsalmon"}
    for op in shown:
        color = colors.get(op.phase, "white")
        lines.append(
            f'  op{op.id} [label="{op.name}\\n{op.op_type}" '
            f'style=filled fillcolor={color}];'
        )
    for op in shown:
        for tensor_id in op.inputs:
            tensor = graph.tensor(tensor_id)
            if tensor.producer is not None and tensor.producer in shown_ids:
                mib = tensor.nbytes / 2**20
                lines.append(
                    f'  op{tensor.producer} -> op{op.id} '
                    f'[label="{tensor.name}\\n{mib:.1f} MiB"];'
                )
    if len(graph.ops) > max_ops:
        lines.append(f'  truncated [label="... {len(graph.ops) - max_ops} '
                     'more ops" shape=plaintext];')
    lines.append("}")
    return "\n".join(lines)


@dataclass(frozen=True)
class GraphStats:
    """Structural summary of a training graph."""

    num_ops: int
    num_forward_ops: int
    num_backward_ops: int
    num_tensors: int
    memory_bound_ops: int
    compute_bound_ops: int
    parameter_bytes: int
    saved_bytes: int
    widest_tensor_bytes: int
    widest_tensor_name: str
    critical_path_length: int
    op_type_histogram: Tuple[Tuple[str, int], ...]

    @property
    def memory_bound_fraction(self) -> float:
        total = self.memory_bound_ops + self.compute_bound_ops
        return self.memory_bound_ops / total if total else 0.0


def graph_stats(graph: Graph) -> GraphStats:
    """Compute the structural statistics of ``graph``."""
    import networkx as nx

    histogram: Dict[str, int] = {}
    memory_bound = 0
    compute_bound = 0
    for op in graph.ops:
        histogram[op.op_type] = histogram.get(op.op_type, 0) + 1
        if op.op_type in MEMORY_BOUND_TYPES:
            memory_bound += 1
        else:
            compute_bound += 1

    widest = max(graph.tensors.values(), key=lambda t: t.nbytes)
    dag = to_networkx(graph)
    critical = nx.dag_longest_path_length(dag) + 1 if dag.number_of_nodes() else 0

    return GraphStats(
        num_ops=len(graph.ops),
        num_forward_ops=len(graph.forward_ops()),
        num_backward_ops=len(graph.backward_ops()),
        num_tensors=len(graph.tensors),
        memory_bound_ops=memory_bound,
        compute_bound_ops=compute_bound,
        parameter_bytes=graph.parameter_bytes(),
        saved_bytes=sum(t.nbytes for t in graph.saved_tensors()),
        widest_tensor_bytes=widest.nbytes,
        widest_tensor_name=widest.name,
        critical_path_length=critical,
        op_type_histogram=tuple(sorted(histogram.items(),
                                       key=lambda item: -item[1])),
    )
