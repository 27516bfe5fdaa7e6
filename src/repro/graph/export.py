"""Graph export and structural analysis utilities.

Converts the serialized IR to a ``networkx`` DiGraph for inspection,
renders Graphviz DOT for visualization, computes the structural
statistics the paper's analysis leans on (memory-bound op mix, widest
tensors, forward/backward op counts, split-region structure), and
serializes graphs to/from a JSON document (:func:`graph_to_dict` /
:func:`graph_from_dict`) that survives every IR feature — fused-op
attrs, ``forward_of``/``inplace_of`` links, saved lists, and the values
of kind-``"constant"`` tensors (base64-encoded raw bytes).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Tuple, Union

import numpy as np

from .ir import Graph, OpNode, TensorValue

# networkx is imported inside the two functions that use it: every
# process loads this module through ``repro.graph``, few of them export.
if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "to_networkx", "to_dot", "GraphStats", "graph_stats",
    "graph_to_dict", "graph_from_dict", "save_graph", "load_graph",
]

MEMORY_BOUND_TYPES = frozenset({
    "relu", "relu_bwd", "batchnorm", "batchnorm_bwd", "batchnorm_eval",
    "bn_affine", "maxpool2d",
    "maxpool2d_bwd", "avgpool2d", "avgpool2d_bwd", "add", "grad_acc",
    "dropout", "dropout_bwd", "sigmoid", "tanh", "split", "split_bwd",
    "concat", "concat_bwd", "gap", "gap_bwd",
})

GRAPH_FORMAT = "repro-graph"
GRAPH_FORMAT_VERSION = 1


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


def _tuplify(value: Any) -> Any:
    """Recursively turn lists back into tuples (JSON has no tuples, but
    attrs like ``kernel``/``stride``/``padding`` must stay hashable and
    compare equal to builder-produced ones)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(item) for item in value)
    return value


def graph_to_dict(graph: Graph) -> Dict[str, Any]:
    """JSON-serializable document capturing the complete graph: tensors,
    ops (attrs, saved, ``forward_of``/``inplace_of``), and constant
    values."""
    return {
        "format": GRAPH_FORMAT,
        "version": GRAPH_FORMAT_VERSION,
        "name": graph.name,
        "tensors": [
            {
                "id": t.id, "name": t.name, "shape": list(t.shape),
                "kind": t.kind, "dtype_bytes": t.dtype_bytes,
                "producer": t.producer, "consumers": list(t.consumers),
            }
            for t in sorted(graph.tensors.values(), key=lambda t: t.id)
        ],
        "ops": [
            {
                "id": op.id, "name": op.name, "op_type": op.op_type,
                "inputs": list(op.inputs), "outputs": list(op.outputs),
                "attrs": op.attrs, "phase": op.phase,
                "saved": list(op.saved),
                "workspace_bytes": op.workspace_bytes,
                "forward_of": op.forward_of, "inplace_of": op.inplace_of,
            }
            for op in graph.ops
        ],
        "constants": {
            str(tensor_id): {
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "data": base64.b64encode(
                    np.ascontiguousarray(array).tobytes()).decode("ascii"),
            }
            for tensor_id, array in sorted(graph.constants.items())
        },
    }


def graph_from_dict(payload: Dict[str, Any]) -> Graph:
    """Rebuild a :class:`Graph` from :func:`graph_to_dict` output and
    validate it."""
    if payload.get("format") != GRAPH_FORMAT:
        raise ValueError(
            f"not a {GRAPH_FORMAT} document: format={payload.get('format')!r}"
        )
    if payload.get("version") != GRAPH_FORMAT_VERSION:
        raise ValueError(
            f"unsupported {GRAPH_FORMAT} version {payload.get('version')!r}"
        )
    graph = Graph(payload["name"])
    for spec in payload["tensors"]:
        tensor = TensorValue(
            id=int(spec["id"]), name=spec["name"],
            shape=tuple(int(s) for s in spec["shape"]), kind=spec["kind"],
            dtype_bytes=int(spec["dtype_bytes"]),
            producer=spec["producer"],
            consumers=[int(c) for c in spec["consumers"]],
        )
        graph.tensors[tensor.id] = tensor
    for spec in payload["ops"]:
        graph.ops.append(OpNode(
            id=int(spec["id"]), name=spec["name"], op_type=spec["op_type"],
            inputs=[int(i) for i in spec["inputs"]],
            outputs=[int(o) for o in spec["outputs"]],
            attrs={key: _tuplify(value)
                   for key, value in spec["attrs"].items()},
            phase=spec["phase"],
            saved=[int(s) for s in spec["saved"]],
            workspace_bytes=int(spec["workspace_bytes"]),
            forward_of=spec["forward_of"], inplace_of=spec["inplace_of"],
        ))
    for tensor_id, spec in payload.get("constants", {}).items():
        array = np.frombuffer(
            base64.b64decode(spec["data"]), dtype=np.dtype(spec["dtype"]),
        ).reshape([int(s) for s in spec["shape"]]).copy()
        graph.constants[int(tensor_id)] = array
    graph._next_tensor_id = 1 + max(graph.tensors, default=-1)
    graph._next_op_id = 1 + max((op.id for op in graph.ops), default=-1)
    graph.validate()
    return graph


def save_graph(graph: Graph, path: Union[str, Path]) -> None:
    """Write ``graph`` to ``path`` as a JSON document."""
    Path(path).write_text(json.dumps(graph_to_dict(graph)))


def load_graph(path: Union[str, Path]) -> Graph:
    """Load a graph written by :func:`save_graph`."""
    return graph_from_dict(json.loads(Path(path).read_text()))


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
