"""Stacking a split layer's patch convs into one batched op.

The Split-CNN transform creates S weight-sharing convolutions per layer,
one per patch, with identical weights, strides, paddings, and (in an even
grid) input shapes.  Stacking their inputs along the batch axis and
running *one* conv kernel computes the same bytes row for row (every conv
stage — im2col, tensordot, bias broadcast, and both backward contractions
— is row-independent), reads the weight once instead of S times, and
amortizes the im2col/GEMM overhead S ways.  Backward ``conv2d_bwd_data``
twins are merged the same way.  A layer the backward expansion gave one
weight-gradient GEMM (``attrs["paddings"]``, no ``forward_of``) is not a
twin and is left alone; any other twin stays per-sibling and reads its
patch's own tensors, as before stacking.

Two callers share :func:`stack_layers`:

- :func:`~repro.graph.backward.append_backward_graph` stacks every layer
  whose weight gradient is already one GEMM
  (:func:`~repro.graph.registry._one_gemm_patches`): there the patches hold
  no more elements than the weight, so batching them costs no memory in
  any direction, and the interpreter runs one GEMM per direction;
- the compiler's sibling fusion (:mod:`repro.compile.rewrites`) groups
  the per-patch convs the builder left alone by shared weight and hands
  every group to it.

Both rest on one rule: forward convs sharing a weight are one split
layer, whose patches never communicate.  Stacking moves work across
branches, so :func:`stack_layers` ends with :func:`reserialize`.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Any, Dict, Iterable, List, Set, Tuple

from .ir import Graph, OpNode
from .registry import op_def

__all__ = ["attr_key", "new_op_id", "take_inputs", "reserialize",
           "stack_siblings", "stack_layers"]


def attr_key(attrs: Dict[str, Any]) -> Tuple:
    """A hashable form of an op's attrs (siblings must agree on all)."""
    return tuple(sorted(
        (key, tuple(v) if isinstance(v, (list, tuple)) else v)
        for key, v in attrs.items()
    ))


def new_op_id(graph: Graph) -> int:
    op_id = graph._next_op_id
    graph._next_op_id += 1
    return op_id


def take_inputs(graph: Graph, op: OpNode, replaced: Set[int]) -> None:
    """Record ``op`` as the consumer of each of its inputs, once per read,
    in place of the ops in ``replaced``."""
    need = Counter(op.inputs)
    for tensor_id in need:
        tensor = graph.tensors[tensor_id]
        tensor.consumers = [c for c in tensor.consumers
                            if c not in replaced]
        tensor.consumers.extend([op.id] * need[tensor_id])


def reserialize(graph: Graph) -> None:
    """Stable Kahn toposort of ``graph.ops`` (ready ops in original-
    position order), raising :class:`ValueError` on a cycle."""
    position = {op.id: index for index, op in enumerate(graph.ops)}
    by_position = {position[op.id]: op for op in graph.ops}
    deps = graph.op_dependencies()
    remaining = {op_id: len(op_deps) for op_id, op_deps in deps.items()}
    dependents: Dict[int, List[int]] = {}
    for op_id, op_deps in deps.items():
        for dep in op_deps:
            dependents.setdefault(dep, []).append(op_id)
    ready = [position[op_id] for op_id, count in remaining.items()
             if count == 0]
    heapify(ready)
    order: List[OpNode] = []
    while ready:
        op = by_position[heappop(ready)]
        order.append(op)
        for dep_id in dependents.get(op.id, ()):
            remaining[dep_id] -= 1
            if remaining[dep_id] == 0:
                heappush(ready, position[dep_id])
    if len(order) != len(graph.ops):
        raise ValueError(
            f"re-serialization of {graph.name!r} left "
            f"{len(graph.ops) - len(order)} op(s) in a dependency cycle"
        )
    graph.ops = order


def _merge_bwd_data(graph: Graph, data_ops: List[OpNode],
                    fused: OpNode) -> None:
    """Replace the siblings' per-patch ``conv2d_bwd_data`` twins with one
    stacked op: the input-gradient scatter is row-independent, so one
    kernel over the stacked grads equals the per-patch results bitwise."""
    count = len(data_ops)
    weight_id = data_ops[0].inputs[1]
    attrs = dict(data_ops[0].attrs)
    attrs["siblings"] = count
    merged = OpNode(
        id=new_op_id(graph), name=f"{fused.name}.bwd_data",
        op_type="conv2d_bwd_data_siblings",
        inputs=[op.inputs[0] for op in data_ops] + [weight_id],
        outputs=[op.outputs[0] for op in data_ops],
        attrs=attrs, phase="backward", forward_of=fused.id,
        workspace_bytes=sum(op.workspace_bytes for op in data_ops),
    )
    old_ids = {op.id for op in data_ops}
    take_inputs(graph, merged, old_ids)
    for tensor_id in merged.outputs:
        graph.tensors[tensor_id].producer = merged.id
    first_position = graph.ops.index(data_ops[0])
    graph.ops[first_position] = merged
    trailing = old_ids - {data_ops[0].id}
    graph.ops = [op for op in graph.ops if op.id not in trailing]


def stack_siblings(graph: Graph, group: List[OpNode],
                   fused_type: str) -> None:
    """Replace ``group`` (mutually independent siblings in serialized
    order) by one ``fused_type`` op at the first member's position and
    retarget their backward twins.  The caller re-serializes."""
    count = len(group)
    first = group[0]
    shared = list(first.inputs[1:])          # weight (+ bias) tensor ids
    input_ids = [member.inputs[0] for member in group] + shared
    output_ids = [member.outputs[0] for member in group]
    attrs = dict(first.attrs)
    attrs["siblings"] = count
    saved: List[int] = []
    for member in group:
        for tensor_id in member.saved:
            if tensor_id not in saved:
                saved.append(tensor_id)
    fused = OpNode(
        id=new_op_id(graph),
        name=f"{first.name}(x{count})",
        op_type=fused_type, inputs=input_ids, outputs=output_ids,
        attrs=attrs, phase="forward", saved=saved,
        workspace_bytes=sum(member.workspace_bytes for member in group),
    )

    # A conv saves only its input, so take_inputs records the fused op as
    # the reader of every saved tensor.
    group_ids = {member.id for member in group}
    take_inputs(graph, fused, group_ids)
    for tensor_id in output_ids:
        tensor = graph.tensors[tensor_id]
        tensor.producer = fused.id
        tensor.consumers = [c for c in tensor.consumers
                            if c not in group_ids]

    first_position = graph.ops.index(first)
    graph.ops[first_position] = fused
    trailing = group_ids - {first.id}
    graph.ops = [op for op in graph.ops if op.id not in trailing]

    # Backward twins: retarget to the fused op (their kernels read graph
    # tensors, so nothing else changes) and merge a complete set of
    # bwd_data twins.
    member_index = {member.id: i for i, member in enumerate(group)}
    data_twins: Dict[int, List[OpNode]] = {}
    for op in graph.ops:
        sibling = member_index.get(op.forward_of)
        if sibling is None:
            continue
        op.forward_of = fused.id
        if op.op_type == "conv2d_bwd_data":
            data_twins.setdefault(sibling, []).append(op)
    if len(data_twins) == count \
            and all(len(ops) == 1 for ops in data_twins.values()):
        _merge_bwd_data(
            graph, [data_twins[i][0] for i in range(count)], fused)


def stack_layers(graph: Graph, layers: Iterable[List[OpNode]]) -> int:
    """Stack each split layer in ``layers`` (its patch convs in forward
    order; ``[]`` for a layer left per patch), one op per group of patches
    with equal input shape and attrs, re-serialize, and return the number
    of stacked ops.  A split layer's patches are independent by
    construction, so no reachability check is needed: a violation
    surfaces as :func:`reserialize`'s cycle error or as
    :meth:`Graph.validate`'s read-before-write error."""
    stacked = 0
    for patches in layers:
        groups: Dict[Tuple, List[OpNode]] = {}
        for patch in patches:
            key = (graph.tensors[patch.inputs[0]].shape,
                   attr_key(patch.attrs))
            groups.setdefault(key, []).append(patch)
        for group in groups.values():
            if len(group) >= 2:
                stack_siblings(graph, group,
                               op_def(group[0].op_type).sibling_fused)
                stacked += 1
    if stacked:
        reserialize(graph)
    return stacked
