"""Byte-identity-preserving graph rewrites: fusion and constant folding.

Four rewrites, each a direct walk over the graph:

- **Chain fusion** — a forward ``conv2d`` (or a stacked
  ``conv2d_siblings``) whose every output feeds one ReLU becomes one
  ``conv2d_relu`` (``conv2d_relu_siblings``), per :data:`_RELU_FUSED`.
  The fused kernels run the exact member kernels back to back on the
  same arrays, so values are bit-identical; what is saved is the per-op
  dispatch, bookkeeping, and the intermediate tensor's graph traffic.
- **Sibling fusion** — stack the S per-patch convs of each split layer
  the builder left per patch into one batched op (the ``OpDef``'s
  ``sibling_fused`` type), through the builder's own
  :func:`~repro.graph.siblings.stack_layers`.  Chains go first, so
  per-patch conv+ReLU pairs become ``conv2d_relu`` siblings before
  stacking.  A chain layer's ``bwd_weight`` twins stay per-sibling
  (merging them here would reorder its ``grad_acc`` sum against the
  interpreted graph), each reading its own patch's tensors.
- **ReLU backward fusion** — a ``maxpool2d_bwd``, ``conv2d_bwd_data`` or
  stacked ``conv2d_bwd_data_siblings`` whose every output is a gradient
  read only by one ``relu_bwd`` takes those masks in, per
  :data:`_RELU_BWD_FUSED`.  The fused kernel runs the producer's kernel
  and then ``relu_bwd``'s exact expression, so values are bit-identical.
  Stacking goes first, so a stacked ``bwd_data`` takes all S masks.
- **Constant folding** — a ``batchnorm_eval`` whose γ and σ² are known
  becomes a ``bn_affine`` whose scale ``γ/√(σ²+ε)`` is precomputed into
  a constant tensor, eliding the per-step rsqrt.

Chain and ReLU backward fusion place the fused op at the head's (the
producer's) position, which keeps the serialization valid.  Sibling
fusion moves work across branches, so it ends with a stable Kahn
re-serialization (ready ops picked in original-position order) and
fails loudly on cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph.executor import OUTPUT_NAMES
from ..graph.ir import Graph, OpNode
from ..graph.registry import op_def
from ..graph.siblings import attr_key, new_op_id, stack_layers, take_inputs
from ..nn.norm import BN_EPS

__all__ = ["PassResult", "fuse_ops", "fold_constants"]

#: Chain fusion: the fused type of a forward conv whose every output
#: feeds one ReLU (a stacked head fuses one ReLU per output).
_RELU_FUSED = {"conv2d": "conv2d_relu",
               "conv2d_siblings": "conv2d_relu_siblings"}

#: ReLU backward fusion: the fused type of a backward op whose every
#: output is a gradient that only one ``relu_bwd`` reads.
_RELU_BWD_FUSED = {"maxpool2d_bwd": "maxpool2d_bwd_relu",
                   "conv2d_bwd_data": "conv2d_bwd_data_relu",
                   "conv2d_bwd_data_siblings": "conv2d_bwd_data_relu_siblings"}


@dataclass
class PassResult:
    """What one pass did: a change count plus per-rewrite detail counters
    (e.g. ``{"conv2d_relu": 8, "conv2d_siblings": 4}``)."""

    name: str
    changed: int
    details: Dict[str, int] = field(default_factory=dict)


def _twin_map(graph: Graph) -> Dict[int, List[OpNode]]:
    """Forward op id -> the backward ops whose ``forward_of`` names it."""
    twins: Dict[int, List[OpNode]] = {}
    for op in graph.ops:
        if op.forward_of is not None:
            twins.setdefault(op.forward_of, []).append(op)
    return twins


# ----------------------------------------------------------------------
# Chain fusion
# ----------------------------------------------------------------------

def _follower(graph: Graph, head: OpNode, tensor_id: int) -> Optional[OpNode]:
    """The ReLU that alone consumes head output ``tensor_id``, as its
    data input, or ``None``."""
    out = graph.tensors[tensor_id]
    if out.kind != "activation" or out.name in OUTPUT_NAMES:
        return None
    consumer_ids = set(out.consumers) - {head.id}
    if len(consumer_ids) != 1:
        return None
    candidate = graph.op_by_id(consumer_ids.pop())
    if (candidate.op_type != "relu"
            or candidate.phase != "forward"
            or candidate.inputs.count(out.id) != 1
            or candidate.inputs[0] != out.id):
        return None
    return candidate


def _match_chain(graph: Graph, head: OpNode) -> Optional[List[OpNode]]:
    """The ReLU follower of each output of a fusable ``head``, or ``None``.

    A head output is fusable when it is a plain activation with *exactly
    one* consumer — the follower, reading it as its data input.
    Saved-for-backward reads and backward-op inputs appear in
    ``consumers`` too, so an output someone else still needs
    automatically fails the single-consumer test.  A stacked head
    (``conv2d_siblings``) matches when each of its S outputs has a
    follower.
    """
    if head.op_type not in _RELU_FUSED or head.phase != "forward":
        return None
    followers = [_follower(graph, head, tensor_id)
                 for tensor_id in head.outputs]
    if any(follower is None for follower in followers):
        return None
    chain_ids = {head.id} | {follower.id for follower in followers}
    if any(tensor_id in op.saved
           for op in graph.ops if op.id not in chain_ids
           for tensor_id in head.outputs):
        return None
    return followers


def _apply_chain_fusion(graph: Graph, head: OpNode,
                        followers: List[OpNode], fused_type: str,
                        twins: Dict[int, List[OpNode]]) -> None:
    chain = [head] + followers
    chain_ids = {member.id for member in chain}
    final_outs = [graph.tensors[follower.outputs[0]]
                  for follower in followers]
    deleted = set(head.outputs)

    input_ids = list(head.inputs)
    attrs = dict(head.attrs)
    for member in followers:
        input_ids.extend(member.inputs[1:])
        for key, value in member.attrs.items():
            attrs.setdefault(key, value)
    saved: List[int] = []
    for member in chain:
        for tensor_id in member.saved:
            if tensor_id not in deleted and tensor_id not in saved:
                saved.append(tensor_id)

    fused = OpNode(
        id=new_op_id(graph),
        name=f"{head.name}+{followers[0].op_type}",
        op_type=fused_type, inputs=input_ids,
        outputs=[out.id for out in final_outs],
        attrs=attrs, phase="forward", saved=saved,
        workspace_bytes=head.workspace_bytes,
    )

    for tensor_id in deleted:
        graph.tensors.pop(tensor_id)
    take_inputs(graph, fused, chain_ids)
    for out in final_outs:
        out.producer = fused.id
        out.consumers = [c for c in out.consumers if c not in chain_ids]
    for tensor_id in saved:
        tensor = graph.tensors[tensor_id]
        if fused.id not in tensor.consumers:
            tensor.consumers.append(fused.id)

    head_position = graph.ops.index(head)
    graph.ops[head_position] = fused
    trailing = chain_ids - {head.id}
    graph.ops = [op for op in graph.ops if op.id not in trailing]

    merged_twins: List[OpNode] = []
    for member in chain:
        for twin in twins.pop(member.id, []):
            twin.forward_of = fused.id
            merged_twins.append(twin)
    if merged_twins:
        twins[fused.id] = merged_twins


def _fuse_chains(graph: Graph, details: Counter) -> int:
    changed = 0
    twins = _twin_map(graph)
    index = 0
    while index < len(graph.ops):
        head = graph.ops[index]
        followers = _match_chain(graph, head)
        if followers is not None:
            fused_type = _RELU_FUSED[head.op_type]
            _apply_chain_fusion(graph, head, followers, fused_type, twins)
            details[fused_type] += 1
            changed += 1
        index += 1
    return changed


# ----------------------------------------------------------------------
# Sibling fusion
# ----------------------------------------------------------------------

def _fuse_siblings(graph: Graph, details: Counter) -> int:
    """Stack the forward ops of a ``sibling_fused`` type grouped by (type,
    shared weight and bias, input shape, attrs), in first-member order.

    Forward convs that share a weight are one split layer, whose patches
    are independent — the rule the builder's ``_one_gemm_patches`` uses
    too.  A graph that breaks it (one conv applied twice in a chain)
    stacks into an op that reads its own output, which
    :meth:`Graph.validate` rejects with ``ValueError``.
    """
    groups: Dict[Tuple, List[OpNode]] = {}
    for op in graph.ops:
        if op.phase != "forward" or op_def(op.op_type).sibling_fused is None:
            continue
        key = (op.op_type, tuple(op.inputs[1:]),
               graph.tensors[op.inputs[0]].shape, attr_key(op.attrs))
        groups.setdefault(key, []).append(op)
    layers = [group for group in groups.values() if len(group) >= 2]
    for group in layers:
        details[op_def(group[0].op_type).sibling_fused] += 1
    return stack_layers(graph, layers)


# ----------------------------------------------------------------------
# ReLU backward fusion
# ----------------------------------------------------------------------

def _mask_of(graph: Graph, tensor_id: int) -> Optional[OpNode]:
    """The ``relu_bwd`` that alone consumes gradient ``tensor_id``, as its
    gradient input, or ``None``."""
    consumers = graph.tensors[tensor_id].consumers
    if len(consumers) == 1:
        mask = graph.op_by_id(consumers[0])
        if mask.op_type == "relu_bwd" and mask.inputs[0] == tensor_id:
            return mask
    return None


def _fuse_relu_backward(graph: Graph, details: Counter) -> int:
    """Fold each ``relu_bwd`` into the op producing its gradient, per
    :data:`_RELU_BWD_FUSED`, when every output of that op feeds one.

    The fused op takes the ReLU outputs as trailing inputs, writes the
    masked gradients and sits at the producer's position; the pre-mask
    gradients are deleted.
    """
    changed = 0
    for producer in list(graph.ops):
        fused_type = _RELU_BWD_FUSED.get(producer.op_type)
        if fused_type is None:
            continue
        masks = [_mask_of(graph, tensor_id) for tensor_id in producer.outputs]
        if any(mask is None for mask in masks):
            continue
        fused = OpNode(
            id=new_op_id(graph), name=f"{producer.name}+relu_bwd",
            op_type=fused_type,
            inputs=producer.inputs + [mask.inputs[1] for mask in masks],
            outputs=[mask.outputs[0] for mask in masks],
            attrs=dict(producer.attrs), phase="backward",
            workspace_bytes=producer.workspace_bytes,
            forward_of=producer.forward_of,
        )
        old_ids = {producer.id} | {mask.id for mask in masks}
        take_inputs(graph, fused, old_ids)
        for tensor_id in producer.outputs:
            graph.tensors.pop(tensor_id)
        for tensor_id in fused.outputs:
            graph.tensors[tensor_id].producer = fused.id
        graph.ops[graph.ops.index(producer)] = fused
        graph.ops = [op for op in graph.ops if op.id not in old_ids]
        details[fused_type] += 1
        changed += 1
    return changed


def fuse_ops(graph: Graph) -> PassResult:
    """Chain fusion, then sibling fusion (chains first so the per-patch
    conv+ReLU pairs become ``conv2d_relu`` siblings before stacking), then
    ReLU backward fusion (after stacking, so a stacked ``bwd_data`` takes
    all S masks)."""
    details: Counter = Counter()
    changed = _fuse_chains(graph, details)
    changed += _fuse_siblings(graph, details)
    changed += _fuse_relu_backward(graph, details)
    return PassResult("fuse_ops", changed, dict(details))


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------

def fold_constants(graph: Graph,
                   params: Optional[Dict[str, np.ndarray]]) -> PassResult:
    """Rewrite, in place, each ``batchnorm_eval`` whose γ and σ² are known
    (graph constants, or parameter values from ``params``, read only and
    possibly ``None``) into ``bn_affine(x, scale, mean, beta)``.

    ``scale`` is computed with the exact expression ``_k_batchnorm_eval``
    evaluates at run time (same dtype, same operation order), so folding
    is bit-exact.
    """
    params = params or {}

    def value_of(tensor_id: int) -> Optional[np.ndarray]:
        if tensor_id in graph.constants:
            return graph.constants[tensor_id]
        tensor = graph.tensors[tensor_id]
        return params.get(tensor.name) if tensor.kind == "parameter" else None

    changed = 0
    for op in graph.ops:
        if op.op_type != "batchnorm_eval":
            continue
        old_inputs = op.inputs
        x, gamma_id, beta, mean, var_id = old_inputs
        gamma, var = value_of(gamma_id), value_of(var_id)
        if gamma is None or var is None:
            continue
        inv_std = 1.0 / np.sqrt(var + op.attrs.get("eps", BN_EPS))
        scale = gamma * inv_std
        tensor = graph.add_tensor(f"{op.name}.scale", scale.shape,
                                  kind="constant")
        graph.constants[tensor.id] = scale
        op.op_type = "bn_affine"
        op.attrs = {"num_features": int(op.attrs.get("num_features",
                                                     scale.shape[0]))}
        op.inputs = [x, tensor.id, mean, beta]
        kept = Counter(op.inputs)
        for tensor_id in set(old_inputs) | set(op.inputs):
            tensor = graph.tensors[tensor_id]
            tensor.consumers = [c for c in tensor.consumers if c != op.id]
            tensor.consumers.extend([op.id] * kept[tensor_id])
        for tensor_id in set(old_inputs) - set(op.inputs):
            # Drop a running statistic only the folded op read.
            tensor = graph.tensors[tensor_id]
            if (tensor.kind == "constant" and not tensor.consumers
                    and tensor.producer is None):
                graph.tensors.pop(tensor_id)
                graph.constants.pop(tensor_id, None)
        changed += 1
    details = {"batchnorm_eval->bn_affine": changed} if changed else {}
    return PassResult("fold_constants", changed, details)
