"""Byte-identity-preserving graph rewrites: fusion and constant folding.

Three rewrites, each a direct walk over the graph:

- **Sibling fusion** — stack the S per-patch convs of each split layer
  the builder left per patch into one batched op (the ``OpDef``'s
  ``sibling_fused`` type), through the builder's own
  :func:`~repro.graph.siblings.stack_layers`.  A stacked layer's
  ``bwd_weight`` twins stay per-sibling (merging them here would reorder
  its ``grad_acc`` sum against the interpreted graph), each reading its
  own patch's tensors.
- **ReLU folding** — an op whose type names a ``relu_fused`` type, and
  whose every output is read only by one ReLU (``relu`` forward,
  ``relu_bwd`` backward) as its input 0, becomes one op of that type with
  the ReLUs.  The fused kernel runs the producer's kernel and then each
  ReLU's exact expression, so values are bit-identical; what is saved is
  the per-op dispatch, bookkeeping, and the intermediate tensors.  It
  runs after stacking, so a stacked op folds all S ReLUs.
- **Constant folding** — a ``batchnorm_eval`` whose γ and σ² are known
  becomes a ``bn_affine`` whose scale ``γ/√(σ²+ε)`` is precomputed into
  a constant tensor, eliding the per-step rsqrt.

The ReLU fold places the fused op at the producer's position, which
keeps the serialization valid.  Sibling fusion moves work across
branches, so it ends with a stable Kahn re-serialization (ready ops
picked in original-position order) and fails loudly on cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..graph.ir import Graph, OpNode
from ..graph.registry import op_def
from ..graph.siblings import attr_key, new_op_id, stack_layers, take_inputs
from ..nn.norm import BN_EPS

__all__ = ["PassResult", "fuse_ops", "fold_constants"]


@dataclass
class PassResult:
    """What one pass did: a change count plus per-rewrite detail counters
    (e.g. ``{"conv2d_relu": 8, "conv2d_siblings": 4}``)."""

    name: str
    changed: int
    details: Dict[str, int] = field(default_factory=dict)


def _fuse_siblings(graph: Graph, details: Counter) -> int:
    """Stack the forward ops of a ``sibling_fused`` type grouped by (type,
    shared weight and bias, input shape, attrs), in first-member order.

    Forward convs that share a weight are one split layer, whose patches
    are independent — the rule the builder's ``_one_gemm_patches`` uses
    too.  A graph that breaks it (one conv applied twice in a chain)
    stacks into an op that depends on its own output, which
    :func:`~repro.graph.siblings.reserialize` rejects with ``ValueError``.
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


def _sole_relu(graph: Graph, ops: Dict[int, OpNode], tensor_id: int,
               relu_type: str) -> Optional[OpNode]:
    """The ``relu_type`` op (of ``ops``, by id) that is the one reader of
    ``tensor_id``, as its input 0, or ``None``.  Saving a tensor makes the
    saver a reader too, so a tensor anyone else needs fails the test."""
    consumers = graph.tensors[tensor_id].consumers
    if len(consumers) == 1:
        relu = ops[consumers[0]]
        if relu.op_type == relu_type and relu.inputs[0] == tensor_id:
            return relu
    return None


def _fold_relus(graph: Graph, details: Counter) -> int:
    """Fold into each producer with a ``relu_fused`` type the ReLUs that
    alone read its outputs, in one walk.

    The fused op sits at the producer's position; its inputs are the
    producer's then each ReLU's other inputs, its outputs the ReLUs',
    its ``saved`` the members' union, and twins of a member become its
    twins.  The tensors the ReLUs consumed are deleted.
    """
    ops = {op.id: op for op in graph.ops}
    twins: Dict[int, List[OpNode]] = {}
    for op in graph.ops:
        if op.forward_of is not None:
            twins.setdefault(op.forward_of, []).append(op)
    fused_at: Dict[int, OpNode] = {}
    folded: Set[int] = set()
    for producer in graph.ops:
        fused_type = op_def(producer.op_type).relu_fused
        if fused_type is None:
            continue
        relu_type = "relu" if producer.phase == "forward" else "relu_bwd"
        relus = [_sole_relu(graph, ops, tensor_id, relu_type)
                 for tensor_id in producer.outputs]
        if any(relu is None for relu in relus):
            continue
        members = [producer] + relus
        attrs = dict(producer.attrs)
        saved: List[int] = []
        for member in members:
            for key, value in member.attrs.items():
                attrs.setdefault(key, value)
            saved.extend(t for t in member.saved if t not in saved)
        fused = OpNode(
            id=new_op_id(graph), name=f"{producer.name}+{relu_type}",
            op_type=fused_type,
            inputs=producer.inputs + [t for relu in relus
                                      for t in relu.inputs[1:]],
            outputs=[relu.outputs[0] for relu in relus],
            attrs=attrs, phase=producer.phase, saved=saved,
            workspace_bytes=producer.workspace_bytes,
            forward_of=producer.forward_of,
        )
        member_ids = {member.id for member in members}
        take_inputs(graph, fused, member_ids)
        for tensor_id in producer.outputs:
            graph.tensors.pop(tensor_id)
        for tensor_id in fused.outputs:
            out = graph.tensors[tensor_id]
            out.producer = fused.id
            out.consumers = [c for c in out.consumers if c not in member_ids]
        for tensor_id in saved:
            if fused.id not in graph.tensors[tensor_id].consumers:
                graph.tensors[tensor_id].consumers.append(fused.id)
        for member in members:
            for twin in twins.get(member.id, ()):
                twin.forward_of = fused.id
        fused_at[producer.id] = fused
        folded.update(relu.id for relu in relus)
        details[fused_type] += 1
    graph.ops = [fused_at.get(op.id, op) for op in graph.ops
                 if op.id not in folded]
    return len(fused_at)


def fuse_ops(graph: Graph) -> PassResult:
    """Stack split layers, then fold ReLUs (after stacking, so a stacked
    op folds all S ReLUs of its outputs)."""
    details: Counter = Counter()
    changed = _fuse_siblings(graph, details)
    changed += _fold_relus(graph, details)
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
