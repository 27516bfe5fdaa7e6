"""Byte-identity-preserving graph rewrites: fusion and constant folding.

Three rewrites, all driven by declarations on the registry's ``OpDef``
records rather than hard-coded op lists:

- **Chain fusion** (``OpDef.fusions``) — collapse a producer/consumer
  pair like conv→ReLU into one fused op.  The fused kernels run the
  exact member kernels back to back on the same arrays, so values are
  bit-identical; what is saved is the per-op dispatch, bookkeeping, and
  the intermediate tensor's graph traffic.  A stacked head fuses one
  pair per output: the builder's
  ``conv2d_siblings`` whose S outputs each feed one ReLU becomes one
  ``conv2d_relu_siblings``.
- **Sibling fusion** (``OpDef.sibling_fused``) — stack the S per-patch
  convs of a split layer the builder left per patch into one batched op
  (:mod:`repro.graph.siblings`, which the builder uses for the layers it
  stacks itself).  Chains go first, so per-patch conv+ReLU pairs become
  ``conv2d_relu`` siblings before stacking.  A chain layer's
  ``bwd_weight`` twins stay per-sibling (merging them here would reorder
  its ``grad_acc`` sum against the interpreted graph) and slice their
  patch out of the stacked saved context instead.
- **Constant folding** (``OpDef.fold``) — rewrite an op whose inputs
  are known at compile time.  The one fold rewrites ``batchnorm_eval``
  into a ``bn_affine`` whose scale ``γ/√(σ²+ε)`` is precomputed into a
  constant tensor, eliding the per-step rsqrt.

Chain fusion places the fused op at the chain head's position, which
keeps the serialization valid.  Sibling fusion moves work across
branches, so the pass ends with a stable Kahn re-serialization (ready
ops picked in original-position order) and fails loudly on cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.races import ancestor_masks
from ..graph.executor import OUTPUT_NAMES
from ..graph.ir import Graph, OpNode
from ..graph.registry import FoldResult, FusionRule, op_def
from ..graph.siblings import attr_key, new_op_id, reserialize, stack_siblings

__all__ = ["PassResult", "fuse_ops", "fold_constants"]


@dataclass
class PassResult:
    """What one pass did: a change count plus per-rewrite detail counters
    (e.g. ``{"conv2d_relu": 8, "conv2d_siblings": 4}``)."""

    name: str
    changed: int
    details: Dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

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

def _follower(graph: Graph, head: OpNode, tensor_id: int,
              op_type: str) -> Optional[OpNode]:
    """The ``op_type`` op that alone consumes head output ``tensor_id``,
    as its data input, or ``None``."""
    out = graph.tensors[tensor_id]
    if out.kind != "activation" or out.name in OUTPUT_NAMES:
        return None
    consumer_ids = set(out.consumers) - {head.id}
    if len(consumer_ids) != 1:
        return None
    candidate = graph.op_by_id(consumer_ids.pop())
    if (candidate.op_type != op_type
            or candidate.phase != "forward"
            or candidate.inputs.count(out.id) != 1
            or candidate.inputs[0] != out.id):
        return None
    return candidate


def _match_chain(graph: Graph, head: OpNode,
                 ) -> Optional[Tuple[FusionRule, List[OpNode]]]:
    """The first declared rule of ``head`` that matches, with the
    follower of each head output, if any.

    A head output is fusable when it is a plain activation with *exactly
    one* consumer — the follower, reading it as its data input.
    Saved-for-backward reads and backward-op inputs appear in
    ``consumers`` too, so an output someone else still needs
    automatically fails the single-consumer test.  A stacked head
    (``conv2d_siblings``) matches when each of its S outputs has a
    follower.
    """
    definition = op_def(head.op_type)
    if not definition.fusions or head.phase != "forward":
        return None
    for rule in definition.fusions:
        followers = [_follower(graph, head, tensor_id, rule.follower)
                     for tensor_id in head.outputs]
        if any(follower is None for follower in followers):
            continue
        chain_ids = {head.id} | {follower.id for follower in followers}
        if any(tensor_id in op.saved
               for op in graph.ops if op.id not in chain_ids
               for tensor_id in head.outputs):
            continue
        return rule, followers
    return None


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
    need = Counter(input_ids)
    for tensor_id in need:
        tensor = graph.tensors[tensor_id]
        tensor.consumers = [c for c in tensor.consumers
                            if c not in chain_ids]
        tensor.consumers.extend([fused.id] * need[tensor_id])
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
        match = _match_chain(graph, graph.ops[index])
        if match is None:
            index += 1
            continue
        rule, followers = match
        _apply_chain_fusion(graph, graph.ops[index], followers, rule.fused,
                            twins)
        details[rule.fused] += 1
        changed += 1
        index += 1
    return changed


# ----------------------------------------------------------------------
# Sibling fusion
# ----------------------------------------------------------------------

def _find_sibling_group(graph: Graph) -> Optional[List[OpNode]]:
    """The earliest group of ≥2 mutually independent sibling ops.

    Siblings share op type, weight (and bias) tensors, input shape, and
    attrs — exactly the per-patch convs of one Split-CNN layer.  Mutual
    independence (no member reachable from another) guarantees stacking
    them into one op cannot create a cycle through their shared node.
    """
    position = graph.op_positions()
    groups: Dict[Tuple, List[OpNode]] = {}
    for op in graph.ops:
        if op.phase != "forward" or "siblings" in op.attrs:
            continue
        definition = op_def(op.op_type)
        if definition.sibling_fused is None or len(op.outputs) != 1:
            continue
        key = (op.op_type, tuple(op.inputs[1:]),
               graph.tensors[op.inputs[0]].shape, attr_key(op.attrs))
        groups.setdefault(key, []).append(op)
    candidates = [sorted(group, key=lambda op: position[op.id])
                  for group in groups.values() if len(group) >= 2]
    if not candidates:
        return None
    candidates.sort(key=lambda group: position[group[0].id])
    masks = ancestor_masks(graph)
    for group in candidates:
        independent = True
        for i, early in enumerate(group):
            for late in group[i + 1:]:
                if (masks[position[late.id]] >> position[early.id]) & 1:
                    independent = False
                    break
            if not independent:
                break
        if independent:
            return group
    return None


def _fuse_siblings(graph: Graph, details: Counter) -> int:
    changed = 0
    while True:
        group = _find_sibling_group(graph)
        if group is None:
            break
        fused_type = op_def(group[0].op_type).sibling_fused
        assert fused_type is not None
        stack_siblings(graph, group, fused_type)
        details[fused_type] += 1
        changed += 1
    if changed:
        reserialize(graph)
    return changed


def fuse_ops(graph: Graph) -> PassResult:
    """Chain fusion, then sibling fusion (chains first so the per-patch
    conv+ReLU pairs become ``conv2d_relu`` siblings before stacking)."""
    details: Counter = Counter()
    changed = _fuse_chains(graph, details)
    changed += _fuse_siblings(graph, details)
    return PassResult("fuse_ops", changed, dict(details))


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------

def _gc_tensor(graph: Graph, tensor_id: int) -> None:
    tensor = graph.tensors.get(tensor_id)
    if (tensor is not None and tensor.kind == "constant"
            and not tensor.consumers and tensor.producer is None):
        graph.tensors.pop(tensor_id)
        graph.constants.pop(tensor_id, None)


def _apply_fold(graph: Graph, op: OpNode, result: FoldResult) -> None:
    """Rewrite ``op`` in place per its ``FoldResult`` (same id, outputs,
    and position — only type, attrs, and inputs change)."""
    old_inputs = list(op.inputs)
    new_inputs: List[int] = []
    for spec in result.inputs:
        if spec[0] == "tensor":
            new_inputs.append(spec[1])
        else:
            _, name, array = spec
            array = np.asarray(array)
            tensor = graph.add_tensor(name, array.shape, kind="constant")
            graph.constants[tensor.id] = array
            new_inputs.append(tensor.id)
    op.op_type = result.op_type
    op.attrs = dict(result.attrs)
    op.inputs = new_inputs
    kept = Counter(new_inputs)
    for tensor_id in set(old_inputs) | set(new_inputs):
        tensor = graph.tensors[tensor_id]
        tensor.consumers = [c for c in tensor.consumers if c != op.id]
        tensor.consumers.extend([op.id] * kept.get(tensor_id, 0))
    for tensor_id in set(old_inputs) - set(new_inputs):
        _gc_tensor(graph, tensor_id)


def fold_constants(graph: Graph,
                   params: Optional[Dict[str, np.ndarray]]) -> PassResult:
    """Apply every ``OpDef.fold`` whose inputs are known: graph constants,
    and parameter values from ``params`` (read only; may be ``None``)."""
    params_by_tensor: Dict[int, np.ndarray] = {}
    if params:
        for tensor in graph.tensors.values():
            if tensor.kind == "parameter" and tensor.name in params:
                params_by_tensor[tensor.id] = params[tensor.name]

    def value_of(tensor_id: int) -> Optional[np.ndarray]:
        if tensor_id in graph.constants:
            return graph.constants[tensor_id]
        return params_by_tensor.get(tensor_id)

    details: Counter = Counter()
    changed = 0
    for op in list(graph.ops):
        definition = op_def(op.op_type)
        if definition.fold is None:
            continue
        result = definition.fold(op, value_of)
        if result is None:
            continue
        source_type = op.op_type
        _apply_fold(graph, op, result)
        details[f"{source_type}->{result.op_type}"] += 1
        changed += 1
    return PassResult("fold_constants", changed, dict(details))
