"""Byte-identity-preserving graph rewrites: fusion and constant folding.

Three rewrites, all driven by declarations on the registry's ``OpDef``
records rather than hard-coded op lists:

- **Chain fusion** (``OpDef.fusions``) — collapse producer/consumer
  chains like conv→bias→ReLU or conv→BN(→ReLU) into one fused op.  The
  fused kernels run the exact member kernels back to back on the same
  arrays, so values are bit-identical; what is saved is the per-op
  dispatch, bookkeeping, and the intermediate tensor's graph traffic.
- **Sibling fusion** (``OpDef.sibling_fused``) — the Split-CNN transform
  creates S weight-sharing convolutions per layer, one per patch, with
  identical weights, strides, paddings, and input shapes.  Stacking their
  inputs along the batch axis and running *one* conv kernel computes the
  same bytes row for row (every conv stage — im2col, tensordot, bias
  broadcast, and both backward contractions — is row-independent), and
  amortizes the im2col/GEMM overhead S ways.  Backward ``conv2d_bwd_data``
  twins are merged the same way; ``bwd_weight`` twins stay per-sibling
  (batching them would reorder the gradient accumulation sum) and slice
  their patch out of the stacked saved context instead.
- **Constant folding** (``OpDef.fold``) — evaluate inference-time
  constant subgraphs at compile time.  The flagship fold rewrites
  ``batchnorm_eval`` into a ``bn_affine`` whose scale ``γ/√(σ²+ε)`` is
  precomputed into a constant tensor, eliding the per-step rsqrt; a
  generic sweep additionally folds any non-stochastic op whose inputs are
  all constants.

Chain fusion places the fused op at the chain head's position, which
keeps the serialization valid.  Sibling fusion moves work across
branches, so the pass ends with a stable Kahn re-serialization (ready
ops picked in original-position order) and fails loudly on cycles.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.races import ancestor_masks
from ..graph.executor import OUTPUT_NAMES
from ..graph.ir import Graph, OpNode
from ..graph.registry import FoldResult, FusionRule, op_def
from .pipeline import CompileContext, CompileError, Pass, PassResult

__all__ = ["FUSE_OPS", "FOLD_CONSTANTS", "fuse_ops", "fold_constants"]


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


def _reserialize(graph: Graph) -> None:
    """Stable Kahn toposort of ``graph.ops`` (ready ops in original-
    position order), raising :class:`CompileError` on a cycle."""
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
        raise CompileError(
            f"re-serialization of {graph.name!r} left "
            f"{len(graph.ops) - len(order)} op(s) in a dependency cycle"
        )
    graph.ops = order


def _new_op_id(graph: Graph) -> int:
    op_id = graph._next_op_id
    graph._next_op_id += 1
    return op_id


# ----------------------------------------------------------------------
# Chain fusion
# ----------------------------------------------------------------------

def _match_chain(graph: Graph, head: OpNode,
                 twins: Dict[int, List[OpNode]],
                 ) -> Optional[Tuple[FusionRule, List[OpNode]]]:
    """The first declared rule of ``head`` whose chain matches, if any.

    A chain link is legal when the intermediate tensor is a plain
    activation with *exactly one* consumer — the next member, reading it
    as its data input.  Saved-for-backward reads and backward-op inputs
    appear in ``consumers`` too, so any intermediate someone else still
    needs automatically fails the single-consumer test.
    """
    definition = op_def(head.op_type)
    if not definition.fusions or head.phase != "forward":
        return None
    for rule in definition.fusions:
        chain = [head]
        matched = True
        for next_type in rule.chain:
            current = chain[-1]
            if len(current.outputs) != 1:
                matched = False
                break
            out = graph.tensors[current.outputs[0]]
            if out.kind != "activation" or out.name in OUTPUT_NAMES:
                matched = False
                break
            consumer_ids = set(out.consumers) - {current.id}
            if len(consumer_ids) != 1:
                matched = False
                break
            candidate = graph.op_by_id(consumer_ids.pop())
            if (candidate.op_type != next_type
                    or candidate.phase != "forward"
                    or candidate.inputs.count(out.id) != 1
                    or candidate.inputs[0] != out.id):
                matched = False
                break
            chain.append(candidate)
        if not matched:
            continue
        chain_ids = {member.id for member in chain}
        intermediates = {member.outputs[0] for member in chain[:-1]}
        if any(tensor_id in op.saved
               for op in graph.ops if op.id not in chain_ids
               for tensor_id in intermediates):
            continue
        if rule.requires is not None \
                and not rule.requires(graph, chain, twins):
            continue
        return rule, chain
    return None


def _apply_chain_fusion(graph: Graph, chain: List[OpNode], fused_type: str,
                        twins: Dict[int, List[OpNode]]) -> None:
    head, tail = chain[0], chain[-1]
    chain_ids = {member.id for member in chain}
    final_out = graph.tensors[tail.outputs[0]]
    deleted = {member.outputs[0] for member in chain[:-1]}

    input_ids = list(head.inputs)
    attrs = dict(head.attrs)
    for member in chain[1:]:
        input_ids.extend(member.inputs[1:])
        for key, value in member.attrs.items():
            attrs.setdefault(key, value)
    saved: List[int] = []
    for member in chain:
        for tensor_id in member.saved:
            if tensor_id not in deleted and tensor_id not in saved:
                saved.append(tensor_id)

    fused = OpNode(
        id=_new_op_id(graph),
        name="+".join([head.name] + [m.op_type for m in chain[1:]]),
        op_type=fused_type, inputs=input_ids, outputs=[final_out.id],
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
    final_out.producer = fused.id
    final_out.consumers = [c for c in final_out.consumers
                           if c not in chain_ids]
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
        match = _match_chain(graph, graph.ops[index], twins)
        if match is None:
            index += 1
            continue
        rule, chain = match
        _apply_chain_fusion(graph, chain, rule.fused, twins)
        details[rule.fused] += 1
        changed += 1
        index += 1
    return changed


# ----------------------------------------------------------------------
# Sibling fusion
# ----------------------------------------------------------------------

def _attr_key(attrs: Dict[str, Any]) -> Tuple:
    return tuple(sorted(
        (key, tuple(v) if isinstance(v, (list, tuple)) else v)
        for key, v in attrs.items()
    ))


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
               graph.tensors[op.inputs[0]].shape, _attr_key(op.attrs))
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


def _merge_bwd_data(graph: Graph, data_ops: List[OpNode],
                    fused: OpNode) -> None:
    """Replace the siblings' per-patch ``conv2d_bwd_data`` twins with one
    stacked op: the input-gradient scatter is row-independent, so one
    kernel over the stacked grads equals the per-patch results bitwise."""
    count = len(data_ops)
    weight_id = data_ops[0].inputs[1]
    attrs = dict(data_ops[0].attrs)
    attrs.pop("sibling", None)
    attrs["siblings"] = count
    merged = OpNode(
        id=_new_op_id(graph), name=f"{fused.name}.bwd_data",
        op_type="conv2d_bwd_data_siblings",
        inputs=[op.inputs[0] for op in data_ops] + [weight_id],
        outputs=[op.outputs[0] for op in data_ops],
        attrs=attrs, phase="backward", forward_of=fused.id,
        workspace_bytes=sum(op.workspace_bytes for op in data_ops),
    )
    old_ids = {op.id for op in data_ops}
    need = Counter(merged.inputs)
    for tensor_id in need:
        tensor = graph.tensors[tensor_id]
        tensor.consumers = [c for c in tensor.consumers
                            if c not in old_ids]
        tensor.consumers.extend([merged.id] * need[tensor_id])
    for tensor_id in merged.outputs:
        graph.tensors[tensor_id].producer = merged.id
    first_position = graph.ops.index(data_ops[0])
    graph.ops[first_position] = merged
    trailing = old_ids - {data_ops[0].id}
    graph.ops = [op for op in graph.ops if op.id not in trailing]


def _apply_sibling_fusion(graph: Graph, group: List[OpNode],
                          fused_type: str) -> None:
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
        id=_new_op_id(graph),
        name=f"{first.name}(x{count})",
        op_type=fused_type, inputs=input_ids, outputs=output_ids,
        attrs=attrs, phase="forward", saved=saved,
        workspace_bytes=sum(member.workspace_bytes for member in group),
    )

    group_ids = {member.id for member in group}
    need = Counter(input_ids)
    for tensor_id in need:
        tensor = graph.tensors[tensor_id]
        tensor.consumers = [c for c in tensor.consumers
                            if c not in group_ids]
        tensor.consumers.extend([fused.id] * need[tensor_id])
    for tensor_id in output_ids:
        tensor = graph.tensors[tensor_id]
        tensor.producer = fused.id
        tensor.consumers = [c for c in tensor.consumers
                            if c not in group_ids]
    for tensor_id in saved:
        tensor = graph.tensors[tensor_id]
        if fused.id not in tensor.consumers:
            tensor.consumers.append(fused.id)

    first_position = graph.ops.index(first)
    graph.ops[first_position] = fused
    trailing = group_ids - {first.id}
    graph.ops = [op for op in graph.ops if op.id not in trailing]

    # Backward twins: retarget to the fused op and stamp each one's patch
    # index so its kernel can slice the stacked saved context.
    member_index = {member.id: i for i, member in enumerate(group)}
    data_twins: Dict[int, List[OpNode]] = {}
    for op in graph.ops:
        if op.forward_of is None:
            continue
        sibling = member_index.get(op.forward_of)
        if sibling is None:
            continue
        op.forward_of = fused.id
        if op.op_type == "conv2d_bwd_data":
            data_twins.setdefault(sibling, []).append(op)
        else:
            op.attrs.update({"sibling": sibling, "siblings": count})
    if len(data_twins) == count \
            and all(len(ops) == 1 for ops in data_twins.values()):
        _merge_bwd_data(
            graph, [data_twins[i][0] for i in range(count)], fused)
    else:
        for sibling, ops in data_twins.items():
            for op in ops:
                op.attrs.update({"sibling": sibling, "siblings": count})


def _fuse_siblings(graph: Graph, details: Counter) -> int:
    changed = 0
    while True:
        group = _find_sibling_group(graph)
        if group is None:
            break
        fused_type = op_def(group[0].op_type).sibling_fused
        assert fused_type is not None
        _apply_sibling_fusion(graph, group, fused_type)
        details[fused_type] += 1
        changed += 1
    if changed:
        _reserialize(graph)
    return changed


def fuse_ops(graph: Graph, ctx: CompileContext) -> PassResult:
    """Chain fusion, then sibling fusion (chains first so the per-patch
    conv+ReLU pairs become ``conv2d_relu`` siblings before stacking)."""
    del ctx
    details: Counter = Counter()
    changed = _fuse_chains(graph, details)
    changed += _fuse_siblings(graph, details)
    return PassResult("fuse_ops", changed, dict(details))


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------

class _FoldShim:
    """Minimal executor facade for evaluating all-constant ops at compile
    time with the registry's own kernels."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.values: Dict[int, np.ndarray] = {}
        self.targets = None

    def input(self, op: OpNode, index: int) -> np.ndarray:
        tensor_id = op.inputs[index]
        if tensor_id in self.values:
            return self.values[tensor_id]
        return self.graph.constants[tensor_id]

    def set_output(self, op: OpNode, index: int, value: np.ndarray) -> None:
        self.values[op.outputs[index]] = value

    def needs_context(self, op: OpNode) -> bool:
        return False               # folded ops have no backward twin

    def save_context(self, op: OpNode, fn: Any) -> None:
        pass


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


def _fold_op_hooks(graph: Graph, ctx: CompileContext,
                   details: Counter) -> int:
    params_by_tensor: Dict[int, np.ndarray] = {}
    if ctx.params:
        for tensor in graph.tensors.values():
            if tensor.kind == "parameter" and tensor.name in ctx.params:
                params_by_tensor[tensor.id] = ctx.params[tensor.name]

    def value_of(tensor_id: int) -> Optional[np.ndarray]:
        if tensor_id in graph.constants:
            return graph.constants[tensor_id]
        return params_by_tensor.get(tensor_id)

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
    return changed


def _fold_pure_constant_ops(graph: Graph, details: Counter) -> int:
    """Evaluate non-stochastic forward ops whose inputs are all constants,
    to a fixpoint."""
    shim = _FoldShim(graph)
    changed = 0
    progress = True
    while progress:
        progress = False
        referenced = {op.forward_of for op in graph.ops
                      if op.forward_of is not None}
        for op in list(graph.ops):
            definition = op_def(op.op_type)
            if (op.phase != "forward" or definition.stochastic
                    or definition.infer_shapes is None
                    or not op.inputs or op.saved
                    or op.id in referenced):
                continue
            if not all(graph.tensors[t].kind == "constant"
                       for t in op.inputs):
                continue
            if any(graph.tensors[t].name in OUTPUT_NAMES
                   for t in op.outputs):
                continue
            definition.kernel(shim, op)
            for tensor_id in op.outputs:
                tensor = graph.tensors[tensor_id]
                tensor.kind = "constant"
                tensor.producer = None
                graph.constants[tensor_id] = np.asarray(
                    shim.values[tensor_id])
            for tensor_id in set(op.inputs):
                tensor = graph.tensors[tensor_id]
                tensor.consumers = [c for c in tensor.consumers
                                    if c != op.id]
                _gc_tensor(graph, tensor_id)
            graph.ops = [other for other in graph.ops
                         if other.id != op.id]
            details["constant_ops"] += 1
            changed += 1
            progress = True
    return changed


def fold_constants(graph: Graph, ctx: CompileContext) -> PassResult:
    details: Counter = Counter()
    changed = _fold_op_hooks(graph, ctx, details)
    changed += _fold_pure_constant_ops(graph, details)
    return PassResult("fold_constants", changed, dict(details))


FUSE_OPS = Pass(name="fuse_ops", version=1, fn=fuse_ops)
FOLD_CONSTANTS = Pass(name="fold_constants", version=1, fn=fold_constants)
