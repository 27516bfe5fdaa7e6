"""Gradient checkpointing (recomputation) as an alternative memory strategy.

The paper's related work discusses recomputation-flavoured approaches
(in-place ABN [6] recomputes BN inputs; Chen et al.'s sublinear-memory
checkpointing is the general form) as orthogonal to offloading.  This
module implements segment checkpointing at the IR level so the benchmark
suite can compare — and compose — the two strategies:

- the forward pass keeps alive only *checkpoint* tensors (segment
  boundaries) instead of every saved activation;
- the backward pass re-executes each segment's forward ops (clones with
  ``phase="backward"``) from its checkpoint before running the segment's
  gradient ops, which read the recomputed tensors.

Only the convolutional trunk (ops before ``flatten``) is checkpointed;
classifier ops keep their saved tensors (dropout masks cannot be
recomputed without replaying RNG state).
"""

from __future__ import annotations

import math
from typing import Dict

from .backward import _BackwardEmitter, prune_dead_gradients
from .builder import build_forward_graph
from .ir import Graph, OpNode, TensorValue

__all__ = ["append_checkpointed_backward", "build_checkpointed_training_graph"]


class _RemappingEmitter(_BackwardEmitter):
    """Backward emitter that reads recomputed tensors where available.

    Data references (saved activations) are redirected to the recomputed
    clones, but gradient bookkeeping stays keyed by the *original* tensor
    ids so gradients flow across segment boundaries, where one side sees
    the original tensor and the other its clone.
    """

    def __init__(self, graph: Graph, remap: Dict[int, TensorValue],
                 reverse: Dict[int, int]) -> None:
        super().__init__(graph)
        self.remap = remap
        self.reverse = reverse

    def _io(self, op: OpNode):
        inputs = [self.remap.get(i, None) or self.graph.tensor(i)
                  for i in op.inputs]
        outputs = [self.remap.get(i, None) or self.graph.tensor(i)
                   for i in op.outputs]
        return inputs, outputs

    def _key(self, tensor_id: int) -> int:
        return self.reverse.get(tensor_id, tensor_id)


def _trunk_length(graph: Graph) -> int:
    """Number of leading forward ops up to (excluding) the first flatten."""
    for index, op in enumerate(graph.forward_ops()):
        if op.op_type == "flatten":
            return index
    return len(graph.forward_ops())


def append_checkpointed_backward(graph: Graph) -> Graph:
    """Append a recomputing backward pass to a forward ``graph`` in place.

    The trunk is cut into ``round(sqrt(trunk length))`` segments — the
    classic sublinear-memory segmentation.
    """
    forward = graph.forward_ops()
    trunk = _trunk_length(graph)
    num_segments = max(1, round(math.sqrt(trunk)))

    # Segment boundaries over the trunk, balanced by *activation bytes*
    # rather than op count: CNN activations are heavily front-loaded (the
    # paper's Figure 1), so equal-op segments would leave the first segment
    # carrying most of the recompute footprint.
    cumulative = [0]
    for op in forward[:trunk]:
        out_bytes = sum(graph.tensor(t).nbytes for t in op.outputs)
        cumulative.append(cumulative[-1] + out_bytes)
    total_bytes = cumulative[-1] or 1
    bounds = [0]
    for segment in range(1, num_segments):
        target = segment * total_bytes / num_segments
        index = min(range(trunk + 1), key=lambda i: abs(cumulative[i] - target))
        bounds.append(max(index, bounds[-1] + 1))
    bounds.append(trunk)
    bounds = sorted(set(min(b, trunk) for b in bounds))
    num_segments = len(bounds) - 1
    segment_of: Dict[int, int] = {}
    for segment_index in range(num_segments):
        for op_index in range(bounds[segment_index], bounds[segment_index + 1]):
            segment_of[forward[op_index].id] = segment_index

    # Trunk ops keep nothing alive for backward; their backward twins will
    # read recomputed tensors instead.  (Checkpoint tensors stay alive
    # automatically: the recompute clones consume them as inputs.)
    for op in forward[:trunk]:
        op.saved = []

    remap: Dict[int, TensorValue] = {}
    reverse: Dict[int, int] = {}
    emitter = _RemappingEmitter(graph, remap, reverse)

    def clone_segment(segment_index: int) -> None:
        """Re-emit the segment's forward ops reading from the checkpoint."""
        for op_index in range(bounds[segment_index], bounds[segment_index + 1]):
            op = forward[op_index]
            inputs = [remap.get(i, None) or graph.tensor(i) for i in op.inputs]
            outputs = []
            for out_id in op.outputs:
                original = graph.tensor(out_id)
                clone = graph.add_tensor(f"re({original.name})",
                                         original.shape, kind=original.kind,
                                         dtype_bytes=original.dtype_bytes)
                remap[out_id] = clone
                reverse[clone.id] = out_id
                outputs.append(clone)
            graph.add_op(
                f"{op.name}.re", op.op_type, inputs, outputs,
                attrs=dict(op.attrs), phase="backward",
                workspace_bytes=op.workspace_bytes, forward_of=op.id,
            )

    # Classifier + loss ops first (they kept their saved tensors).
    for op in reversed(forward[trunk:]):
        emitter.emit(op)

    # Then each trunk segment, last to first: recompute, then differentiate.
    for segment_index in range(num_segments - 1, -1, -1):
        remap.clear()
        clone_segment(segment_index)
        for op_index in range(bounds[segment_index + 1] - 1,
                              bounds[segment_index] - 1, -1):
            emitter.emit(forward[op_index])

    prune_dead_gradients(graph)
    graph.validate()
    return graph


def build_checkpointed_training_graph(model, batch_size: int,
                                      **kwargs) -> Graph:
    """Forward + loss + recomputing backward for one training step."""
    graph = build_forward_graph(model, batch_size, **kwargs)
    return append_checkpointed_backward(graph)
