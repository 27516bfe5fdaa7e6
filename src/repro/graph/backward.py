"""Backward-graph generation (§4.1 step 2).

Backward operations are appended to the forward graph in exactly the
reverse of the serialized forward order, as the paper specifies.  Each
forward op type expands into its gradient op(s) through the
``backward`` rule of its :class:`~repro.graph.registry.OpDef`; gradients
of tensors with several consumers are merged by explicit ``grad_acc``
ops.  The exception is a split conv whose S patches' output gradients
and inputs hold no more elements than their shared weight: its weight
(and bias) gradient is one ``conv2d_bwd_weight`` over all S patches,
emitted at the last patch, and needs no chain (``one_gemm`` keeps each
layer's decision, ``pending`` the earlier patches' operands).  Once the
expansion is done, such a layer's S forward patch convs and their S
``conv2d_bwd_data`` twins are stacked into one op each
(:func:`~repro.graph.siblings.stack_gated_layers`), so it is one GEMM in
every direction; differentiation itself only ever sees per-patch ops.

The residual ``add`` gets special treatment: its error terms all equal the
upstream error (d(sum)/dx_i = 1), so both produced gradient tensors carry
``attrs["shared_value"] = True`` — the storage-assignment pass can map them
onto one TSO (the paper's *Summation Error Storage Object Sharing*).

:class:`_BackwardEmitter` keeps only the gradient bookkeeping
(``contribute`` / ``grad_of`` / ``new_grad`` / ``_io``); the per-op-type
expansion rules live in the central registry.  The checkpointing module
subclasses the emitter to remap reads onto recomputed tensors (``_io``)
and key gradients by the original tensor (``_key``), so plain and
checkpointed graphs get chains and one-GEMM layers from one code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .ir import Graph, OpNode, TensorValue
from .registry import op_def
from .siblings import stack_gated_layers

__all__ = ["append_backward_graph", "prune_dead_gradients"]


def prune_dead_gradients(graph: Graph) -> int:
    """Remove backward-phase ops none of whose outputs is ever read or a
    run result.  Returns the number of ops removed.

    Two generators produce such dead compute mechanically:

    - the registry's backward rules emit a data-gradient for every op
      input, including the network input itself — nothing trains on
      ``grad(input)``, so the first layer's ``bwd_data`` (and, in split
      graphs, the ``split_bwd`` concatenating patch input gradients plus
      the per-patch chains feeding it) is dead;
    - segment checkpointing re-executes a whole segment, but the
      recomputed clone of the segment's *last* op goes unread — backward
      twins consume the recomputed saved inputs, and the next segment
      restarts from the real checkpoint tensor.

    Found by the static analyzer as ``SCA002``; pruned here at build
    time.  Runs to a fixpoint: removing a consumer can kill the ops
    producing its inputs.  Parameter gradients (kind ``"gradient"``) and
    running stats (``"saved_stat"``) are results and keep their
    producers alive whatever their consumer count.
    """
    removed_total = 0
    while True:
        dead = []
        for op in graph.ops:
            if op.phase != "backward":
                continue
            outputs = [graph.tensors[t] for t in op.outputs]
            if outputs and all(
                    t.kind not in ("gradient", "saved_stat")
                    and not t.consumers for t in outputs):
                dead.append(op)
        if not dead:
            return removed_total
        dead_ids = {op.id for op in dead}
        graph.ops = [op for op in graph.ops if op.id not in dead_ids]
        for op in dead:
            for tensor_id in set(op.inputs) | set(op.saved):
                tensor = graph.tensors.get(tensor_id)
                if tensor is not None:
                    tensor.consumers = [c for c in tensor.consumers
                                        if c != op.id]
            for tensor_id in op.outputs:
                graph.tensors.pop(tensor_id, None)
        removed_total += len(dead)


class _BackwardEmitter:
    """Gradient bookkeeping shared by all registry backward rules."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        # gradient key -> gradient TensorValue (merged as contributions arrive)
        self.grads: Dict[int, TensorValue] = {}
        # weight id -> the split layer's patch convs when its weight
        # gradient is one GEMM, else [] (decided at the layer's first patch)
        self.one_gemm: Dict[int, List[OpNode]] = {}
        # weight id -> {patch conv id: (grad_out, input)} of such a layer,
        # filled until its last patch
        self.pending: Dict[int, Dict[int, Tuple[TensorValue, TensorValue]]] = {}

    # ------------------------------------------------------------------
    def _key(self, tensor_id: int) -> int:
        """The id a tensor's gradient is kept under."""
        return tensor_id

    def contribute(self, tensor: TensorValue, grad: TensorValue,
                   source_op: OpNode) -> None:
        """Register a gradient contribution for ``tensor``."""
        key = self._key(tensor.id)
        existing = self.grads.get(key)
        if existing is None:
            self.grads[key] = grad
            return
        merged = self.graph.add_tensor(f"grad_acc({tensor.name})", tensor.shape,
                                       kind=grad.kind)
        self.graph.add_op(
            f"grad_acc[{tensor.name}]", "grad_acc", [existing, grad], [merged],
            phase="backward", forward_of=source_op.id,
        )
        self.grads[key] = merged

    def grad_of(self, tensor_id: int) -> Optional[TensorValue]:
        return self.grads.get(self._key(tensor_id))

    def new_grad(self, tensor: TensorValue, kind: str = "gradient_act") -> TensorValue:
        return self.graph.add_tensor(f"grad({tensor.name})", tensor.shape, kind=kind)

    def _io(self, op: OpNode):
        inputs = [self.graph.tensor(i) for i in op.inputs]
        outputs = [self.graph.tensor(i) for i in op.outputs]
        return inputs, outputs

    # ------------------------------------------------------------------
    def emit(self, op: OpNode) -> None:
        rule = op_def(op.op_type).backward
        if rule is None:
            raise NotImplementedError(f"no backward rule for op type {op.op_type!r}")
        rule(self, op)


def append_backward_graph(graph: Graph) -> Graph:
    """Append backward ops (reverse forward order) to ``graph`` in place,
    then stack every split layer whose weight gradient is one GEMM."""
    emitter = _BackwardEmitter(graph)
    forward = graph.forward_ops()
    for op in reversed(forward):
        emitter.emit(op)
    prune_dead_gradients(graph)
    stack_gated_layers(graph, emitter.one_gemm.values())
    graph.validate()
    return graph
