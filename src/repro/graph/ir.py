"""Static computation-graph IR (paper §4, "Computation Graph").

The IR is purely symbolic — shapes and op attributes, no numerics.  It is
what the HMMS plans over: nodes are serialized in execution order (the
builder emits them topologically; the backward generator appends reversed
backward ops, matching §4.1 step 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..tensor.tensor import DEFAULT_DTYPE

__all__ = ["TensorValue", "OpNode", "Graph", "FLOAT_BYTES"]

FLOAT_BYTES = 4


@dataclass
class TensorValue:
    """A tensor in the computation graph (the *conceptual* object; its
    physical storage is a TSO assigned later by the HMMS)."""

    id: int
    name: str
    shape: Tuple[int, ...]
    # activation | input | parameter | gradient | gradient_act |
    # saved_stat | constant ("constant" tensors carry a compile-time
    # value in Graph.constants — running stats, folded BN scales).
    kind: str = "activation"
    dtype_bytes: int = FLOAT_BYTES
    producer: Optional[int] = None          # op id
    consumers: List[int] = field(default_factory=list)

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.dtype_bytes

    def __repr__(self) -> str:
        return f"TensorValue({self.id}, {self.name!r}, {self.shape}, {self.kind})"


@dataclass
class OpNode:
    """One operation in the serialized computation graph."""

    id: int
    name: str
    op_type: str
    inputs: List[int]
    outputs: List[int]
    attrs: Dict[str, Any] = field(default_factory=dict)
    phase: str = "forward"                  # forward | backward
    # Forward tensors this op keeps alive for its backward counterpart —
    # the per-layer "generated data" of the paper's Figure 1.
    saved: List[int] = field(default_factory=list)
    workspace_bytes: int = 0
    forward_of: Optional[int] = None        # for backward ops
    # In-place execution hint: output may share the input's TSO (ReLU).
    inplace_of: Optional[int] = None        # tensor id

    def __repr__(self) -> str:
        return f"OpNode({self.id}, {self.op_type}, {self.name!r}, {self.phase})"


class Graph:
    """A serialized computation graph with tensor bookkeeping."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.ops: List[OpNode] = []
        self.tensors: Dict[int, TensorValue] = {}
        # Values of kind="constant" tensors, keyed by tensor id: inputs
        # that are fixed at graph-build/compile time (BN running stats,
        # folded scales).  Executors seed these like parameters.
        self.constants: Dict[int, np.ndarray] = {}
        #: The float dtype every kernel computes in: its model's
        #: parameter dtype, recorded by the builder
        #: (:meth:`~repro.graph.builder.GraphBuilder.add_input`).  Rewrites
        #: in place (backward, compile) keep it.
        self.width: np.dtype = np.dtype(DEFAULT_DTYPE)
        self._next_tensor_id = 0
        self._next_op_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_tensor(self, name: str, shape: Tuple[int, ...], kind: str = "activation",
                   dtype_bytes: int = FLOAT_BYTES) -> TensorValue:
        tensor = TensorValue(
            id=self._next_tensor_id, name=name, shape=tuple(int(s) for s in shape),
            kind=kind, dtype_bytes=dtype_bytes,
        )
        self._next_tensor_id += 1
        self.tensors[tensor.id] = tensor
        return tensor

    def add_op(self, name: str, op_type: str, inputs: List[TensorValue],
               outputs: List[TensorValue], attrs: Optional[Dict[str, Any]] = None,
               phase: str = "forward", saved: Optional[List[TensorValue]] = None,
               workspace_bytes: int = 0, forward_of: Optional[int] = None,
               inplace_of: Optional[TensorValue] = None) -> OpNode:
        op = OpNode(
            id=self._next_op_id, name=name, op_type=op_type,
            inputs=[t.id for t in inputs], outputs=[t.id for t in outputs],
            attrs=dict(attrs or {}), phase=phase,
            saved=[t.id for t in (saved or [])],
            workspace_bytes=int(workspace_bytes),
            forward_of=forward_of,
            inplace_of=inplace_of.id if inplace_of is not None else None,
        )
        self._next_op_id += 1
        self.ops.append(op)
        for tensor in inputs:
            tensor.consumers.append(op.id)
        for tensor in outputs:
            if tensor.producer is not None:
                raise ValueError(
                    f"tensor {tensor.name!r} already has producer {tensor.producer}"
                )
            tensor.producer = op.id
        for tensor in (saved or []):
            # A saved tensor is consumed again by this op's backward twin;
            # record the forward op as a consumer so liveness sees the save.
            if op.id not in tensor.consumers:
                tensor.consumers.append(op.id)
        return op

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def op_by_id(self, op_id: int) -> OpNode:
        if op_id < len(self.ops) and self.ops[op_id].id == op_id:
            return self.ops[op_id]
        for op in self.ops:
            if op.id == op_id:
                return op
        raise KeyError(f"graph {self.name!r} has no op with id {op_id}")

    def tensor(self, tensor_id: int) -> TensorValue:
        return self.tensors[tensor_id]

    def op_positions(self) -> Dict[int, int]:
        """Map each op id to its index in the serialized order.

        Op ids and positions coincide for freshly built graphs but diverge
        after transforms that drop ops (e.g. dead-gradient pruning), so
        every positional analysis — liveness, storage, verification, the
        static analyzer — must translate through this map instead of
        treating ids as indices.
        """
        return {op.id: index for index, op in enumerate(self.ops)}

    def op_dependencies(self) -> Dict[int, set]:
        """Op-level dependency DAG of the serialized graph.

        Maps each op id to the set of op ids that must run before it: the
        producers of its input tensors plus, for backward ops, the forward
        op whose saved kernel context they consume (``forward_of``).  Any
        execution order that respects these edges — including concurrent
        execution of ops whose edges are satisfied — computes the same
        values as the serialized order.
        """
        deps: Dict[int, set] = {}
        for op in self.ops:
            current: set = set()
            for tensor_id in op.inputs:
                producer = self.tensors[tensor_id].producer
                if producer is not None and producer != op.id:
                    current.add(producer)
            if op.forward_of is not None:
                current.add(op.forward_of)
            deps[op.id] = current
        return deps

    def forward_ops(self) -> List[OpNode]:
        return [op for op in self.ops if op.phase == "forward"]

    def backward_ops(self) -> List[OpNode]:
        return [op for op in self.ops if op.phase == "backward"]

    def saved_tensors(self) -> List[TensorValue]:
        """All forward tensors kept alive for the backward pass (dedup'd)."""
        seen = set()
        result: List[TensorValue] = []
        for op in self.forward_ops():
            for tensor_id in op.saved:
                if tensor_id not in seen:
                    seen.add(tensor_id)
                    result.append(self.tensors[tensor_id])
        return result

    def parameter_bytes(self) -> int:
        return sum(t.nbytes for t in self.tensors.values() if t.kind == "parameter")

    def validate(self) -> None:
        """Sanity-check the serialization.

        Four properties, all failing loudly at graph-build time:

        - defs precede uses (the serialized order is executable);
        - an op's ``inplace_of``, when set, is one of its inputs;
        - every op type has a registered :class:`~repro.graph.registry.
          OpDef` (raises :class:`NotImplementedError` otherwise — no op
          can reach the executor, cost model, or HMMS undefined);
        - recorded output shapes match the registry's symbolic shape
          inference, for every op type that defines one.
        """
        # Deferred: registry.py imports this module for the OpDef types.
        from .registry import infer_op_shapes, op_def

        position = self.op_positions()
        for op in self.ops:
            definition = op_def(op.op_type)
            if op.inplace_of is not None and op.inplace_of not in op.inputs:
                raise ValueError(
                    f"op {op.name!r} is in place of tensor {op.inplace_of}, "
                    "which is not one of its inputs")
            for tensor_id in op.inputs:
                tensor = self.tensors[tensor_id]
                if tensor.producer is not None:
                    if position[tensor.producer] >= position[op.id]:
                        raise ValueError(
                            f"op {op.name!r} consumes tensor {tensor.name!r} "
                            "before it is produced"
                        )
            if definition.infer_shapes is None:
                continue
            inferred = infer_op_shapes(
                op.op_type, [self.tensors[i].shape for i in op.inputs],
                op.attrs,
            )
            recorded = [self.tensors[i].shape for i in op.outputs]
            if inferred != recorded:
                raise ValueError(
                    f"op {op.name!r} ({op.op_type}): recorded output shapes "
                    f"{recorded} disagree with registry inference {inferred}"
                )

    def __repr__(self) -> str:
        return (
            f"Graph({self.name!r}, ops={len(self.ops)}, "
            f"tensors={len(self.tensors)})"
        )
