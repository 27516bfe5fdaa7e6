"""Storage assignment and optimization (paper §4.2, HMMS step 3).

Walks the serialized graph assigning every tensor a TSO while keeping
reference counters, then applies the paper's two optimizations:

1. **In-place ReLU** — a ReLU's output may reuse its input's TSO when the
   reference counter shows no other tensor needs that storage (the ReLU
   input itself is not consumed by any later op and is not saved for
   backward).  The same mechanism covers pure view ops (flatten) and
   in-place-eligible backward ops.
2. **Summation error storage object sharing** — the backward of a
   summation produces error terms that are all equal to the upstream
   error, so all of them (and the upstream error itself) may occupy one
   TSO.

3. **In-place gradient accumulation** — a ``grad_acc`` rewrites the
   running sum: its output takes the TSO of the chain so far (input 0)
   under the reference-counter rule of optimization 1, exactly where the
   executor's overwrite table lets the kernel add into that operand
   (:func:`repro.graph.executor.overwritable_inputs`; ``SCA406`` is the
   independent third derivation).  Where it may not — the chain so far
   is a shared summation error term — the kernel adds into the incoming
   partial, and so does the plan.  Switched with ``inplace_relu``.

Parameters and *final* parameter gradients — the end of each ``grad_acc``
chain, what the optimizer reads — go to the dedicated device parameter
pool (§4.4), which is therefore twice the parameter bytes however many
patches a weight is shared across.  A per-patch partial that a
``grad_acc`` merely folds in is a transient in the device general pool,
live from its producer to that ``grad_acc``; so is everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..graph.ir import Graph, TensorValue
from ..graph.registry import op_def
from .tso import (
    POOL_DEVICE_GENERAL, POOL_DEVICE_PARAM, SHARE_ALIAS, SHARE_NONE,
    SHARE_SUMMATION, TSO,
)

__all__ = ["StorageAssignment", "TSOAccess", "assign_storage"]


@dataclass(frozen=True)
class TSOAccess:
    """One op touching one TSO, as the storage plan sees it."""

    op_id: int
    mode: str          # "r" (reads the bytes) | "w" (writes the bytes)
    tensor_id: int     # the tensor through which the TSO is touched


@dataclass
class StorageAssignment:
    """Mapping from tensors to TSOs plus optimization statistics."""

    tso_of: Dict[int, int] = field(default_factory=dict)      # tensor id -> tso id
    tsos: Dict[int, TSO] = field(default_factory=dict)
    inplace_relu_applied: int = 0
    accumulate_shares_applied: int = 0
    summation_shares_applied: int = 0
    view_shares_applied: int = 0

    def tso_for_tensor(self, tensor_id: int) -> TSO:
        return self.tsos[self.tso_of[tensor_id]]

    def tensors_of(self, tso_id: int) -> list:
        return self.tsos[tso_id].tensor_ids

    def total_bytes(self, pool: str) -> int:
        return sum(t.size for t in self.tsos.values() if t.pool == pool)

    def tso_accesses(self, graph: Graph) -> Dict[int, List[TSOAccess]]:
        """Which ops read/write each TSO's bytes — the storage-level access
        map the concurrency-hazard detector (:mod:`repro.analysis.races`)
        checks against the op dependency DAG.

        Semantics per op:

        - every graph input is a read of its tensor's TSO;
        - a backward op additionally reads the TSOs of its forward op's
          ``saved`` tensors — a conservative superset, since every kernel
          reads only the tensors its op names;
        - every output is a write of its TSO, *except* pure aliases: a
          zero-cost view (``SHARE_ALIAS``) or summation error term
          (``SHARE_SUMMATION``) whose output was actually mapped onto its
          input's TSO moves no bytes.  In-place ops (ReLU) do write —
          sharing the input TSO is exactly what makes them hazardous to
          reorder.
        """
        accesses: Dict[int, List[TSOAccess]] = {}

        def touch(op_id: int, mode: str, tensor_id: int) -> None:
            tso_id = self.tso_of.get(tensor_id)
            if tso_id is None:
                return
            accesses.setdefault(tso_id, []).append(
                TSOAccess(op_id=op_id, mode=mode, tensor_id=tensor_id))

        for op in graph.ops:
            read_ids = list(op.inputs)
            if op.forward_of is not None:
                try:
                    read_ids.extend(graph.op_by_id(op.forward_of).saved)
                except KeyError:
                    pass           # dangling forward_of; Graph.validate rejects it
            seen: set = set()
            for tensor_id in read_ids:
                if tensor_id in seen:
                    continue
                seen.add(tensor_id)
                touch(op.id, "r", tensor_id)
            definition = op_def(op.op_type)
            aliasing = definition.free and definition.sharing in (
                SHARE_ALIAS, SHARE_SUMMATION)
            for tensor_id in op.outputs:
                if (aliasing and op.inputs
                        and self.tso_of.get(tensor_id) is not None
                        and self.tso_of.get(tensor_id)
                        == self.tso_of.get(op.inputs[0])):
                    continue       # pure alias: no bytes move
                touch(op.id, "w", tensor_id)
        return accesses


def _is_last_reader(graph: Graph, tensor: TensorValue, op_id: int) -> bool:
    """True when ``op_id`` is the only remaining consumer of ``tensor`` —
    the reference-counter condition for in-place reuse."""
    return tensor.consumers.count(op_id) == len(tensor.consumers)


def assign_storage(
    graph: Graph,
    inplace_relu: bool = True,
    share_summation: bool = True,
) -> StorageAssignment:
    """Assign a TSO to every tensor in ``graph`` (serialized order)."""
    assignment = StorageAssignment()
    next_tso = 0

    def new_tso(tensor: TensorValue, pool: str) -> TSO:
        nonlocal next_tso
        tso = TSO(id=next_tso, pool=pool, tensor_ids=[tensor.id],
                  size=tensor.nbytes, refcount=1)
        next_tso += 1
        assignment.tsos[tso.id] = tso
        assignment.tso_of[tensor.id] = tso.id
        return tso

    def share(tensor: TensorValue, with_tensor_id: int) -> TSO:
        tso = assignment.tso_for_tensor(with_tensor_id)
        tso.add_tensor(tensor.id, tensor.nbytes)
        assignment.tso_of[tensor.id] = tso.id
        return tso

    # Graph inputs and parameters first (no producer).
    for tensor in graph.tensors.values():
        if tensor.producer is None:
            pool = POOL_DEVICE_PARAM \
                if tensor.kind in ("parameter", "constant") \
                else POOL_DEVICE_GENERAL
            new_tso(tensor, pool)

    # A parameter gradient some ``grad_acc`` folds into the running sum is
    # a partial; the others are final (the structural chain end of
    # ``resolve_final_gradients``, read off the ops in one pass).
    folded = {tensor_id for op in graph.ops if op.op_type == "grad_acc"
              for tensor_id in op.inputs}
    # Outputs of backward ops that write bytes of their own — the only
    # arrays the executor lets a ``grad_acc`` add into: a view or a shared
    # summation error term names bytes other tensors still read.
    allocating = set()
    tensors = graph.tensors

    for op in graph.ops:
        definition = op_def(op.op_type)
        sharing = definition.sharing
        if (folded and op.phase == "backward" and sharing == SHARE_NONE
                and not definition.free):
            allocating.update(op.outputs)
        for output_id in op.outputs:
            tensor = tensors[output_id]
            final = tensor.kind == "gradient" and output_id not in folded
            pool = POOL_DEVICE_PARAM if final else POOL_DEVICE_GENERAL

            # Summation error sharing: every output of a summation's
            # backward aliases the incoming error term.  With the
            # optimization disabled the error terms are materialized as
            # real copies (each in its own TSO) — the in-place path below
            # must not pick them up either.
            if sharing == SHARE_SUMMATION and op.attrs.get("shared_value"):
                if share_summation:
                    share(tensor, op.inputs[0])
                    assignment.summation_shares_applied += 1
                else:
                    new_tso(tensor, pool)
                continue

            # View ops always alias (flatten and friends).
            if sharing == SHARE_ALIAS:
                share(tensor, op.inputs[0])
                assignment.view_shares_applied += 1
                continue

            # In-place ReLU (§4.2 optimization 1) and in-place-eligible
            # backward ops: reuse the input TSO when the refcount allows.
            if inplace_relu and op.inplace_of is not None:
                source = tensors[op.inplace_of]
                if (_is_last_reader(graph, source, op.id)
                        and source.kind not in ("parameter",)):
                    share(tensor, source.id)
                    assignment.inplace_relu_applied += 1
                    continue

            # In-place accumulation: the same rule on the operand the
            # kernel adds into — the chain so far when it may, else the
            # incoming partial.
            if inplace_relu and op.op_type == "grad_acc":
                source_id = next(
                    (t for t in op.inputs if t in allocating
                     and _is_last_reader(graph, tensors[t], op.id)), None)
                if source_id is not None:
                    tso = share(tensor, source_id)
                    if final:          # the chain ends here: static storage
                        tso.pool = POOL_DEVICE_PARAM
                    assignment.accumulate_shares_applied += 1
                    continue

            new_tso(tensor, pool)

    return assignment
