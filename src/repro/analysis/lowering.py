"""Lowering verifier (``SCA4xx``): an independent semantic check of a
:class:`~repro.graph.executor.GraphExecutor`'s lowered tables against
its source graph.

The executor (``repro.compile.CompiledPlan`` is the same class under its
old name) lowers every graph it is given — pipeline-compiled or straight
from the builder — into dense arrays at build time: kernel bindings,
wavefront dependency counts, eager-free refcounts, seed pairs,
forward-twin references, the overwrite table, and a persistent-value
table.  A bug anywhere in that lowering silently breaks byte-identity (or
worse, frees live values), so this pass re-derives every array **from raw
graph structure only** — ``tensor.producer``, ``op.inputs``/``op.saved``, ``forward_of``
links — sharing no derivation code with the executor or with the graph
helpers it calls (:meth:`Graph.op_dependencies`,
:func:`compute_free_plan`, :func:`resolve_final_gradients`).  Same
independence discipline as the PR-2 HMMS plan verifier: two
implementations of the contract, compared array by array.  Since there
is one executor, the check covers every execution, not only compiled
ones.

Codes:

- ``SCA401`` — step list does not bind every source op exactly once, in
  order, to its registry kernel;
- ``SCA402`` — wavefront arrays disagree with the re-derived DAG;
- ``SCA403`` — eager-free refcounts disagree, or a pinned value
  (parameter/constant/run output/final gradient) would be freed;
- ``SCA404`` — seed pairs or forward-twin references disagree with the
  graph;
- ``SCA405`` — the persistent-value table is missing, inconsistent, or
  seeds a non-persistent tensor;
- ``SCA406`` — the overwrite table lets an op write into an input that is
  not provably dead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from ..graph.ir import Graph, OpNode
from ..graph.registry import SHARE_NONE, op_def
from .diagnostics import Diagnostic

if TYPE_CHECKING:                            # no runtime executor import
    from ..compile import CompiledPlan

__all__ = ["verify_lowering"]

# The executor contract: tensors with these names are run outputs.  A
# shared *constant*, not shared code.
_RUN_OUTPUT_NAMES = ("loss", "logits")


def _derive_final_gradients(graph: Graph) -> Optional[Dict[str, int]]:
    """Structural re-derivation of each parameter's total gradient: the
    tail of its ``grad_acc`` chain.  Scans ops directly instead of the
    consumer bookkeeping the executor-side resolver trusts.  Returns
    None when any chain has no unique tail (the plan build would have
    raised)."""
    finals: Dict[str, int] = {}
    for tensor in graph.tensors.values():
        if tensor.kind != "parameter":
            continue
        names = (f"grad({tensor.name})", f"grad_acc({tensor.name})")
        candidates = {t.id for t in graph.tensors.values()
                      if t.kind == "gradient" and t.name in names}
        if not candidates:
            continue
        merged: Set[int] = set()
        for op in graph.ops:
            if op.op_type != "grad_acc":
                continue
            if not any(out in candidates for out in op.outputs):
                continue
            merged.update(t for t in op.inputs if t in candidates)
        tails = candidates - merged
        if len(tails) != 1:
            return None
        finals[tensor.name] = tails.pop()
    return finals


def verify_lowering(plan: "CompiledPlan") -> List[Diagnostic]:
    """Check that ``plan`` preserves its source graph's semantics."""
    graph: Graph = plan.graph
    findings: List[Diagnostic] = []
    ops = graph.ops
    by_id: Dict[int, OpNode] = {op.id: op for op in ops}

    # --- SCA401: kernel bindings cover every op exactly once, in order -
    steps: List[Tuple[object, OpNode]] = list(plan._steps)
    if len(steps) != len(ops):
        findings.append(Diagnostic(
            "SCA401",
            f"step list has {len(steps)} entries for {len(ops)} source "
            "ops"))
    else:
        for index, (kernel, step_op) in enumerate(steps):
            source = ops[index]
            if step_op.id != source.id:
                findings.append(Diagnostic(
                    "SCA401",
                    f"step {index} executes op id {step_op.id}, but the "
                    f"serialized order places op id {source.id} there",
                    op_ids=(source.id,)))
                continue
            expected = op_def(source.op_type).kernel
            if kernel is not expected:
                findings.append(Diagnostic(
                    "SCA401",
                    f"op {source.name!r} ({source.op_type}) is bound to "
                    "a kernel that is not the registry kernel for its op "
                    "type",
                    op_ids=(source.id,)))

    # --- independent dependency DAG -----------------------------------
    deps: Dict[int, Set[int]] = {}
    for op in ops:
        direct: Set[int] = set()
        for tensor_id in op.inputs:
            tensor = graph.tensors.get(tensor_id)
            if tensor is None or tensor.producer is None:
                continue
            if tensor.producer != op.id and tensor.producer in by_id:
                direct.add(tensor.producer)
        if op.forward_of is not None and op.forward_of in by_id:
            direct.add(op.forward_of)
        deps[op.id] = direct

    # --- SCA402: wavefront arrays -------------------------------------
    for op in ops:
        want = deps[op.id]
        got = plan._remaining_template[op.id]
        if got != len(want):
            findings.append(Diagnostic(
                "SCA402",
                f"op {op.name!r} lowers to {got} remaining dependencies; "
                f"the graph shows {len(want)}",
                op_ids=(op.id,)))
    derived_dependents: Dict[int, Set[int]] = {op.id: set() for op in ops}
    for op_id, direct in deps.items():
        for dep in direct:
            derived_dependents[dep].add(op_id)
    for op in ops:
        lowered = tuple(plan._dependents[op.id])
        want = derived_dependents[op.id]
        if set(lowered) != want or len(lowered) != len(want):
            findings.append(Diagnostic(
                "SCA402",
                f"op {op.name!r} lowers dependents {sorted(lowered)}; "
                f"the graph shows {sorted(want)}",
                op_ids=(op.id,)))
    initial = {op.id for op in plan._initial}
    want_initial = {op.id for op in ops if not deps[op.id]}
    if initial != want_initial:
        findings.append(Diagnostic(
            "SCA402",
            f"initial ready set {sorted(initial)} != ops with no "
            f"dependencies {sorted(want_initial)}"))

    # --- independent pinned set + refcounts ---------------------------
    persistent = {t.id for t in graph.tensors.values()
                  if t.kind in ("parameter", "constant")}
    run_outputs = {t.name: t.id for t in graph.tensors.values()
                   if t.name in _RUN_OUTPUT_NAMES}
    finals = _derive_final_gradients(graph)
    if finals is None:
        findings.append(Diagnostic(
            "SCA403",
            "a gradient accumulation chain has no unique tail; the "
            "pinned set cannot be derived"))
        finals = {}
    if dict(plan._outputs_by_name) != run_outputs:
        findings.append(Diagnostic(
            "SCA403",
            f"run-output table {dict(plan._outputs_by_name)} != tensors "
            f"named loss/logits {run_outputs}"))
    if dict(plan._final_grads) != finals:
        findings.append(Diagnostic(
            "SCA403",
            f"final-gradient table {dict(plan._final_grads)} != the "
            f"re-derived grad_acc chain tails {finals}"))
    pinned = persistent | set(run_outputs.values()) | set(finals.values())

    consumers: Dict[int, Set[int]] = {}
    for op in ops:
        for tensor_id in tuple(op.inputs) + tuple(op.saved):
            consumers.setdefault(tensor_id, set()).add(op.id)

    # --- SCA403: eager-free refcounts ---------------------------------
    num_tensors = len(plan._counts_template)
    want_counts: Dict[int, int] = {
        tensor_id: len(op_set) for tensor_id, op_set in consumers.items()
        if tensor_id not in pinned and tensor_id in graph.tensors
    }
    for tensor_id in range(num_tensors):
        want = want_counts.get(tensor_id, 0)
        got = plan._counts_template[tensor_id]
        if got != want:
            name = getattr(graph.tensors.get(tensor_id), "name", "?")
            kind = ("pinned value would be freed" if tensor_id in pinned
                    and got else "refcount mismatch")
            findings.append(Diagnostic(
                "SCA403",
                f"{kind} for tensor {name!r}: lowered refcount {got}, "
                f"derived {want}",
                tensor_id=tensor_id))
    for op in ops:
        lowered_consumed = tuple(plan._consumed[op.id])
        want_set = {tensor_id
                    for tensor_id in tuple(op.inputs) + tuple(op.saved)
                    if tensor_id in want_counts}
        if (set(lowered_consumed) != want_set
                or len(lowered_consumed) != len(want_set)):
            findings.append(Diagnostic(
                "SCA403",
                f"op {op.name!r} decrements tensors "
                f"{sorted(lowered_consumed)}; the graph shows it consumes "
                f"{sorted(want_set)}",
                op_ids=(op.id,)))

    # --- SCA406: overwrite table --------------------------------------
    # Only-if: a missing permission costs an allocation, a wrong one
    # corrupts a value some other reader still needs.
    for op in ops:
        for tensor_id in plan._overwrite[op.id]:
            tensor = graph.tensors.get(tensor_id)
            producer = by_id.get(getattr(tensor, "producer", None))
            if tensor_id in pinned:
                reason = "is pinned (a run result or persistent value)"
            elif consumers.get(tensor_id) != {op.id} \
                    or tensor_id not in op.inputs:
                reason = (f"is not read by this op alone (consumers "
                          f"{sorted(consumers.get(tensor_id, ()))})")
            elif producer is None or producer.phase != "backward":
                reason = ("is a graph input or forward value, which may "
                          "be a view of a value later ops read")
            elif (op_def(producer.op_type).free
                  or op_def(producer.op_type).sharing != SHARE_NONE):
                reason = (f"is produced by aliasing op "
                          f"{producer.name!r} ({producer.op_type})")
            else:
                continue
            findings.append(Diagnostic(
                "SCA406",
                f"op {op.name!r} may overwrite tensor "
                f"{getattr(tensor, 'name', '?')!r}, which {reason}",
                op_ids=(op.id,), tensor_id=tensor_id))

    # --- SCA404: seeds, twin references -------------------------------
    for op in ops:
        want_seed = (plan.dropout_seed, op.attrs.get("seed", op.id))
        if plan._seeds[op.id] != want_seed:
            findings.append(Diagnostic(
                "SCA404",
                f"op {op.name!r} lowers seed pair {plan._seeds[op.id]}; "
                f"the graph and plan seed give {want_seed}",
                op_ids=(op.id,)))
        fwd = plan._fwd[op.id]
        if op.forward_of is None:
            if fwd is not None:
                findings.append(Diagnostic(
                    "SCA404",
                    f"op {op.name!r} has no forward_of link but lowers a "
                    f"forward reference to op id {fwd.id}",
                    op_ids=(op.id,)))
        else:
            target = by_id.get(op.forward_of)
            if fwd is None or target is None or fwd.id != op.forward_of:
                lowered_id = None if fwd is None else fwd.id
                findings.append(Diagnostic(
                    "SCA404",
                    f"backward op {op.name!r} targets forward op id "
                    f"{op.forward_of} but lowers a reference to "
                    f"{lowered_id} — twin not retargeted",
                    op_ids=(op.id,)))
    # --- SCA405: persistent-value table -------------------------------
    for tensor in graph.tensors.values():
        value = (plan._base_values[tensor.id]
                 if tensor.id < len(plan._base_values) else None)
        if tensor.id in persistent:
            if value is None:
                findings.append(Diagnostic(
                    "SCA405",
                    f"persistent tensor {tensor.name!r} ({tensor.kind}) "
                    "has no seeded value in the plan",
                    tensor_id=tensor.id))
                continue
            if tuple(np.shape(value)) != tensor.shape:
                findings.append(Diagnostic(
                    "SCA405",
                    f"persistent tensor {tensor.name!r} seeds an array "
                    f"of shape {tuple(np.shape(value))}; the tensor "
                    f"declares {tensor.shape}",
                    tensor_id=tensor.id))
            if tensor.kind == "constant" and not np.isfinite(value).all():
                findings.append(Diagnostic(
                    "SCA405",
                    f"constant {tensor.name!r} seeds non-finite values "
                    "into the plan",
                    tensor_id=tensor.id))
        elif value is not None:
            findings.append(Diagnostic(
                "SCA405",
                f"non-persistent tensor {tensor.name!r} ({tensor.kind}) "
                "is seeded at build time as if it were persistent",
                tensor_id=tensor.id))

    return findings
