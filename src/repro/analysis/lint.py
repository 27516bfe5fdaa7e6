"""Graph lint: structural and shape re-checking over the serialized IR.

The lint pass re-derives everything it can from first principles — the
registry's symbolic shape inference, the producer/consumer bookkeeping,
the forward/backward pairing — and reports divergence as ``SCA0xx``
diagnostics instead of raising, so one run surfaces every problem at
once.  It overlaps :meth:`repro.graph.ir.Graph.validate` deliberately:
``validate`` fails fast at build time; the linter diagnoses graphs that
arrived from transforms, serialization, or hostile mutation.

It also reads the constant values and op attributes the kernels trust
without checking (``SCA301``, ``SCA304``).  Each of those checks keeps
its place only by a mutation that ``Graph.validate``,
:func:`~repro.analysis.verify_lowering` and a full run all let through;
their docstrings name it.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from ..graph.executor import OUTPUT_NAMES
from ..graph.ir import Graph, OpNode
from ..graph.registry import BN_EPS, infer_op_shapes, op_def
from .diagnostics import Diagnostic

__all__ = ["lint_graph"]

#: Tensor kinds whose values are results even with no consumer op.
_RESULT_KINDS = ("gradient", "saved_stat")

#: Declared byte widths of float16/32/64.  A 1-byte tensor is a boolean
#: mask (dropout keep masks), and mixing one with float data is how
#: masking works.
_FLOAT_WIDTHS = (2, 4, 8)


def _op_label(op: OpNode) -> str:
    return f"{op.name!r} ({op.op_type})"


def _division_hazards(graph: Graph) -> List[Diagnostic]:
    """SCA301: a ``batchnorm_eval`` whose running-var constant reaches
    ``-eps`` or below, and a ``dropout`` whose rate ``p`` is outside
    ``[0, 1)``.

    Unique catches: on an uncompiled eval-BN graph a running-var of -1
    passes ``Graph.validate``, ``verify_lowering`` and ``run``, and the
    logits come back NaN; a dropout ``p=1`` zeroes its layer and
    ``p=-0.5`` scales it by 0.67, and ``run`` completes silently.
    """
    findings: List[Diagnostic] = []
    for op in graph.ops:
        if op.op_type == "batchnorm_eval" and len(op.inputs) == 5:
            var_id = op.inputs[4]
            value = graph.constants.get(var_id)
            eps = float(op.attrs.get("eps", BN_EPS))
            if value is not None and (np.asarray(value) <= -eps).any():
                findings.append(Diagnostic(
                    "SCA301",
                    f"op {_op_label(op)}: running-var constant reaches "
                    f"{float(np.nanmin(value)):g}: var + eps <= 0 makes "
                    "1/sqrt(var + eps) non-finite",
                    op_ids=(op.id,), tensor_id=var_id))
        elif op.op_type == "dropout":
            p = float(op.attrs.get("p", 0.5))
            if not 0.0 <= p < 1.0:
                findings.append(Diagnostic(
                    "SCA301",
                    f"op {_op_label(op)}: dropout rate p={p:g} is outside "
                    "[0, 1): the inverted-dropout scale 1/(1-p) zeroes or "
                    "distorts the layer output",
                    op_ids=(op.id,)))
    return findings


def _dtype_mismatches(graph: Graph) -> List[Diagnostic]:
    """SCA304: a constant stored as a non-float array or at an itemsize
    other than its declared ``dtype_bytes``, and an op whose tensors
    declare more than one float width.

    Unique catches: an int32 running-mean constant, a float64 one
    declared 4 bytes wide, and a relu whose 4-byte input feeds an
    8-byte output each pass ``Graph.validate``, ``verify_lowering`` and
    ``run`` with finite results.
    """
    findings: List[Diagnostic] = []
    for tensor in graph.tensors.values():
        value = graph.constants.get(tensor.id)
        if tensor.kind != "constant" or value is None:
            continue
        dtype = np.asarray(value).dtype
        if dtype.kind != "f":
            findings.append(Diagnostic(
                "SCA304",
                f"constant {tensor.name!r} has non-float array dtype "
                f"{dtype}; the float kernels would reject or silently "
                "coerce it",
                tensor_id=tensor.id))
        elif dtype.itemsize != tensor.dtype_bytes:
            findings.append(Diagnostic(
                "SCA304",
                f"constant {tensor.name!r} declares dtype_bytes="
                f"{tensor.dtype_bytes} but stores {dtype} "
                f"({dtype.itemsize} bytes) — memory accounting disagrees "
                "with the actual value",
                tensor_id=tensor.id))
    for op in graph.ops:
        widths: Dict[int, str] = {}
        for tensor_id in tuple(op.inputs) + tuple(op.outputs):
            tensor = graph.tensors.get(tensor_id)
            if tensor is not None and tensor.dtype_bytes in _FLOAT_WIDTHS:
                widths.setdefault(tensor.dtype_bytes, tensor.name)
        if len(widths) > 1:
            detail = ", ".join(f"{name!r}={width}B"
                               for width, name in sorted(widths.items()))
            findings.append(Diagnostic(
                "SCA304",
                f"op {_op_label(op)} mixes declared dtype widths: {detail}",
                op_ids=(op.id,)))
    return findings


def lint_graph(graph: Graph, *, inference: bool = False) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    position = graph.op_positions()
    op_ids = set(position)

    # SCA007 — serialization integrity: unknown tensors, use before def.
    broken_ops: Set[int] = set()
    for op in graph.ops:
        for tensor_id in list(op.inputs) + list(op.outputs) + list(op.saved):
            if tensor_id not in graph.tensors:
                findings.append(Diagnostic(
                    "SCA007",
                    f"op {_op_label(op)} references tensor {tensor_id}, "
                    "which is not in the graph",
                    op_ids=(op.id,), tensor_id=tensor_id))
                broken_ops.add(op.id)
        for tensor_id in op.inputs:
            tensor = graph.tensors.get(tensor_id)
            if tensor is None or tensor.producer is None:
                continue
            producer_pos = position.get(tensor.producer)
            if producer_pos is None:
                findings.append(Diagnostic(
                    "SCA007",
                    f"tensor {tensor.name!r} records producer "
                    f"{tensor.producer}, which is not in the graph",
                    op_ids=(op.id,), tensor_id=tensor_id))
                broken_ops.add(op.id)
            elif producer_pos > position[op.id]:
                findings.append(Diagnostic(
                    "SCA007",
                    f"op {_op_label(op)} consumes tensor {tensor.name!r} "
                    f"before it is produced (producer at position "
                    f"{producer_pos}, consumer at {position[op.id]})",
                    op_ids=(op.id, tensor.producer), tensor_id=tensor_id))
                broken_ops.add(op.id)

    # SCA001 — registry shape re-inference vs recorded shapes.
    for op in graph.ops:
        if op.id in broken_ops:
            continue
        definition = op_def(op.op_type)
        if definition.infer_shapes is None:
            continue
        try:
            inferred = infer_op_shapes(
                op.op_type, [graph.tensors[i].shape for i in op.inputs],
                op.attrs)
        except Exception as exc:
            findings.append(Diagnostic(
                "SCA001",
                f"shape inference failed for op {_op_label(op)}: {exc}",
                op_ids=(op.id,)))
            continue
        recorded = [graph.tensors[i].shape for i in op.outputs]
        if inferred != recorded:
            findings.append(Diagnostic(
                "SCA001",
                f"op {_op_label(op)}: recorded output shapes {recorded} "
                f"disagree with registry inference {inferred}",
                op_ids=(op.id,)))

    # SCA002 — dead ops: nothing downstream ever reads any output.
    for op in graph.ops:
        if op.id in broken_ops:
            continue
        live = False
        for tensor_id in op.outputs:
            tensor = graph.tensors.get(tensor_id)
            if tensor is None:
                continue
            consumers = [c for c in tensor.consumers if c != op.id]
            if (consumers or tensor.name in OUTPUT_NAMES
                    or tensor.kind in _RESULT_KINDS):
                live = True
                break
        if op.outputs and not live:
            findings.append(Diagnostic(
                "SCA002",
                f"dead op {_op_label(op)}: no output is consumed and none "
                "is a run output",
                op_ids=(op.id,)))

    # SCA003 — orphan tensors.
    for tensor in graph.tensors.values():
        if (tensor.producer is None and not tensor.consumers
                and tensor.kind != "parameter"):
            findings.append(Diagnostic(
                "SCA003",
                f"tensor {tensor.name!r} ({tensor.kind}) has no producer "
                "and no consumer",
                tensor_id=tensor.id))

    # SCA004 — saved-for-backward with no backward twin.
    has_backward = any(op.phase == "backward" for op in graph.ops)
    if has_backward:
        twinned = {op.forward_of for op in graph.ops
                   if op.forward_of is not None}
        for op in graph.forward_ops():
            if op.saved and op.id not in twinned:
                findings.append(Diagnostic(
                    "SCA004",
                    f"op {_op_label(op)} saves {len(op.saved)} tensor(s) "
                    "for backward, but no backward op references it via "
                    "forward_of",
                    op_ids=(op.id,)))

    # SCA005 — dangling forward_of / inplace_of references.
    for op in graph.ops:
        if op.forward_of is not None:
            if op.forward_of not in op_ids:
                findings.append(Diagnostic(
                    "SCA005",
                    f"op {_op_label(op)} has forward_of={op.forward_of}, "
                    "which is not an op in the graph",
                    op_ids=(op.id,)))
            else:
                target = graph.op_by_id(op.forward_of)
                if target.phase != "forward":
                    findings.append(Diagnostic(
                        "SCA005",
                        f"op {_op_label(op)} has forward_of pointing at "
                        f"{_op_label(target)}, which is not a forward op",
                        op_ids=(op.id, target.id)))
                elif position[target.id] > position[op.id]:
                    findings.append(Diagnostic(
                        "SCA005",
                        f"op {_op_label(op)} is serialized before its "
                        f"forward op {_op_label(target)}",
                        op_ids=(op.id, target.id)))
        if op.inplace_of is not None and op.inplace_of not in graph.tensors:
            findings.append(Diagnostic(
                "SCA005",
                f"op {_op_label(op)} has inplace_of={op.inplace_of}, "
                "which is not a tensor in the graph",
                op_ids=(op.id,), tensor_id=op.inplace_of))

    # SCA006 — inference purity (only when the caller declares intent).
    if inference:
        for op in graph.ops:
            if op.phase == "backward":
                findings.append(Diagnostic(
                    "SCA006",
                    f"inference graph contains backward op {_op_label(op)}",
                    op_ids=(op.id,)))
            if op_def(op.op_type).stochastic:
                findings.append(Diagnostic(
                    "SCA006",
                    f"inference graph contains stochastic op "
                    f"{_op_label(op)} — dropout must be elided at serving "
                    "time",
                    op_ids=(op.id,)))
            if op.saved:
                findings.append(Diagnostic(
                    "SCA006",
                    f"inference graph op {_op_label(op)} marks tensors "
                    "saved for backward",
                    op_ids=(op.id,)))
        for tensor in graph.tensors.values():
            if tensor.kind in ("gradient", "gradient_act"):
                findings.append(Diagnostic(
                    "SCA006",
                    f"inference graph contains {tensor.kind} tensor "
                    f"{tensor.name!r}",
                    tensor_id=tensor.id))
            if tensor.name == "loss":
                findings.append(Diagnostic(
                    "SCA006",
                    "inference graph carries a loss head",
                    tensor_id=tensor.id))

    findings.extend(_division_hazards(graph))
    findings.extend(_dtype_mismatches(graph))
    return findings
