"""Graph lint: what the serialized IR can carry that nothing else rejects.

:meth:`repro.graph.ir.Graph.validate` already enforces the
serialization's invariants (defs before uses, registry shape inference,
in-place targets among the op's inputs, ``forward_of`` twins that are
earlier forward ops), so the lint checks only what that lets through.  Each check keeps its place by a mutation that
``Graph.validate``, :func:`~repro.analysis.verify_lowering` and a full
run all pass; its docstring names it.

:func:`lint_graph` expects a graph that ``Graph.validate`` accepts
(:func:`~repro.analysis.analyze_graph` validates first).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..graph.executor import OUTPUT_NAMES
from ..graph.ir import Graph, OpNode
from ..graph.registry import op_def
from ..nn.norm import BN_EPS
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


def _dead_ops(graph: Graph) -> List[Diagnostic]:
    """SCA002: an op none of whose outputs is consumed or a run output.

    Unique catch: a relu appended on a forward activation with its
    output unread passes ``Graph.validate``, ``verify_lowering`` and
    ``run``, and burns its time and memory on every step.  The zoo's
    dead input-gradient chains were found this way.
    """
    findings: List[Diagnostic] = []
    for op in graph.ops:
        live = any(
            any(c != op.id for c in tensor.consumers)
            or tensor.name in OUTPUT_NAMES or tensor.kind in _RESULT_KINDS
            for tensor in (graph.tensors[i] for i in op.outputs))
        if op.outputs and not live:
            findings.append(Diagnostic(
                "SCA002",
                f"dead op {_op_label(op)}: no output is consumed and none "
                "is a run output",
                op_ids=(op.id,)))
    return findings


def _orphan_tensors(graph: Graph) -> List[Diagnostic]:
    """SCA003: a non-parameter tensor with no producer and no consumer.

    Unique catch: a tensor added to the graph and never wired passes
    ``Graph.validate``, ``verify_lowering`` and ``run``; nothing else
    notices it.
    """
    return [
        Diagnostic(
            "SCA003",
            f"tensor {tensor.name!r} ({tensor.kind}) has no producer "
            "and no consumer",
            tensor_id=tensor.id)
        for tensor in graph.tensors.values()
        if tensor.producer is None and not tensor.consumers
        and tensor.kind != "parameter"]


def _inference_impurity(graph: Graph) -> List[Diagnostic]:
    """SCA006: training-only structure in a graph declared inference.

    Unique catch: a training graph handed over as an inference graph
    passes ``Graph.validate``, ``verify_lowering`` and ``run`` — it
    computes a loss and every gradient — while serving pays for the
    backward pass and any dropout.  Only the caller's declared intent
    tells the two apart.
    """
    findings: List[Diagnostic] = []
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
    return findings


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
    """Every graph-lint finding; ``inference=True`` adds SCA006."""
    findings = _dead_ops(graph) + _orphan_tensors(graph)
    if inference:
        findings.extend(_inference_impurity(graph))
    findings.extend(_division_hazards(graph))
    findings.extend(_dtype_mismatches(graph))
    return findings
