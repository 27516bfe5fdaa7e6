"""Central op registry — one definition per op type.

Before this module existed, every op's semantics were encoded five
separate times: shape inference in :mod:`.builder`, backward expansion in
:mod:`.backward`, numeric execution in :mod:`.executor`, roofline
characterization in :mod:`repro.profile.cost`, and storage-sharing
eligibility in :mod:`repro.hmms.storage`.  Adding an op meant touching
five dispatch tables, and drift between them surfaced only when a test
happened to cross-validate.

:class:`OpDef` collapses the tables into one record per ``op_type``; a
field says only what something reads:

==========================  ==================================================
field                       reader
==========================  ==================================================
``infer_shapes``            :class:`~repro.graph.builder.GraphBuilder` (output
                            tensor shapes) and :meth:`Graph.validate`
``kernel``                  :class:`~repro.graph.executor.GraphExecutor`
``backward``                :func:`~repro.graph.backward.append_backward_graph`
                            and the checkpointing pass.  ``None`` on backward
                            types and on the fused conv types: only per-patch
                            graphs are differentiated, and fusion or stacking
                            retargets the existing twins afterwards
``characterize`` /          :class:`~repro.profile.cost.CostModel` (roofline
``efficiency`` / ``free``   flops + bytes + efficiency class)
``saved``                   :class:`~repro.graph.builder.GraphBuilder` (the
                            keep-alive set) and :func:`_bwd_unary` (what the
                            twin reads); declared only on builder-emitted types
``inplace`` / ``sharing``   the builder's ``inplace_of`` hint,
                            :func:`~repro.hmms.storage.assign_storage`, the
                            executor's overwrite table, ``SCA406``
``stochastic``              the determinism audit and the inference-purity lint
``sibling_fused``           :func:`.siblings.stack_layers` (the builder's
                            one-GEMM layers and the compiler's sibling fusion)
==========================  ==================================================

Every op type appearing in a serialized graph — forward and backward —
has exactly one entry in :data:`REGISTRY`; :meth:`Graph.validate` fails
loudly at graph-build time when an op has no registered definition.

Numeric kernels receive ``(executor, op)``.  The batch-norm and max-pool
forward kernels store their :class:`~repro.tensor.autograd.Function`
context via ``executor.save_context`` so the matching backward kernels
can reuse it through ``executor.forward_context`` instead of
re-instantiating and re-running the forward.  Conv kernels save nothing:
each reads only the tensors and attrs its op names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.norm import BN_EPS, _BatchNormTrain
from ..tensor.ops_basic import blocked_dot
from ..tensor.ops_nn import (
    CrossEntropy as _CeFn, Dropout as _DropoutFn, MaxPool2d as _MaxPoolFn,
    conv2d_forward, conv2d_input_grad, conv_output_size, shared_weight_grad,
)
from .ir import Graph, OpNode

__all__ = [
    "OpDef", "REGISTRY", "op_def",
    "infer_op_shapes",
    "EFF_CONV", "EFF_GEMM", "EFF_MEMORY",
    "SHARE_NONE", "SHARE_ALIAS", "SHARE_SUMMATION",
]

Shape = Tuple[int, ...]

# Compute-efficiency classes resolved against a DeviceSpec by the cost
# model (GEMM-shaped ops reach a higher fraction of peak than generic
# convolutions; everything else sits on the bandwidth roof).
EFF_CONV = "conv"
EFF_GEMM = "gemm"
EFF_MEMORY = "memory"

# TSO-sharing classes consumed by the HMMS storage assignment (§4.2).
SHARE_NONE = "none"            # ordinary tensor, own TSO
SHARE_ALIAS = "alias"          # pure view: output always aliases input 0
SHARE_SUMMATION = "summation"  # summation error terms share the upstream TSO

@dataclass(frozen=True)
class OpDef:
    """Everything the system knows about one ``op_type``."""

    op_type: str
    # Numeric execution: kernel(executor, op) reads/writes executor.values.
    kernel: Callable[[Any, OpNode], None]
    # Roofline characterization: (graph, op) -> (flops, bytes_moved).
    characterize: Callable[[Graph, OpNode], Tuple[float, float]]
    # Symbolic shape inference: (input_shapes, attrs) -> output shapes.
    # None for backward op types, whose shapes mirror existing tensors.
    infer_shapes: Optional[
        Callable[[Sequence[Shape], Dict[str, Any]], List[Shape]]] = None
    # Backward-expansion rule: (emitter, op) -> None.  None for op types
    # that never appear in a differentiated forward graph.
    backward: Optional[Callable[[Any, OpNode], None]] = None
    efficiency: str = EFF_MEMORY
    free: bool = False              # zero-cost (views, aliased error terms)
    sharing: str = SHARE_NONE       # TSO-sharing class (HMMS §4.2)
    inplace: bool = False           # output 0 may reuse input 0's TSO
    # Draws random numbers at execution time.  The determinism audit
    # (repro.analysis) requires every stochastic op to carry a unique
    # per-op ``seed`` attribute so any execution order replays the same
    # masks.
    stochastic: bool = False
    # Which tensors the op keeps alive for its backward twin, as
    # ("input"|"output", index) references — the paper's per-layer
    # "generated data" (Figure 1).
    saved: Tuple[Tuple[str, int], ...] = ()
    # S-ary batched variant that stacks a split layer's patch convs into
    # one kernel call (graph/siblings.py).
    sibling_fused: Optional[str] = None


# ----------------------------------------------------------------------
# Symbolic shape inference (consumed by the builder and Graph.validate)
# ----------------------------------------------------------------------
def _window_hw(in_hw: Shape, kernel, stride, padding) -> Tuple[int, int]:
    (pt, pb), (pl, pr) = padding
    out_hw = (conv_output_size(in_hw[0], kernel[0], stride[0], pt, pb),
              conv_output_size(in_hw[1], kernel[1], stride[1], pl, pr))
    if min(out_hw) < 1:
        raise ValueError(
            f"a {kernel[0]}x{kernel[1]} window (stride {tuple(stride)}, "
            f"padding {padding}) does not fit a {in_hw[0]}x{in_hw[1]} "
            f"input: output would be {out_hw[0]}x{out_hw[1]}")
    return out_hw


def _shape_conv2d(ins, attrs):
    # ins = [x, weight(, bias)]
    n, channels, h, w = ins[0]
    if channels != ins[1][1]:
        raise ValueError(
            f"conv2d input has {channels} channels, its weight "
            f"{tuple(ins[1])} expects {ins[1][1]}")
    ho, wo = _window_hw((h, w), attrs["kernel"], attrs["stride"],
                        attrs["padding"])
    return [(n, attrs["out_channels"], ho, wo)]


def _shape_pool(ins, attrs):
    n, c, h, w = ins[0]
    ho, wo = _window_hw((h, w), attrs["kernel"], attrs["stride"],
                        attrs["padding"])
    return [(n, c, ho, wo)]


def _shape_same(ins, attrs):
    return [ins[0]]


def _shape_dropout(ins, attrs):
    return [ins[0], ins[0]]        # output + keep-mask


def _shape_gap(ins, attrs):
    return [(ins[0][0], ins[0][1], 1, 1)]


def _shape_flatten(ins, attrs):
    start = attrs["start_dim"]
    lead = tuple(ins[0][:start])
    return [lead + (int(np.prod(ins[0][start:])),)]


def _shape_linear(ins, attrs):
    return [(ins[0][0], attrs["out_features"])]


def _split_part_sizes(boundaries, full: int) -> List[int]:
    bounds = list(boundaries) + [full]
    return [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]


def _shape_split(ins, attrs):
    n, c, h, w = ins[0]
    h_sizes = _split_part_sizes(attrs["scheme_h"], h)
    w_sizes = _split_part_sizes(attrs["scheme_w"], w)
    return [(n, c, hs, ws) for hs in h_sizes for ws in w_sizes]


def _shape_concat(ins, attrs):
    grid_h, grid_w = attrs["grid"]
    height = sum(ins[i * grid_w][2] for i in range(grid_h))
    width = sum(ins[j][3] for j in range(grid_w))
    return [(ins[0][0], ins[0][1], height, width)]


def _shape_cross_entropy(ins, attrs):
    return [(1,), ins[0]]          # scalar loss + saved softmax


def _shape_conv_siblings(ins, attrs):
    # ins = [x_0 .. x_{S-1}, weight(, bias)] with identical patch shapes.
    count = attrs["siblings"]
    return [_shape_conv2d([ins[i], ins[count]], attrs)[0]
            for i in range(count)]


# ----------------------------------------------------------------------
# Numeric kernels (consumed by the executor)
# ----------------------------------------------------------------------
def _stacked_input(ex, op, count):
    """``op``'s first ``count`` inputs batch-concatenated (input 0 itself
    when ``count == 1``)."""
    if count == 1:
        return ex.input(op, 0)
    return np.concatenate([ex.input(op, i) for i in range(count)], axis=0)


def _set_stacked(ex, op, stacked):
    """Write batch-concatenated ``stacked`` to ``op``'s outputs in order."""
    for index, part in enumerate(np.split(stacked, len(op.outputs))):
        ex.set_output(op, index, part)


def _k_conv2d(ex, op):
    """``conv2d``, ``conv2d_relu`` and their stacked ``_siblings`` forms:
    inputs ``[x_0 .. x_{S-1}, weight(, bias)]``, outputs ``[y_0 ..
    y_{S-1}]``, the S patches batch-concatenated into one GEMM (every conv
    stage is row-independent).  Nothing is saved: the backward kernels
    read graph tensors."""
    count = len(op.outputs)
    bias = ex.input(op, count + 1) if len(op.inputs) > count + 1 else None
    out = conv2d_forward(_stacked_input(ex, op, count), ex.input(op, count),
                         bias, op.attrs["stride"], op.attrs["padding"])
    if op.op_type.startswith("conv2d_relu"):
        np.maximum(out, 0.0, out=out)
    _set_stacked(ex, op, out)


def _k_conv2d_bwd_data(ex, op):
    """``conv2d_bwd_data`` and its stacked form: inputs ``[grad_0 ..
    grad_{S-1}, weight]``, outputs the S input gradients, whose tensor
    gives the input's shape."""
    count = len(op.outputs)
    grad = _stacked_input(ex, op, count)
    in_shape = (grad.shape[0],) + ex.graph.tensor(op.outputs[0]).shape[1:]
    _set_stacked(ex, op, conv2d_input_grad(
        grad, ex.input(op, count), in_shape, op.attrs["stride"],
        op.attrs["padding"]))


def _k_conv2d_bwd_weight(ex, op):
    """One weight-gradient GEMM over inputs ``[grad_0 .. grad_{S-1}, x_0
    .. x_{S-1}]``: a split layer's ``attrs["paddings"]`` op takes its bias
    gradient from the GEMM's ones row, a per-patch op (``S = 1``,
    ``attrs["padding"]``) sums its one output gradient."""
    one_gemm = "paddings" in op.attrs
    paddings = op.attrs["paddings"] if one_gemm else (op.attrs["padding"],)
    count = len(paddings)
    grads = [ex.input(op, i) for i in range(count)]
    bias = len(op.outputs) > 1
    outputs = shared_weight_grad(
        [ex.input(op, count + i) for i in range(count)], grads, paddings,
        op.attrs["kernel"], op.attrs["stride"], bias and one_gemm)
    if bias and not one_gemm:
        outputs.append(grads[0].sum(axis=(0, 2, 3)))
    for index, grad in enumerate(outputs):
        ex.set_output(op, index, grad)


def _k_linear(ex, op):
    # Eager ``Linear``'s product: one image's logits do not depend on the
    # batch (bucket) it is served in.
    out = blocked_dot(ex.input(op, 0), ex.input(op, 1).T)
    if len(op.inputs) > 2:
        out += ex.input(op, 2)
    ex.set_output(op, 0, out)


def _k_linear_bwd_data(ex, op):
    ex.set_output(op, 0, ex.input(op, 0) @ ex.input(op, 1))


def _k_linear_bwd_weight(ex, op):
    grad_out, x = ex.input(op, 0), ex.input(op, 1)
    ex.set_output(op, 0, grad_out.T @ x)
    if len(op.outputs) > 1:
        ex.set_output(op, 1, grad_out.sum(axis=0))


def _k_batchnorm(ex, op):
    fn = _BatchNormTrain()
    out = fn.forward(ex.input(op, 0), ex.input(op, 1), ex.input(op, 2))
    ex.save_context(op, fn)
    ex.set_output(op, 0, out)


def _k_batchnorm_bwd(ex, op):
    grads = ex.forward_context(op).backward(ex.input(op, 0))
    ex.set_output(op, 0, grads[0])
    ex.set_output(op, 1, grads[1])
    ex.set_output(op, 2, grads[2])


def _k_batchnorm_eval(ex, op):
    # inputs: [x, gamma, beta, running_mean, running_var]; mirrors
    # nn.norm._BatchNormEval operation-for-operation so the IR inference
    # path and model.eval() produce identical bytes.
    eps = op.attrs.get("eps", BN_EPS)
    inv_std = 1.0 / np.sqrt(ex.input(op, 4) + eps)
    scale = ex.input(op, 1) * inv_std
    centered = ex.input(op, 0) - ex.input(op, 3).reshape(1, -1, 1, 1)
    ex.set_output(op, 0, scale.reshape(1, -1, 1, 1) * centered
                  + ex.input(op, 2).reshape(1, -1, 1, 1))


def _k_bn_affine(ex, op):
    # inputs: [x, scale, mean, beta] — the constant-folded batchnorm_eval.
    # ``scale`` was precomputed by the fold with the exact expression the
    # unfolded kernel uses, keeping the rewrite bit-exact.
    scale, mean, beta = ex.input(op, 1), ex.input(op, 2), ex.input(op, 3)
    centered = ex.input(op, 0) - mean.reshape(1, -1, 1, 1)
    ex.set_output(op, 0, scale.reshape(1, -1, 1, 1) * centered
                  + beta.reshape(1, -1, 1, 1))


def _k_relu(ex, op):
    ex.set_output(op, 0, np.maximum(ex.input(op, 0), 0.0))


def _relu_mask(grad_out, out):
    """ReLU's backward: the gradient where the ReLU output is positive."""
    return np.where(out > 0, grad_out, 0.0)


def _k_relu_bwd(ex, op):
    ex.set_output(op, 0, _relu_mask(ex.input(op, 0), ex.input(op, 1)))


def _relu_masked(kernel):
    """The kernel of a backward op the compiler fused with the
    ``relu_bwd`` of each of its outputs: ``kernel`` runs on the
    producer's inputs, then output ``i`` is masked by the ReLU output that
    is trailing input ``i`` — the unfused ops' exact expressions, so the
    bytes are the interpreter's."""
    def fused(ex, op):
        kernel(ex, op)
        first = len(op.inputs) - len(op.outputs)
        for index, tensor_id in enumerate(op.outputs):
            ex.set_output(op, index, _relu_mask(
                ex.values[tensor_id], ex.input(op, first + index)))
    return fused


def _k_maxpool2d(ex, op):
    fn = _MaxPoolFn()
    out = fn.forward(ex.input(op, 0), op.attrs["kernel"], op.attrs["stride"],
                     op.attrs["padding"], need_argmax=ex.needs_context(op))
    ex.save_context(op, fn)
    ex.set_output(op, 0, out)


def _k_pool_bwd(ex, op):
    ex.set_output(op, 0, ex.forward_context(op).backward(ex.input(op, 0))[0])


def _k_gap(ex, op):
    ex.set_output(op, 0, ex.input(op, 0).mean(axis=(2, 3), keepdims=True))


def _k_gap_bwd(ex, op):
    forward = ex.forward_op(op)
    x_shape = ex.graph.tensor(forward.inputs[0]).shape
    scale = 1.0 / (x_shape[2] * x_shape[3])
    ex.set_output(op, 0, np.broadcast_to(ex.input(op, 0) * scale,
                                         x_shape).copy())


def _k_flatten(ex, op):
    shape = ex.graph.tensor(op.outputs[0]).shape
    ex.set_output(op, 0, ex.input(op, 0).reshape(shape))


def _k_add(ex, op):
    ex.set_output(op, 0, ex.input(op, 0) + ex.input(op, 1))


def _k_add_bwd(ex, op):
    grad = ex.input(op, 0)
    ex.set_output(op, 0, grad)
    ex.set_output(op, 1, grad)


def _k_grad_acc(ex, op):
    # Accumulate into whichever operand liveness proves dead (IEEE addition
    # commutes, so either is bit-identical to a fresh ``a + b``).
    a, b = ex.input(op, 0), ex.input(op, 1)
    out = (a if ex.may_overwrite(op, 0)
           else b if ex.may_overwrite(op, 1) else None)
    ex.set_output(op, 0, np.add(a, b, out=out))


def _k_dropout(ex, op):
    fn = _DropoutFn()
    out = fn.forward(ex.input(op, 0), op.attrs["p"], ex.dropout_op_seed(op))
    ex.set_output(op, 0, out)
    ex.set_output(op, 1, fn.keep)


def _k_dropout_bwd(ex, op):
    p = ex.forward_op(op).attrs["p"]
    scale = 1.0 / (1.0 - p) if p < 1.0 else 0.0
    ex.set_output(op, 0, ex.input(op, 0) * ex.input(op, 1) * scale)


def _k_split(ex, op):
    x = ex.input(op, 0)
    h_bounds = list(op.attrs["scheme_h"]) + [x.shape[2]]
    w_bounds = list(op.attrs["scheme_w"]) + [x.shape[3]]
    index = 0
    for i in range(len(h_bounds) - 1):
        for j in range(len(w_bounds) - 1):
            ex.set_output(op, index, np.ascontiguousarray(
                x[:, :, h_bounds[i]:h_bounds[i + 1],
                  w_bounds[j]:w_bounds[j + 1]]))
            index += 1


def _k_split_bwd(ex, op):
    forward = ex.forward_op(op)
    x_shape = ex.graph.tensor(forward.inputs[0]).shape
    h_bounds = list(forward.attrs["scheme_h"]) + [x_shape[2]]
    w_bounds = list(forward.attrs["scheme_w"]) + [x_shape[3]]
    grad = np.zeros(x_shape, dtype=ex.input(op, 0).dtype)
    index = 0
    for i in range(len(h_bounds) - 1):
        for j in range(len(w_bounds) - 1):
            grad[:, :, h_bounds[i]:h_bounds[i + 1],
                 w_bounds[j]:w_bounds[j + 1]] = ex.input(op, index)
            index += 1
    ex.set_output(op, 0, grad)


def _k_concat(ex, op):
    grid_h, grid_w = op.attrs["grid"]
    patches = [ex.input(op, k) for k in range(len(op.inputs))]
    rows = []
    for i in range(grid_h):
        rows.append(np.concatenate(patches[i * grid_w:(i + 1) * grid_w],
                                   axis=3))
    ex.set_output(op, 0, np.concatenate(rows, axis=2))


def _k_concat_bwd(ex, op):
    forward = ex.forward_op(op)
    grid_h, grid_w = forward.attrs["grid"]
    grad = ex.input(op, 0)
    # Patch shapes come from the forward concat's inputs.
    shapes = [ex.graph.tensor(t).shape for t in forward.inputs]
    index = 0
    row_start = 0
    for i in range(grid_h):
        row_height = shapes[i * grid_w][2]
        col_start = 0
        for j in range(grid_w):
            width = shapes[i * grid_w + j][3]
            ex.set_output(op, index, np.ascontiguousarray(
                grad[:, :, row_start:row_start + row_height,
                     col_start:col_start + width]))
            col_start += width
            index += 1
        row_start += row_height


def _k_cross_entropy(ex, op):
    if ex.targets is None:
        raise ValueError("graph contains a loss op but no targets given")
    fn = _CeFn()
    logits = ex.input(op, 0)
    loss = fn.forward(logits, np.asarray(ex.targets))
    ex.set_output(op, 0, np.asarray([loss], dtype=logits.dtype))
    ex.set_output(op, 1, fn.softmax)


def _k_cross_entropy_bwd(ex, op):
    softmax = ex.input(op, 0)
    batch = softmax.shape[0]
    grad = softmax.copy()
    grad[np.arange(batch), np.asarray(ex.targets, dtype=np.int64)] -= 1.0
    grad /= batch
    ex.set_output(op, 0, grad)


# ----------------------------------------------------------------------
# Backward-expansion rules (consumed by append_backward_graph)
# ----------------------------------------------------------------------
def _grad_inplace(op_type: str, grad_out):
    """Resolve a backward op's in-place hint from its registry entry."""
    return grad_out if REGISTRY[op_type].inplace else None


def _bwd_cross_entropy(em, op):
    (logits,), (loss, softmax) = em._io(op)
    grad_logits = em.new_grad(logits)
    em.graph.add_op(
        f"{op.name}.bwd", "cross_entropy_bwd", [softmax], [grad_logits],
        phase="backward", forward_of=op.id,
    )
    em.contribute(logits, grad_logits, op)


def _bwd_matmul_family(em, op, data_type: str, weight_type: str,
                       workspace_bytes: int = 0, patches=()):
    """Shared rule for ops with (input, weight[, bias]) -> output.

    Each op gets its own weight-gradient op, and a weight several ops share
    accumulates its gradient through a ``grad_acc`` chain like any other
    tensor — unless ``patches`` names the split layer's patch convs whose
    weight gradient is one op at the last patch (:func:`_one_gemm_patches`).
    """
    inputs, (out,) = em._io(op)
    x, weight = inputs[0], inputs[1]
    grad_out = em.grad_of(out.id)
    if grad_out is None:
        return
    grad_x = em.new_grad(x)
    em.graph.add_op(
        f"{op.name}.bwd_data", data_type, [grad_out, weight], [grad_x],
        phase="backward", forward_of=op.id, attrs=dict(op.attrs),
        workspace_bytes=workspace_bytes,
    )
    if patches:
        spec = _one_gemm_spec(em, op, patches, grad_out, x)
    else:
        spec = dict(name=f"{op.name}.bwd_weight", inputs=[grad_out, x],
                    attrs=dict(op.attrs), forward_of=op.id,
                    workspace_bytes=workspace_bytes)
    if spec is not None:
        grads = [em.new_grad(tensor, kind="gradient") for tensor in inputs[1:]]
        em.graph.add_op(op_type=weight_type, outputs=grads, phase="backward",
                        **spec)
        for tensor, grad in zip(inputs[1:], grads):
            em.contribute(tensor, grad, op)
    em.contribute(x, grad_x, op)


def _one_gemm_patches(graph: Graph, op: OpNode) -> List[OpNode]:
    """The patch convs sharing ``op``'s weight when one GEMM takes their
    weight gradient, else ``[]``.

    A split conv's S patches share one weight.  One GEMM holds every
    patch's output gradient and input until the last patch's backward; a
    ``grad_acc`` chain holds a weight-sized running sum over the same
    interval.  Where those operands hold no more elements than the weight,
    the GEMM never needs more memory than the chain.  Shapes alone decide.
    The same layers get their forward and ``bwd_data`` stacked once the
    backward expansion is done (:func:`.siblings.stack_layers`).
    """
    weight = graph.tensor(op.inputs[1])
    if len(weight.consumers) < 2:
        return []
    patches = [graph.op_by_id(op_id)
               for op_id in dict.fromkeys(weight.consumers)]
    patches = [patch for patch in patches if patch.phase == "forward"]
    if len(patches) < 2:
        return []
    held = sum(graph.tensor(patch.inputs[0]).num_elements
               + graph.tensor(patch.outputs[0]).num_elements
               for patch in patches)
    return patches if held <= weight.num_elements else []


def _one_gemm_spec(em, op, patches, grad_out, x):
    """Hold patch ``op``'s ``(grad_out, x)``; at the layer's last patch,
    the ``add_op`` arguments of its one weight-gradient op (else ``None``).

    Inputs are ``[grad_0 .. grad_{S-1}, x_0 .. x_{S-1}]`` in forward patch
    order and ``attrs["paddings"]`` each patch's padding.  The op reads
    tensors, not saved contexts, so it has no ``forward_of`` twin link.
    """
    weight_id = op.inputs[1]
    pending = em.pending.setdefault(weight_id, {})
    pending[op.id] = (grad_out, x)
    if len(pending) < len(patches):
        return None
    del em.pending[weight_id]
    operands = [pending[patch.id] for patch in patches]
    attrs = dict(op.attrs)
    del attrs["padding"]
    attrs["paddings"] = tuple(patch.attrs["padding"] for patch in patches)
    return dict(
        name=f"{op.name}(x{len(patches)}).bwd_weight",
        inputs=[grad for grad, _ in operands] + [value for _, value in operands],
        attrs=attrs,
        workspace_bytes=sum(patch.workspace_bytes for patch in patches))


def _bwd_linear(em, op):
    _bwd_matmul_family(em, op, "linear_bwd_data", "linear_bwd_weight")


def _bwd_conv2d(em, op):
    weight_id = op.inputs[1]
    if weight_id not in em.one_gemm:
        em.one_gemm[weight_id] = _one_gemm_patches(em.graph, op)
    _bwd_matmul_family(em, op, "conv2d_bwd_data", "conv2d_bwd_weight",
                       workspace_bytes=op.workspace_bytes,
                       patches=em.one_gemm[weight_id])


def _bwd_batchnorm(em, op):
    (x, weight, bias), (out,) = em._io(op)
    grad_out = em.grad_of(out.id)
    if grad_out is None:
        return
    grad_x = em.new_grad(x)
    grad_w = em.new_grad(weight, kind="gradient")
    grad_b = em.new_grad(bias, kind="gradient")
    recompute = bool(op.attrs.get("recompute"))
    bwd_inputs = [grad_out, weight] if recompute else [grad_out, x, weight]
    em.graph.add_op(
        f"{op.name}.bwd", "batchnorm_bwd", bwd_inputs, [grad_x, grad_w, grad_b],
        phase="backward", forward_of=op.id,
        attrs={"recompute": recompute},
    )
    em.contribute(weight, grad_w, op)
    em.contribute(bias, grad_b, op)
    em.contribute(x, grad_x, op)


def _bwd_unary(twin: str, attrs: bool = False):
    """Rule for one-input ops: ``twin(grad_out, *saved) -> grad_x``.  The
    twin reads exactly the forward tensors the op's ``saved`` declares —
    relu's output, max-pool's input, dropout's mask, nothing for gap —
    and ``attrs`` copies the forward op's attrs onto it."""
    def rule(em, op):
        inputs, outputs = em._io(op)
        grad_out = em.grad_of(outputs[0].id)
        if grad_out is None:
            return
        grad_x = em.new_grad(inputs[0])
        reads = [(inputs if source == "input" else outputs)[index]
                 for source, index in REGISTRY[op.op_type].saved]
        em.graph.add_op(
            f"{op.name}.bwd", twin, [grad_out] + reads, [grad_x],
            phase="backward", forward_of=op.id,
            attrs=dict(op.attrs) if attrs else None,
            inplace_of=_grad_inplace(twin, grad_out),
        )
        em.contribute(inputs[0], grad_x, op)
    return rule


def _bwd_add(em, op):
    (a, b), (out,) = em._io(op)
    grad_out = em.grad_of(out.id)
    if grad_out is None:
        return
    grad_a = em.new_grad(a)
    grad_b = em.new_grad(b)
    em.graph.add_op(
        f"{op.name}.bwd", "add_bwd", [grad_out], [grad_a, grad_b],
        phase="backward", forward_of=op.id,
        attrs={"shared_value": True},
        inplace_of=_grad_inplace("add_bwd", grad_out),
    )
    em.contribute(a, grad_a, op)
    em.contribute(b, grad_b, op)


def _bwd_split(em, op):
    (x,), patches = em._io(op)
    patch_grads = []
    for patch in patches:
        grad = em.grad_of(patch.id)
        if grad is None:
            return
        patch_grads.append(grad)
    grad_x = em.new_grad(x)
    em.graph.add_op(
        f"{op.name}.bwd", "split_bwd", patch_grads, [grad_x],
        phase="backward", forward_of=op.id, attrs=dict(op.attrs),
    )
    em.contribute(x, grad_x, op)


def _bwd_concat(em, op):
    inputs, (out,) = em._io(op)
    grad_out = em.grad_of(out.id)
    if grad_out is None:
        return
    grads = [em.new_grad(tensor) for tensor in inputs]
    em.graph.add_op(
        f"{op.name}.bwd", "concat_bwd", [grad_out], grads,
        phase="backward", forward_of=op.id, attrs=dict(op.attrs),
    )
    for tensor, grad in zip(inputs, grads):
        em.contribute(tensor, grad, op)


# ----------------------------------------------------------------------
# Roofline characterization (consumed by CostModel)
# ----------------------------------------------------------------------
def _tensor_bytes(graph: Graph, tensor_ids) -> int:
    return sum(graph.tensor(t).nbytes for t in tensor_ids)


def _io_bytes(graph: Graph, op: OpNode) -> int:
    return _tensor_bytes(graph, op.inputs) + _tensor_bytes(graph, op.outputs)


def _conv_shapes(graph: Graph, op: OpNode):
    if op.phase == "forward":
        out = graph.tensor(op.outputs[0])
        n, k, ho, wo = out.shape
    else:
        # backward ops: output spatial is the forward output's spatial, which
        # for bwd_data is the *input* grad shape's counterpart; use the
        # gradient tensor (same shape as forward output).
        grad_out = graph.tensor(op.inputs[0])
        n, k, ho, wo = grad_out.shape
    c = op.attrs["in_channels"]
    kh, kw = op.attrs["kernel"]
    return n, c, k, kh, kw, ho, wo


def _char_conv(graph: Graph, op: OpNode):
    n, c, k, kh, kw, ho, wo = _conv_shapes(graph, op)
    flops = 2.0 * n * k * c * kh * kw * ho * wo
    return flops, _io_bytes(graph, op)


def _char_conv_bwd_weight(graph: Graph, op: OpNode):
    # One contraction per output gradient read: a patch's op reads one,
    # a split layer's one GEMM all S (inputs [grad_0 .. grad_{S-1}, x_0 ..]).
    count = len(op.attrs["paddings"]) if "paddings" in op.attrs else 1
    elements = sum(graph.tensor(t).num_elements for t in op.inputs[:count])
    kh, kw = op.attrs["kernel"]
    flops = 2.0 * op.attrs["in_channels"] * kh * kw * elements
    return flops, _io_bytes(graph, op)


def _char_conv_siblings(graph: Graph, op: OpNode):
    # _char_conv reads one sibling's tensor (outputs[0] forward /
    # inputs[0] backward); the stacked op does S of those contractions.
    flops, _ = _char_conv(graph, op)
    return flops * op.attrs["siblings"], float(_io_bytes(graph, op))


def _char_linear(graph: Graph, op: OpNode):
    in_features = op.attrs["in_features"]
    out_features = op.attrs["out_features"]
    batch = graph.tensor(op.inputs[0]).shape[0]
    flops = 2.0 * batch * in_features * out_features
    return flops, _io_bytes(graph, op)


def _char_batchnorm(graph: Graph, op: OpNode):
    size = graph.tensor(op.outputs[0]).nbytes
    # Fused training BN: one read pass (statistics fused with normalize via
    # a second streaming pass is hidden), one write.
    passes = 2.0
    flops = 5.0 * graph.tensor(op.outputs[0]).num_elements
    return flops, passes * size


def _char_batchnorm_bwd(graph: Graph, op: OpNode):
    size = graph.tensor(op.outputs[0]).nbytes
    passes = 3.0
    if op.attrs.get("recompute"):
        passes += 2.0  # re-materialize the normalized input from the output
    flops = 8.0 * graph.tensor(op.outputs[0]).num_elements
    return flops, passes * size


def _char_elementwise(passes: float, flops_per_element: float = 1.0):
    def rule(graph: Graph, op: OpNode):
        size_bytes = graph.tensor(op.outputs[0]).nbytes
        elements = graph.tensor(op.outputs[0]).num_elements
        return flops_per_element * elements, passes * size_bytes
    return rule


def _char_pool(graph: Graph, op: OpNode):
    out = graph.tensor(op.outputs[0])
    kh, kw = op.attrs["kernel"]
    flops = float(out.num_elements * kh * kw)
    bytes_moved = graph.tensor(op.inputs[0]).nbytes + out.nbytes
    return flops, bytes_moved


def _char_pool_bwd(graph: Graph, op: OpNode):
    grad_in = graph.tensor(op.outputs[0])
    return float(grad_in.num_elements), _io_bytes(graph, op)


def _char_relu_masked(producer):
    """A ReLU-masked backward op: the producer's FLOPs plus one per masked
    element, and the bytes of every tensor it reads or writes."""
    def rule(graph: Graph, op: OpNode):
        flops, _ = producer(graph, op)
        masked = sum(graph.tensor(t).num_elements for t in op.outputs)
        return flops + masked, float(_io_bytes(graph, op))
    return rule


def _char_copy(graph: Graph, op: OpNode):
    moved = _tensor_bytes(graph, op.outputs) * 2.0  # read + write
    return 0.0, moved


def _char_small(graph: Graph, op: OpNode):
    return 0.0, float(_io_bytes(graph, op))


def _char_free(graph: Graph, op: OpNode):
    return 0.0, 0.0


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
REGISTRY: Dict[str, OpDef] = {}


def _register(opdef: OpDef) -> None:
    if opdef.op_type in REGISTRY:
        raise ValueError(f"duplicate op definition for {opdef.op_type!r}")
    REGISTRY[opdef.op_type] = opdef


def op_def(op_type: str) -> OpDef:
    """The registered definition for ``op_type``; loud failure if missing."""
    try:
        return REGISTRY[op_type]
    except KeyError:
        raise NotImplementedError(
            f"no registered op definition for op type {op_type!r}"
        ) from None


def infer_op_shapes(op_type: str, input_shapes: Sequence[Shape],
                    attrs: Dict[str, Any]) -> List[Shape]:
    """Symbolic output shapes of ``op_type`` for the given inputs/attrs."""
    definition = op_def(op_type)
    if definition.infer_shapes is None:
        raise NotImplementedError(
            f"op type {op_type!r} has no symbolic shape inference"
        )
    return [tuple(int(s) for s in shape)
            for shape in definition.infer_shapes(input_shapes, attrs)]


# Forward op types ------------------------------------------------------
_register(OpDef(
    "conv2d", kernel=_k_conv2d, characterize=_char_conv,
    infer_shapes=_shape_conv2d, backward=_bwd_conv2d, efficiency=EFF_CONV,
    saved=(("input", 0),),
    sibling_fused="conv2d_siblings",
))
_register(OpDef(
    "conv2d_relu", kernel=_k_conv2d, characterize=_char_conv,
    infer_shapes=_shape_conv2d, efficiency=EFF_CONV,
    sibling_fused="conv2d_relu_siblings",
))
_register(OpDef(
    "conv2d_siblings", kernel=_k_conv2d,
    characterize=_char_conv_siblings, infer_shapes=_shape_conv_siblings,
    efficiency=EFF_CONV,
))
_register(OpDef(
    "conv2d_relu_siblings", kernel=_k_conv2d,
    characterize=_char_conv_siblings, infer_shapes=_shape_conv_siblings,
    efficiency=EFF_CONV,
))
_register(OpDef(
    "batchnorm_eval", kernel=_k_batchnorm_eval,
    characterize=_char_batchnorm, infer_shapes=_shape_same,
))
_register(OpDef(
    "bn_affine", kernel=_k_bn_affine,
    characterize=_char_elementwise(3.0, 3.0), infer_shapes=_shape_same,
))
_register(OpDef(
    "linear", kernel=_k_linear, characterize=_char_linear,
    infer_shapes=_shape_linear, backward=_bwd_linear, efficiency=EFF_GEMM,
    saved=(("input", 0),),
))
_register(OpDef(
    "batchnorm", kernel=_k_batchnorm, characterize=_char_batchnorm,
    infer_shapes=_shape_same, backward=_bwd_batchnorm,
    saved=(("input", 0),),
))
_register(OpDef(
    "relu", kernel=_k_relu, characterize=_char_elementwise(2.0),
    infer_shapes=_shape_same, backward=_bwd_unary("relu_bwd"),
    inplace=True, saved=(("output", 0),),
))
_register(OpDef(
    "maxpool2d", kernel=_k_maxpool2d, characterize=_char_pool,
    infer_shapes=_shape_pool,
    backward=_bwd_unary("maxpool2d_bwd", attrs=True),
    saved=(("input", 0),),
))
_register(OpDef(
    "gap", kernel=_k_gap, characterize=_char_small,
    infer_shapes=_shape_gap, backward=_bwd_unary("gap_bwd"),
))
_register(OpDef(
    "flatten", kernel=_k_flatten, characterize=_char_free,
    infer_shapes=_shape_flatten, backward=_bwd_unary("flatten_bwd"),
    free=True, sharing=SHARE_ALIAS, inplace=True,
))
_register(OpDef(
    "add", kernel=_k_add, characterize=_char_elementwise(3.0),
    infer_shapes=_shape_same, backward=_bwd_add,
))
_register(OpDef(
    "dropout", kernel=_k_dropout, characterize=_char_elementwise(2.0),
    infer_shapes=_shape_dropout, backward=_bwd_unary("dropout_bwd"),
    inplace=True, saved=(("output", 1),), stochastic=True,
))
_register(OpDef(
    "split", kernel=_k_split, characterize=_char_copy,
    infer_shapes=_shape_split, backward=_bwd_split,
))
_register(OpDef(
    "concat", kernel=_k_concat, characterize=_char_copy,
    infer_shapes=_shape_concat, backward=_bwd_concat,
))
_register(OpDef(
    "cross_entropy", kernel=_k_cross_entropy, characterize=_char_small,
    infer_shapes=_shape_cross_entropy, backward=_bwd_cross_entropy,
    saved=(("output", 1),),
))

# Backward op types -----------------------------------------------------
_register(OpDef(
    "conv2d_bwd_data", kernel=_k_conv2d_bwd_data, characterize=_char_conv,
    efficiency=EFF_CONV,
))
_register(OpDef(
    "conv2d_bwd_weight", kernel=_k_conv2d_bwd_weight,
    characterize=_char_conv_bwd_weight,
    efficiency=EFF_CONV,
))
_register(OpDef(
    "conv2d_bwd_data_siblings", kernel=_k_conv2d_bwd_data,
    characterize=_char_conv_siblings, efficiency=EFF_CONV,
))
_register(OpDef(
    "linear_bwd_data", kernel=_k_linear_bwd_data, characterize=_char_linear,
    efficiency=EFF_GEMM,
))
_register(OpDef(
    "linear_bwd_weight", kernel=_k_linear_bwd_weight,
    characterize=_char_linear, efficiency=EFF_GEMM,
))
_register(OpDef(
    "batchnorm_bwd", kernel=_k_batchnorm_bwd, characterize=_char_batchnorm_bwd,
))
_register(OpDef(
    "relu_bwd", kernel=_k_relu_bwd, characterize=_char_elementwise(3.0),
    inplace=True,
))
_register(OpDef(
    "maxpool2d_bwd", kernel=_k_pool_bwd, characterize=_char_pool_bwd,
))
_register(OpDef(
    "gap_bwd", kernel=_k_gap_bwd, characterize=_char_small,
))
_register(OpDef(
    "flatten_bwd", kernel=_k_flatten, characterize=_char_free,
    free=True, sharing=SHARE_ALIAS, inplace=True,
))
_register(OpDef(
    "add_bwd", kernel=_k_add_bwd, characterize=_char_free,
    free=True, sharing=SHARE_SUMMATION, inplace=True,
))
_register(OpDef(
    "grad_acc", kernel=_k_grad_acc, characterize=_char_elementwise(3.0),
))
_register(OpDef(
    "dropout_bwd", kernel=_k_dropout_bwd, characterize=_char_elementwise(3.0),
    inplace=True,
))
_register(OpDef(
    "split_bwd", kernel=_k_split_bwd, characterize=_char_copy,
))
_register(OpDef(
    "concat_bwd", kernel=_k_concat_bwd, characterize=_char_copy,
))
_register(OpDef(
    "cross_entropy_bwd", kernel=_k_cross_entropy_bwd, characterize=_char_small,
))

# Backward op types fused with the relu_bwd of each output (the compiler's
# ReLU backward fusion): inputs are the producer's, then one ReLU output
# per output.
_register(OpDef(
    "maxpool2d_bwd_relu", kernel=_relu_masked(_k_pool_bwd),
    characterize=_char_relu_masked(_char_pool_bwd),
))
_register(OpDef(
    "conv2d_bwd_data_relu", kernel=_relu_masked(_k_conv2d_bwd_data),
    characterize=_char_relu_masked(_char_conv), efficiency=EFF_CONV,
))
_register(OpDef(
    "conv2d_bwd_data_relu_siblings", kernel=_relu_masked(_k_conv2d_bwd_data),
    characterize=_char_relu_masked(_char_conv_siblings), efficiency=EFF_CONV,
))
