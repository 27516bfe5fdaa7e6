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
                            types and on the fused conv types: only fresh
                            builder graphs are differentiated, and fusion
                            retargets the existing twins afterwards
``characterize`` /          :class:`~repro.profile.cost.CostModel` (roofline
``efficiency`` / ``free``   flops + bytes + efficiency class)
``saved``                   :class:`~repro.graph.builder.GraphBuilder` (the
                            keep-alive set) and :func:`_bwd_unary` (what the
                            twin reads); declared only on builder-emitted types
``inplace`` / ``sharing``   the builder's ``inplace_of`` hint,
                            :func:`~repro.hmms.storage.assign_storage`, the
                            executor's overwrite table, ``SCA406``
``stochastic``              the determinism audit and constant folding
``fusions`` /               :mod:`repro.compile.rewrites`
``sibling_fused`` /
``fold``
``abstract_eval``           :mod:`repro.analysis.absint`
==========================  ==================================================

Every op type appearing in a serialized graph — forward and backward —
has exactly one entry in :data:`REGISTRY`; :meth:`Graph.validate` fails
loudly at graph-build time when an op has no registered definition.

Numeric kernels receive ``(executor, op)``.  Forward kernels of fused ops
store their :class:`~repro.tensor.autograd.Function` context via
``executor.save_context`` so the matching backward kernels can reuse it
through ``executor.forward_context`` instead of re-instantiating and
re-running the forward — roughly halving IR-executor step time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.norm import _BatchNormTrain
from ..tensor.ops_nn import (
    AvgPool2d as _AvgPoolFn, Conv2d as _ConvFn, CrossEntropy as _CeFn,
    Dropout as _DropoutFn, MaxPool2d as _MaxPoolFn, conv_output_size,
)
from .ir import Graph, OpNode

__all__ = [
    "OpDef", "FusionRule", "FoldResult", "REGISTRY", "op_def", "has_op",
    "infer_op_shapes",
    "AbstractTensor", "ABS_TOP", "DTYPE_MAX",
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
class FusionRule:
    """A chain fusion declared on the *head* op's :class:`OpDef`.

    ``chain`` names the op types that must follow the head through
    single-consumer intermediate activations; matching replaces the whole
    chain with one ``fused`` op.  ``requires`` (optional) receives
    ``(graph, chain_ops, twins)`` — ``twins`` maps forward op id to its
    backward ops — and vetoes the rewrite when the fused kernel could not
    reproduce the unfused bytes (e.g. conv→BN in training without
    ``recompute``).
    """

    chain: Tuple[str, ...]
    fused: str
    requires: Optional[Callable[..., bool]] = None


@dataclass(frozen=True)
class FoldResult:
    """Replacement spec returned by an :attr:`OpDef.fold` hook.

    ``inputs`` entries are either ``("tensor", tensor_id)`` (keep an
    existing graph tensor) or ``("const", name, array)`` (materialize a
    new compile-time constant).
    """

    op_type: str
    inputs: Tuple[Tuple[Any, ...], ...]
    attrs: Dict[str, Any]


# Largest finite magnitude representable at a declared dtype width.
# Tensors declare byte widths, not numpy dtypes, so the abstract
# interpreter checks value ranges against the IEEE float of that width.
DTYPE_MAX: Dict[int, float] = {
    2: 65504.0,                      # float16
    4: 3.4028235e38,                 # float32
    8: 1.7976931348623157e308,       # float64
}

_INF = float("inf")


@dataclass(frozen=True)
class AbstractTensor:
    """Interval-lattice element for one tensor: every runtime element of
    the tensor lies in ``[lo, hi]`` unless ``may_nan``.

    The default instance (``ABS_TOP``) is the lattice top — unbounded,
    NaN-free — used for inputs, parameters, and any op without an
    :attr:`OpDef.abstract_eval` transfer function.  Hazard checks are
    *provable-only*: a finding fires only when finite bounds prove it, so
    TOP never raises a diagnostic.
    """

    lo: float = -_INF
    hi: float = _INF
    may_nan: bool = False

    @property
    def bounded(self) -> bool:
        return self.lo > -_INF and self.hi < _INF


ABS_TOP = AbstractTensor()

# abstract_eval hooks receive ``warn(kind, message)`` with these kinds;
# repro.analysis.absint maps them onto SCA codes (div-zero -> SCA301,
# overflow -> SCA303).
ABS_WARN_KINDS = ("div-zero", "overflow")

AbstractEval = Callable[
    [OpNode, List[AbstractTensor], Callable[[str, str], None]],
    List[AbstractTensor]]


def _abs_nan(ins: List[AbstractTensor]) -> bool:
    return any(v.may_nan for v in ins)


def _iv(lo: float, hi: float, may_nan: bool) -> AbstractTensor:
    # NaN endpoints arise from inf - inf style corner arithmetic; widen
    # them to unbounded rather than propagate a poisoned float.
    if lo != lo:
        lo = -_INF
    if hi != hi:
        hi = _INF
    return AbstractTensor(lo, hi, may_nan)


def _iv_add(a: AbstractTensor, b: AbstractTensor) -> AbstractTensor:
    return _iv(a.lo + b.lo, a.hi + b.hi, a.may_nan or b.may_nan)


def _iv_sub(a: AbstractTensor, b: AbstractTensor) -> AbstractTensor:
    return _iv(a.lo - b.hi, a.hi - b.lo, a.may_nan or b.may_nan)


def _iv_mul(a: AbstractTensor, b: AbstractTensor) -> AbstractTensor:
    nan = a.may_nan or b.may_nan
    if not (a.bounded and b.bounded):
        return AbstractTensor(may_nan=nan)
    corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _iv(min(corners), max(corners), nan)


def _iv_hull(ins: List[AbstractTensor]) -> AbstractTensor:
    return AbstractTensor(min(v.lo for v in ins), max(v.hi for v in ins),
                          _abs_nan(ins))


# --- per-op transfer functions ----------------------------------------
def _abs_same(op: OpNode, ins: List[AbstractTensor],
              warn: Callable[[str, str], None]) -> List[AbstractTensor]:
    """Identity-interval ops (views, splits): outputs keep input 0's
    element hull."""
    a = ins[0]
    return [AbstractTensor(a.lo, a.hi, a.may_nan)] * len(op.outputs)


def _abs_hull(op: OpNode, ins: List[AbstractTensor],
              warn: Callable[[str, str], None]) -> List[AbstractTensor]:
    """Selection ops (concat, max over elements): outputs stay inside
    the joint hull of all inputs."""
    return [_iv_hull(ins)] * len(op.outputs)


def _abs_pool(op: OpNode, ins: List[AbstractTensor],
              warn: Callable[[str, str], None]) -> List[AbstractTensor]:
    """Pooling windows may include zero padding, so the hull widens to
    contain 0."""
    a = ins[0]
    return [_iv(min(a.lo, 0.0), max(a.hi, 0.0), a.may_nan)] * len(op.outputs)


def _abs_relu(op: OpNode, ins: List[AbstractTensor],
              warn: Callable[[str, str], None]) -> List[AbstractTensor]:
    a = ins[0]
    return [AbstractTensor(max(a.lo, 0.0), max(a.hi, 0.0), a.may_nan)]


def _sigmoid_scalar(x: float) -> float:
    if x < -700.0:
        return 0.0
    if x > 700.0:
        return 1.0
    return 1.0 / (1.0 + float(np.exp(-x)))


def _abs_sigmoid(op: OpNode, ins: List[AbstractTensor],
                 warn: Callable[[str, str], None]) -> List[AbstractTensor]:
    a = ins[0]
    return [AbstractTensor(_sigmoid_scalar(a.lo), _sigmoid_scalar(a.hi),
                           a.may_nan)]


def _abs_tanh(op: OpNode, ins: List[AbstractTensor],
              warn: Callable[[str, str], None]) -> List[AbstractTensor]:
    a = ins[0]
    return [AbstractTensor(float(np.tanh(a.lo)), float(np.tanh(a.hi)),
                           a.may_nan)]


def _abs_add(op: OpNode, ins: List[AbstractTensor],
             warn: Callable[[str, str], None]) -> List[AbstractTensor]:
    return [_iv_add(ins[0], ins[1])]


def _abs_batchnorm_eval(op: OpNode, ins: List[AbstractTensor],
                        warn: Callable[[str, str], None],
                        ) -> List[AbstractTensor]:
    # inputs: [x, gamma, beta, running_mean, running_var]; the kernel
    # computes 1/sqrt(var + eps) — provably non-finite when the interval
    # shows var + eps can reach zero or below.
    eps = float(op.attrs.get("eps", 1e-5))
    var = ins[4]
    nan = _abs_nan(ins)
    if var.lo > -_INF and var.lo <= -eps:
        warn("div-zero",
             f"running-var reaches {var.lo:g}: var + eps <= 0 makes "
             "1/sqrt(var + eps) non-finite")
        nan = True
    return [AbstractTensor(may_nan=nan)]


def _abs_bn_affine(op: OpNode, ins: List[AbstractTensor],
                   warn: Callable[[str, str], None]) -> List[AbstractTensor]:
    # inputs: [x, scale, mean, beta] — pure interval arithmetic over the
    # folded affine transform.
    x, scale, mean, beta = ins[0], ins[1], ins[2], ins[3]
    return [_iv_add(_iv_mul(scale, _iv_sub(x, mean)), beta)]


def _abs_dropout(op: OpNode, ins: List[AbstractTensor],
                 warn: Callable[[str, str], None]) -> List[AbstractTensor]:
    p = float(op.attrs.get("p", 0.5))
    x = ins[0]
    if p >= 1.0 or p < 0.0:
        warn("div-zero",
             f"dropout rate p={p:g} is outside [0, 1): the inverted-"
             "dropout scale 1/(1-p) is clamped to 0 and the layer output "
             "is constantly zero")
        return [AbstractTensor(0.0, 0.0, x.may_nan),
                AbstractTensor(0.0, 1.0)]
    scale = 1.0 / (1.0 - p)
    return [_iv_mul(x, AbstractTensor(0.0, scale)),
            AbstractTensor(0.0, 1.0)]


def _abs_cross_entropy(op: OpNode, ins: List[AbstractTensor],
                       warn: Callable[[str, str], None],
                       ) -> List[AbstractTensor]:
    nan = _abs_nan(ins)
    return [AbstractTensor(0.0, _INF, nan),        # loss >= 0
            AbstractTensor(0.0, 1.0, nan)]         # saved softmax


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
    # --- compiler hooks (consumed by repro.compile) -------------------
    # Chain fusions this op can head (conv→bn→relu and friends).
    fusions: Tuple[FusionRule, ...] = ()
    # S-ary batched variant fusing independent same-weight siblings
    # (split-CNN patch convolutions) into one stacked kernel call.
    sibling_fused: Optional[str] = None
    # Partial constant folding: (op, value_of) -> FoldResult | None,
    # where value_of(tensor_id) returns the compile-time array of a
    # constant/parameter input or None if it is not foldable.
    fold: Optional[Callable[[OpNode, Callable[[int], Any]],
                            Optional[FoldResult]]] = None
    # --- analysis hook (consumed by repro.analysis.absint) ------------
    # Interval transfer function: (op, input AbstractTensors, warn) ->
    # output AbstractTensors.  ``warn(kind, message)`` reports a
    # provable numeric hazard (kinds in ABS_WARN_KINDS).  None means the
    # op's outputs are unbounded (lattice top) with NaN-ness inherited
    # from its inputs.
    abstract_eval: Optional[AbstractEval] = None


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
    n, _, h, w = ins[0]
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
    return [_shape_conv2d([ins[i]], attrs)[0]
            for i in range(attrs["siblings"])]


# ----------------------------------------------------------------------
# Numeric kernels (consumed by the executor)
# ----------------------------------------------------------------------
class _ConvBnContext:
    """Composite forward context of a fused conv+BN op: the conv and BN
    backward kernels each unwrap their slot."""

    __slots__ = ("conv", "bn")

    def __init__(self, conv, bn):
        self.conv = conv
        self.bn = bn


def _sibling_conv_ctx(ctx, op):
    """A per-sibling view of a stacked ``conv2d_siblings`` context.

    The stacked forward padded all S inputs batch-concatenated; slicing
    rows ``[i*n:(i+1)*n]`` of the padded input reproduces the standalone
    per-patch context exactly (spatial padding is row-independent).
    """
    sibling = op.attrs.get("sibling")
    if sibling is None:
        return ctx
    count = op.attrs["siblings"]
    rows = ctx.xp.shape[0] // count
    sub = _ConvFn()
    sub.stride, sub.padding = ctx.stride, ctx.padding
    sub.in_shape = (rows,) + tuple(ctx.in_shape[1:])
    sub.xp = ctx.xp[sibling * rows:(sibling + 1) * rows]
    sub.weight = ctx.weight
    sub.has_bias = ctx.has_bias
    return sub


def _conv_backward_ctx(ex, op):
    ctx = ex.forward_context(op)
    if isinstance(ctx, _ConvBnContext):
        ctx = ctx.conv
    return _sibling_conv_ctx(ctx, op)


def _k_conv2d(ex, op):
    fn = _ConvFn()
    bias = ex.input(op, 2) if len(op.inputs) > 2 else None
    out = fn.forward(ex.input(op, 0), ex.input(op, 1), bias,
                     op.attrs["stride"], op.attrs["padding"])
    ex.save_context(op, fn)
    ex.set_output(op, 0, out)


def _k_conv2d_relu(ex, op):
    fn = _ConvFn()
    bias = ex.input(op, 2) if len(op.inputs) > 2 else None
    out = fn.forward(ex.input(op, 0), ex.input(op, 1), bias,
                     op.attrs["stride"], op.attrs["padding"])
    ex.save_context(op, fn)
    ex.set_output(op, 0, np.maximum(out, 0.0, out=out))


def _k_conv2d_bn(ex, op, relu=False):
    # inputs: [x, w(, bias), gamma, beta]
    has_bias = len(op.inputs) == 5
    conv = _ConvFn()
    bias = ex.input(op, 2) if has_bias else None
    out = conv.forward(ex.input(op, 0), ex.input(op, 1), bias,
                       op.attrs["stride"], op.attrs["padding"])
    bn = _BatchNormTrain()
    out = bn.forward(out, ex.input(op, len(op.inputs) - 2),
                     ex.input(op, len(op.inputs) - 1), 1e-5)
    ex.save_context(op, _ConvBnContext(conv, bn))
    if relu:
        np.maximum(out, 0.0, out=out)
    ex.set_output(op, 0, out)


def _k_conv2d_bn_relu(ex, op):
    _k_conv2d_bn(ex, op, relu=True)


def _k_conv2d_siblings(ex, op, relu=False):
    count = op.attrs["siblings"]
    has_bias = len(op.inputs) == count + 2
    stacked = np.concatenate([ex.input(op, i) for i in range(count)], axis=0)
    fn = _ConvFn()
    bias = ex.input(op, count + 1) if has_bias else None
    out = fn.forward(stacked, ex.input(op, count), bias,
                     op.attrs["stride"], op.attrs["padding"])
    ex.save_context(op, fn)
    if relu:
        np.maximum(out, 0.0, out=out)
    rows = out.shape[0] // count
    for i in range(count):
        ex.set_output(op, i, out[i * rows:(i + 1) * rows])


def _k_conv2d_relu_siblings(ex, op):
    _k_conv2d_siblings(ex, op, relu=True)


def _k_conv2d_bwd_data(ex, op):
    ctx = _conv_backward_ctx(ex, op)
    ex.set_output(op, 0, ctx.backward_input(ex.input(op, 0)))


def _k_conv2d_bwd_data_siblings(ex, op):
    count = op.attrs["siblings"]
    ctx = ex.forward_context(op)
    if isinstance(ctx, _ConvBnContext):
        ctx = ctx.conv
    stacked = np.concatenate([ex.input(op, i) for i in range(count)], axis=0)
    grad = ctx.backward_input(stacked)
    rows = grad.shape[0] // count
    for i in range(count):
        ex.set_output(op, i, grad[i * rows:(i + 1) * rows])


def _k_conv2d_bwd_weight(ex, op):
    ctx = _conv_backward_ctx(ex, op)
    grad_out = ex.input(op, 0)
    ex.set_output(op, 0, ctx.backward_weight(grad_out))
    if len(op.outputs) > 1:
        ex.set_output(op, 1, grad_out.sum(axis=(0, 2, 3)))


def _k_linear(ex, op):
    out = ex.input(op, 0) @ ex.input(op, 1).T
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
    out = fn.forward(ex.input(op, 0), ex.input(op, 1), ex.input(op, 2), 1e-5)
    ex.save_context(op, fn)
    ex.set_output(op, 0, out)


def _k_batchnorm_bwd(ex, op):
    ctx = ex.forward_context(op)
    if isinstance(ctx, _ConvBnContext):
        ctx = ctx.bn
    grads = ctx.backward(ex.input(op, 0))
    ex.set_output(op, 0, grads[0])
    ex.set_output(op, 1, grads[1])
    ex.set_output(op, 2, grads[2])


def _k_batchnorm_eval(ex, op):
    # inputs: [x, gamma, beta, running_mean, running_var]; mirrors
    # nn.norm._BatchNormEval operation-for-operation so the IR inference
    # path and model.eval() produce identical bytes.
    eps = op.attrs.get("eps", 1e-5)
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


def _k_relu_bwd(ex, op):
    grad_out, out = ex.input(op, 0), ex.input(op, 1)
    ex.set_output(op, 0, np.where(out > 0, grad_out, 0.0))


def _k_sigmoid(ex, op):
    ex.set_output(op, 0, 1.0 / (1.0 + np.exp(-ex.input(op, 0))))


def _k_sigmoid_bwd(ex, op):
    grad_out, out = ex.input(op, 0), ex.input(op, 1)
    ex.set_output(op, 0, grad_out * out * (1.0 - out))


def _k_tanh(ex, op):
    ex.set_output(op, 0, np.tanh(ex.input(op, 0)))


def _k_tanh_bwd(ex, op):
    grad_out, out = ex.input(op, 0), ex.input(op, 1)
    ex.set_output(op, 0, grad_out * (1.0 - out * out))


def _k_maxpool2d(ex, op):
    fn = _MaxPoolFn()
    out = fn.forward(ex.input(op, 0), op.attrs["kernel"], op.attrs["stride"],
                     op.attrs["padding"], need_argmax=ex.needs_context(op))
    ex.save_context(op, fn)
    ex.set_output(op, 0, out)


def _k_avgpool2d(ex, op):
    fn = _AvgPoolFn()
    out = fn.forward(ex.input(op, 0), op.attrs["kernel"], op.attrs["stride"],
                     op.attrs["padding"])
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
    loss = fn.forward(ex.input(op, 0), np.asarray(ex.targets))
    ex.set_output(op, 0, np.asarray([float(loss)]))
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
                       workspace_bytes: int = 0):
    """Shared rule for ops with (input, weight[, bias]) -> output."""
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
    grad_w = em.new_grad(weight, kind="gradient")
    wgrad_outputs = [grad_w]
    wgrad_inputs = [grad_out, x]
    if len(inputs) == 3:
        wgrad_outputs.append(em.new_grad(inputs[2], kind="gradient"))
    em.graph.add_op(
        f"{op.name}.bwd_weight", weight_type, wgrad_inputs, wgrad_outputs,
        phase="backward", forward_of=op.id, attrs=dict(op.attrs),
        workspace_bytes=workspace_bytes,
    )
    # Weights may be consumed by several forward ops (e.g. one conv
    # split into patches): their gradients accumulate like any other.
    em.contribute(weight, grad_w, op)
    if len(inputs) == 3:
        em.contribute(inputs[2], wgrad_outputs[1], op)
    em.contribute(x, grad_x, op)


def _bwd_linear(em, op):
    _bwd_matmul_family(em, op, "linear_bwd_data", "linear_bwd_weight")


def _bwd_conv2d(em, op):
    _bwd_matmul_family(em, op, "conv2d_bwd_data", "conv2d_bwd_weight",
                       workspace_bytes=op.workspace_bytes)


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


def _char_conv_bn(graph: Graph, op: OpNode):
    flops, bytes_moved = _char_conv(graph, op)
    return flops + 5.0 * graph.tensor(op.outputs[0]).num_elements, bytes_moved


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


def _char_copy(graph: Graph, op: OpNode):
    moved = _tensor_bytes(graph, op.outputs) * 2.0  # read + write
    return 0.0, moved


def _char_small(graph: Graph, op: OpNode):
    return 0.0, float(_io_bytes(graph, op))


def _char_free(graph: Graph, op: OpNode):
    return 0.0, 0.0


# ----------------------------------------------------------------------
# Compiler hooks (consumed by repro.compile)
# ----------------------------------------------------------------------
def _bn_fusion_legal(graph, chain_ops, twins):
    """conv→BN fusion keeps the unfused bytes only when no backward twin
    reads the conv output tensor — i.e. at inference, or in training with
    ``recompute`` BN (whose ``batchnorm_bwd`` consumes just the upstream
    gradient and gamma)."""
    bn = chain_ops[1]
    if any(twins.get(member.id) for member in chain_ops):
        return bool(bn.attrs.get("recompute"))
    return True


def _fold_batchnorm_eval(op, value_of):
    """Fold the inference-constant half of ``batchnorm_eval`` into a
    precomputed per-channel scale: ``bn_affine(x, scale, mean, beta)``.

    ``scale`` is computed with the exact expression ``_k_batchnorm_eval``
    evaluates at run time (same dtype, same operation order), so folding
    is bit-exact.
    """
    gamma = value_of(op.inputs[1])
    var = value_of(op.inputs[4])
    if gamma is None or var is None:
        return None
    eps = op.attrs.get("eps", 1e-5)
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma * inv_std
    return FoldResult(
        "bn_affine",
        (("tensor", op.inputs[0]),
         ("const", f"{op.name}.scale", scale),
         ("tensor", op.inputs[3]),
         ("tensor", op.inputs[2])),
        {"num_features": int(op.attrs.get("num_features", scale.shape[0]))},
    )


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


def has_op(op_type: str) -> bool:
    return op_type in REGISTRY


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
    fusions=(
        FusionRule(("batchnorm", "relu"), "conv2d_bn_relu",
                   requires=_bn_fusion_legal),
        FusionRule(("batchnorm",), "conv2d_bn", requires=_bn_fusion_legal),
        FusionRule(("relu",), "conv2d_relu"),
    ),
    sibling_fused="conv2d_siblings",
))
_register(OpDef(
    "conv2d_relu", kernel=_k_conv2d_relu, characterize=_char_conv,
    infer_shapes=_shape_conv2d, efficiency=EFF_CONV,
    sibling_fused="conv2d_relu_siblings",
))
_register(OpDef(
    "conv2d_bn", kernel=_k_conv2d_bn, characterize=_char_conv_bn,
    infer_shapes=_shape_conv2d, efficiency=EFF_CONV,
))
_register(OpDef(
    "conv2d_bn_relu", kernel=_k_conv2d_bn_relu, characterize=_char_conv_bn,
    infer_shapes=_shape_conv2d, efficiency=EFF_CONV,
))
_register(OpDef(
    "conv2d_siblings", kernel=_k_conv2d_siblings,
    characterize=_char_conv_siblings, infer_shapes=_shape_conv_siblings,
    efficiency=EFF_CONV,
))
_register(OpDef(
    "conv2d_relu_siblings", kernel=_k_conv2d_relu_siblings,
    characterize=_char_conv_siblings, infer_shapes=_shape_conv_siblings,
    efficiency=EFF_CONV,
))
_register(OpDef(
    "batchnorm_eval", kernel=_k_batchnorm_eval,
    characterize=_char_batchnorm, infer_shapes=_shape_same,
    fold=_fold_batchnorm_eval, abstract_eval=_abs_batchnorm_eval,
))
_register(OpDef(
    "bn_affine", kernel=_k_bn_affine,
    characterize=_char_elementwise(3.0, 3.0), infer_shapes=_shape_same,
    abstract_eval=_abs_bn_affine,
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
    inplace=True, saved=(("output", 0),), abstract_eval=_abs_relu,
))
_register(OpDef(
    "sigmoid", kernel=_k_sigmoid, characterize=_char_elementwise(2.0, 4.0),
    infer_shapes=_shape_same, backward=_bwd_unary("sigmoid_bwd"),
    saved=(("output", 0),), abstract_eval=_abs_sigmoid,
))
_register(OpDef(
    "tanh", kernel=_k_tanh, characterize=_char_elementwise(2.0, 4.0),
    infer_shapes=_shape_same, backward=_bwd_unary("tanh_bwd"),
    saved=(("output", 0),), abstract_eval=_abs_tanh,
))
_register(OpDef(
    "maxpool2d", kernel=_k_maxpool2d, characterize=_char_pool,
    infer_shapes=_shape_pool,
    backward=_bwd_unary("maxpool2d_bwd", attrs=True),
    saved=(("input", 0),), abstract_eval=_abs_pool,
))
_register(OpDef(
    "avgpool2d", kernel=_k_avgpool2d, characterize=_char_pool,
    infer_shapes=_shape_pool,
    backward=_bwd_unary("avgpool2d_bwd", attrs=True),
    abstract_eval=_abs_pool,
))
_register(OpDef(
    "gap", kernel=_k_gap, characterize=_char_small,
    infer_shapes=_shape_gap, backward=_bwd_unary("gap_bwd"),
    abstract_eval=_abs_same,
))
_register(OpDef(
    "flatten", kernel=_k_flatten, characterize=_char_free,
    infer_shapes=_shape_flatten, backward=_bwd_unary("flatten_bwd"),
    free=True, sharing=SHARE_ALIAS, inplace=True, abstract_eval=_abs_same,
))
_register(OpDef(
    "add", kernel=_k_add, characterize=_char_elementwise(3.0),
    infer_shapes=_shape_same, backward=_bwd_add, abstract_eval=_abs_add,
))
_register(OpDef(
    "dropout", kernel=_k_dropout, characterize=_char_elementwise(2.0),
    infer_shapes=_shape_dropout, backward=_bwd_unary("dropout_bwd"),
    inplace=True, saved=(("output", 1),), stochastic=True,
    abstract_eval=_abs_dropout,
))
_register(OpDef(
    "split", kernel=_k_split, characterize=_char_copy,
    infer_shapes=_shape_split, backward=_bwd_split,
    abstract_eval=_abs_same,
))
_register(OpDef(
    "concat", kernel=_k_concat, characterize=_char_copy,
    infer_shapes=_shape_concat, backward=_bwd_concat,
    abstract_eval=_abs_hull,
))
_register(OpDef(
    "cross_entropy", kernel=_k_cross_entropy, characterize=_char_small,
    infer_shapes=_shape_cross_entropy, backward=_bwd_cross_entropy,
    saved=(("output", 1),), abstract_eval=_abs_cross_entropy,
))

# Backward op types -----------------------------------------------------
_register(OpDef(
    "conv2d_bwd_data", kernel=_k_conv2d_bwd_data, characterize=_char_conv,
    efficiency=EFF_CONV,
))
_register(OpDef(
    "conv2d_bwd_weight", kernel=_k_conv2d_bwd_weight, characterize=_char_conv,
    efficiency=EFF_CONV,
))
_register(OpDef(
    "conv2d_bwd_data_siblings", kernel=_k_conv2d_bwd_data_siblings,
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
    "sigmoid_bwd", kernel=_k_sigmoid_bwd,
    characterize=_char_elementwise(3.0, 3.0),
))
_register(OpDef(
    "tanh_bwd", kernel=_k_tanh_bwd, characterize=_char_elementwise(3.0, 3.0),
))
_register(OpDef(
    "maxpool2d_bwd", kernel=_k_pool_bwd, characterize=_char_pool_bwd,
))
_register(OpDef(
    "avgpool2d_bwd", kernel=_k_pool_bwd, characterize=_char_pool_bwd,
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
