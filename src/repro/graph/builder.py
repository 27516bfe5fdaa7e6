"""Forward-graph construction from ``repro.nn`` models (§4.1 steps 1-2).

The builder walks a :class:`~repro.models.base.ConvClassifier` symbolically
— no numerics, just shape propagation — and emits a serialized
:class:`~repro.graph.ir.Graph`.  Split regions expand into explicit
``split`` -> per-patch chains -> ``concat`` structure, which is what gives
the HMMS the "memory bottleneck broken into smaller, spread-out pieces"
the paper exploits (§2.4).

Per-op semantics come from the central registry
(:mod:`repro.graph.registry`): :meth:`GraphBuilder.add_registered_op`
derives every output shape from the op's symbolic shape inference and its
``saved`` / in-place storage hints from the same :class:`OpDef` the
executor, backward generator, cost model and HMMS consume.  The ``saved``
hints are the paper's per-layer "generated data" (Figure 1); batch-norm
saves its input unless the model is flagged memory-efficient (§6.3,
ref [6]), in which case the input is recomputed in backward
(:func:`_apply_inplace_abn`).

Convolution workspace models cuDNN's algorithm scratch: the im2col buffer
for the full minibatch, capped at ``workspace_cap`` (1 GiB by default);
1x1 kernels need none.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from ..core.region import SplitRegion, get_handler
from ..core.scheme import SplitScheme
from ..models.base import ConvClassifier
from ..models.resnet import ResidualBlock
from ..nn import (
    BatchNorm2d, Conv2d, Dropout, Flatten, GlobalAvgPool2d, Linear, MaxPool2d,
    Module, ReLU, Sequential,
)
from ..nn.norm import BN_EPS
from .ir import Graph, TensorValue
from .registry import infer_op_shapes, op_def

__all__ = ["GraphBuilder", "build_forward_graph", "params_for_builder"]

GIB = 1 << 30

#: ``None`` for a whole tensor, or ``(payload, i, j)`` for patch ``(i, j)``
#: of a split region under the split handler's ``back`` payload.
Patch = Optional[Tuple[Any, int, int]]


class GraphBuilder:
    """Stateful builder: one instance per graph construction."""

    def __init__(self, batch_size: int, workspace_cap: int = GIB,
                 memory_efficient_bn: bool = False,
                 patch_order: str = "depth_first",
                 inference: bool = False) -> None:
        if patch_order not in ("depth_first", "breadth_first"):
            raise ValueError(
                f"patch_order must be 'depth_first' or 'breadth_first', "
                f"got {patch_order!r}"
            )
        self.graph = Graph()
        self.batch_size = batch_size
        self.workspace_cap = workspace_cap
        self.memory_efficient_bn = memory_efficient_bn
        self.patch_order = patch_order
        self.inference = inference
        self._param_cache: dict[int, TensorValue] = {}
        self._const_cache: dict[Any, TensorValue] = {}
        self._name_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _unique(self, base: str) -> str:
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return base if count == 0 else f"{base}#{count}"

    def param(self, module: Module, attribute: str, shape: Tuple[int, ...]) -> TensorValue:
        """Parameter tensor, cached so split patches share one value."""
        key = (id(module), attribute)
        cached = self._param_cache.get(key)
        if cached is not None:
            return cached
        tensor = self.graph.add_tensor(
            self._unique(f"{type(module).__name__.lower()}.{attribute}"),
            shape, kind="parameter",
        )
        self._param_cache[key] = tensor
        return tensor

    def constant(self, module: Module, attribute: str,
                 array: np.ndarray) -> TensorValue:
        """Compile-time constant tensor (BN running stats), cached so
        split patches share one value; stored in ``graph.constants``."""
        key = (id(module), attribute)
        cached = self._const_cache.get(key)
        if cached is not None:
            return cached
        tensor = self.graph.add_tensor(
            self._unique(f"{type(module).__name__.lower()}.{attribute}"),
            array.shape, kind="constant",
        )
        self.graph.constants[tensor.id] = np.asarray(array)
        self._const_cache[key] = tensor
        return tensor

    def conv_workspace(self, module: Conv2d, out_hw: Tuple[int, int]) -> int:
        kh, kw = module.kernel_size
        if kh == 1 and kw == 1:
            return 0
        im2col = (self.batch_size * module.in_channels * kh * kw
                  * out_hw[0] * out_hw[1] * 4)
        return min(im2col, self.workspace_cap)

    # ------------------------------------------------------------------
    # Registry-driven op emission
    # ------------------------------------------------------------------
    def add_registered_op(self, base: str, op_type: str,
                          inputs: List[TensorValue],
                          attrs: Optional[Dict[str, Any]] = None,
                          out_names: Optional[List[str]] = None,
                          out_dtypes: Optional[Dict[int, int]] = None,
                          workspace_bytes: int = 0) -> List[TensorValue]:
        """Emit one op whose semantics come from the central registry.

        Output shapes are derived from the :class:`OpDef`'s symbolic shape
        inference; ``saved`` tensors and the in-place hint come from its
        storage fields.  Returns the created output tensors.
        """
        attrs = dict(attrs or {})
        definition = op_def(op_type)
        shapes = infer_op_shapes(op_type, [t.shape for t in inputs], attrs)
        if out_names is None:
            out_names = ([f"{base}.out"] if len(shapes) == 1
                         else [f"{base}.out{k}" for k in range(len(shapes))])
        outputs = []
        for index, (name, shape) in enumerate(zip(out_names, shapes)):
            dtype_bytes = (out_dtypes or {}).get(index, 4)
            outputs.append(self.graph.add_tensor(self._unique(name), shape,
                                                 dtype_bytes=dtype_bytes))
        # Inference graphs have no backward twin: nothing is "generated
        # data" in the Figure-1 sense, so no tensor is marked saved and no
        # lifetime extends past the op's last forward consumer.
        saved = [] if self.inference else \
            [(inputs if source == "input" else outputs)[index]
             for source, index in definition.saved]
        self.graph.add_op(
            self._unique(base), op_type, inputs, outputs, attrs=attrs,
            saved=saved, workspace_bytes=workspace_bytes,
            inplace_of=inputs[0] if definition.inplace else None,
        )
        return outputs

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, module: Module, value: TensorValue,
             patch: Patch = None) -> TensorValue:
        """Emit ``module`` on ``value``: the whole tensor, or — with
        ``patch = (payload, i, j)`` — patch ``(i, j)`` of a split region,
        ``payload`` being what the module's split handler's ``back``
        returned (a whole-tensor emission is the patch emission with the
        module's own padding and an empty name tag)."""
        for module_type, emitter in _EMITTERS:
            if isinstance(module, module_type):
                return emitter(self, module, value, patch)
        raise TypeError(f"no graph emitter for {type(module).__name__}")

    # Individual op emitters (explicit padding and name tag) ------------
    def emit_conv(self, module: Conv2d, value: TensorValue,
                  padding, tag: str = "") -> TensorValue:
        weight = self.param(module, "weight", module.weight.shape)
        inputs = [value, weight]
        if module.bias is not None:
            inputs.append(self.param(module, "bias", module.bias.shape))
        attrs = {
            "kernel": module.kernel_size, "stride": module.stride,
            "padding": padding, "in_channels": module.in_channels,
            "out_channels": module.out_channels,
        }
        (out_shape,) = infer_op_shapes("conv2d", [value.shape], attrs)
        (out,) = self.add_registered_op(
            f"conv{tag}", "conv2d", inputs, attrs,
            out_names=[f"conv{tag}.out"],
            workspace_bytes=self.conv_workspace(
                module, (out_shape[2], out_shape[3])),
        )
        return out

    def emit_pool(self, module: MaxPool2d, value: TensorValue,
                  padding, tag: str = "") -> TensorValue:
        (out,) = self.add_registered_op(
            f"maxpool{tag}", "maxpool2d", [value],
            attrs={"kernel": module.kernel_size, "stride": module.stride,
                   "padding": padding},
            out_names=[f"maxpool{tag}.out"],
        )
        return out

    def emit_bn(self, module: BatchNorm2d, value: TensorValue, tag: str = "") -> TensorValue:
        weight = self.param(module, "weight", module.weight.shape)
        bias = self.param(module, "bias", module.bias.shape)
        if self.inference:
            mean = self.constant(module, "running_mean",
                                 module.running_mean.data)
            var = self.constant(module, "running_var",
                                module.running_var.data)
            (out,) = self.add_registered_op(
                f"bn{tag}", "batchnorm_eval",
                [value, weight, bias, mean, var],
                attrs={"num_features": module.num_features,
                       "eps": BN_EPS},
                out_names=[f"bn{tag}.out"],
            )
            return out
        (out,) = self.add_registered_op(
            f"bn{tag}", "batchnorm", [value, weight, bias],
            attrs={"num_features": module.num_features, "recompute": False},
            out_names=[f"bn{tag}.out"],
        )
        return out

    def emit_plain(self, op_type: str, inputs: List[TensorValue],
                   tag: str = "") -> TensorValue:
        """An op without attrs or parameters (relu, gap, add), named
        after its type."""
        (out,) = self.add_registered_op(
            f"{op_type}{tag}", op_type, inputs,
            out_names=[f"{op_type}{tag}.out"],
        )
        return out


def _tag(patch: Patch) -> str:
    return "" if patch is None else f".p{patch[1]}{patch[2]}"


def _padding(module: Module, patch: Patch):
    """The window module's own padding, or patch ``(i, j)``'s from its
    :class:`~repro.core.split_op.SplitPlan2d` payload."""
    if patch is None:
        return module.padding
    plan, i, j = patch
    return plan.patch_padding(i, j)


def _sub(patch: Patch, payload: Any) -> Patch:
    """``patch`` re-aimed at a child module's payload."""
    return None if patch is None else (payload, patch[1], patch[2])


# ----------------------------------------------------------------------
# Emitters: (builder, module, value, patch) -> value
# ----------------------------------------------------------------------
def _emit_sequential(builder: GraphBuilder, module: Sequential,
                     value: TensorValue, patch: Patch) -> TensorValue:
    payloads = [(None, None)] * len(module) if patch is None else patch[0]
    for item, (_, item_payload) in zip(module, payloads):
        value = builder.emit(item, value, _sub(patch, item_payload))
    return value


def _emit_conv(builder: GraphBuilder, module: Conv2d, value: TensorValue,
               patch: Patch) -> TensorValue:
    return builder.emit_conv(module, value, _padding(module, patch),
                             _tag(patch))


def _emit_pool(builder: GraphBuilder, module: MaxPool2d, value: TensorValue,
               patch: Patch) -> TensorValue:
    return builder.emit_pool(module, value, _padding(module, patch),
                             _tag(patch))


def _plain(op_type: str) -> Callable:
    def emitter(builder: GraphBuilder, module: Module, value: TensorValue,
                patch: Patch) -> TensorValue:
        return builder.emit_plain(op_type, [value], _tag(patch))
    return emitter


def _emit_bn(builder: GraphBuilder, module: BatchNorm2d, value: TensorValue,
             patch: Patch) -> TensorValue:
    return builder.emit_bn(module, value, _tag(patch))


def _emit_flatten(builder: GraphBuilder, module: Flatten, value: TensorValue,
                  patch: Patch) -> TensorValue:
    (out,) = builder.add_registered_op(
        "flatten", "flatten", [value],
        attrs={"start_dim": module.start_dim}, out_names=["flatten.out"],
    )
    return out


def _emit_linear(builder: GraphBuilder, module: Linear, value: TensorValue,
                 patch: Patch) -> TensorValue:
    weight = builder.param(module, "weight", module.weight.shape)
    inputs = [value, weight]
    if module.bias is not None:
        inputs.append(builder.param(module, "bias", module.bias.shape))
    (out,) = builder.add_registered_op(
        "linear", "linear", inputs,
        attrs={"in_features": module.in_features,
               "out_features": module.out_features},
        out_names=["linear.out"],
    )
    return out


def _emit_dropout(builder: GraphBuilder, module: Dropout, value: TensorValue,
                  patch: Patch) -> TensorValue:
    if builder.inference:
        # Dropout is the identity at inference time; emitting no op at all
        # also spares the planner the mask tensor.
        return value
    out, _mask = builder.add_registered_op(
        "dropout", "dropout", [value], attrs={"p": module.p},
        out_names=["dropout.out", "dropout.mask"], out_dtypes={1: 1},
    )
    # Per-op seed attribute: the executor derives this op's mask stream
    # from ``(dropout_seed, seed)``, and the determinism audit requires
    # the attribute to be present and unique.  Seeding by op id keeps the
    # streams identical to the historical ``(dropout_seed, op.id)``.
    op = builder.graph.op_by_id(out.producer)
    op.attrs["seed"] = op.id
    return out


def _emit_residual(builder: GraphBuilder, block: ResidualBlock,
                   value: TensorValue, patch: Patch) -> TensorValue:
    """Main path -> shortcut -> add -> relu, over ``block.stages``."""
    tag = _tag(patch)
    stages = block.stages
    *plans, plan_ds = ([None] * (len(stages) + 1) if patch is None
                       else patch[0])
    out = value
    for number, ((conv, bn), plan) in enumerate(zip(stages, plans), start=1):
        if number > 1:
            out = builder.emit_plain("relu", [out], f"{tag}.b{number - 1}")
        out = builder.emit_conv(conv, out, _padding(conv, _sub(patch, plan)),
                                f"{tag}.b{number}")
        out = builder.emit_bn(bn, out, f"{tag}.b{number}")
    identity = value
    if block.downsample is not None:
        ds_conv, ds_bn = block.downsample
        identity = builder.emit_conv(
            ds_conv, value, _padding(ds_conv, _sub(patch, plan_ds)),
            f"{tag}.ds")
        identity = builder.emit_bn(ds_bn, identity, f"{tag}.ds")
    out = builder.emit_plain("add", [out, identity], tag)
    return builder.emit_plain("relu", [out], f"{tag}.join")


def _emit_split_region(builder: GraphBuilder, region: SplitRegion,
                       value: TensorValue, patch: Patch) -> TensorValue:
    # An inference graph is the eval-mode network: a region that
    # evaluates unsplit (Stochastic Split-CNN, §3.3) is emitted unsplit,
    # exactly as ``SplitRegion.forward`` runs it.
    if region.num_splits == (1, 1) or (builder.inference
                                       and region.eval_unsplit):
        return builder.emit(region.body, value)
    in_hw = (value.shape[2], value.shape[3])
    handler = get_handler(region.body)
    out_hw = handler.trace(region.body, in_hw)
    # Static planning always uses the even scheme: stochastic schemes vary
    # per minibatch, but their patch sizes are bounded by (1 + 2*omega)/N of
    # the dimension, so the even plan is representative.
    scheme_h = SplitScheme.even(out_hw[0], region.num_splits[0])
    scheme_w = SplitScheme.even(out_hw[1], region.num_splits[1])
    back = handler.back(region.body, scheme_h, scheme_w, in_hw, region.position)
    in_h, in_w = back.in_scheme_h, back.in_scheme_w
    patches = builder.add_registered_op(
        "split", "split", [value],
        attrs={"scheme_h": in_h.boundaries, "scheme_w": in_w.boundaries},
        out_names=[f"split.patch{i}{j}" for i in range(in_h.num_parts)
                   for j in range(in_w.num_parts)],
    )
    grid = [(i, j) for i in range(in_h.num_parts) for j in range(in_w.num_parts)]
    if builder.patch_order == "depth_first":
        # One patch runs through the whole region before the next starts —
        # the schedule that minimizes live patch state (paper §3.2's
        # "flexibility of scheduling" put to memory use).
        outputs: List[TensorValue] = [
            builder.emit(region.body, patches[index], (back.payload, i, j))
            for index, (i, j) in enumerate(grid)
        ]
    else:
        # Breadth-first (layer-synchronous): every patch advances one body
        # item at a time, like an unsplit execution — the ablation baseline.
        outputs = list(patches)
        for item, (_, item_payload) in zip(region.body, back.payload):
            for index, (i, j) in enumerate(grid):
                outputs[index] = builder.emit(item, outputs[index],
                                              (item_payload, i, j))
    (joined,) = builder.add_registered_op(
        "join", "concat", outputs, attrs={"grid": region.num_splits},
        out_names=["join.out"],
    )
    return joined


# How each layer type becomes ops — the one table (first match wins).
# Window and elementwise rows serve whole tensors and split-region
# patches alike; gap / flatten / linear never sit inside a region (no
# split handler is registered for them).
_EMITTERS: List[Tuple[Type[Module], Callable]] = [
    (SplitRegion, _emit_split_region),
    (Sequential, _emit_sequential),
    (Conv2d, _emit_conv),
    (MaxPool2d, _emit_pool),
    (BatchNorm2d, _emit_bn),
    (ReLU, _plain("relu")),
    (Dropout, _emit_dropout),
    (ResidualBlock, _emit_residual),
    (GlobalAvgPool2d, _plain("gap")),
    (Flatten, _emit_flatten),
    (Linear, _emit_linear),
]


def build_forward_graph(
    model: ConvClassifier,
    batch_size: int,
    workspace_cap: int = GIB,
    patch_order: str = "depth_first",
    inference: bool = False,
) -> Graph:
    """Build the serialized forward graph for one training step of ``model``.

    ``patch_order`` controls how split-region patches are serialized:
    ``"depth_first"`` (one patch at a time — the memory-friendly schedule)
    or ``"breadth_first"`` (all patches advance layer by layer).

    ``inference=True`` builds a serving graph instead: the graph stops at
    the logits (no loss head), no tensor is marked saved for backward, and
    dropout layers vanish — the memory plan for such a graph carries no
    backward-only state at all.  Its batch norms are ``batchnorm_eval``
    ops normalizing with the model's *running* statistics — ``model.eval()``
    semantics, so an image's logits do not depend on its batch — with
    the stats as kind-``"constant"`` tensors whose values live in
    ``graph.constants``.  This is the form the compiler's
    constant-folding pass collapses into per-channel affine ops.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    builder = GraphBuilder(
        batch_size=batch_size,
        workspace_cap=workspace_cap,
        memory_efficient_bn=bool(getattr(model, "memory_efficient_bn", False)),
        patch_order=patch_order,
        inference=inference,
    )
    graph = builder.graph
    graph.name = model.name
    side = model.input_size
    value = graph.add_tensor("input", (batch_size, 3, side, side),
                             kind="input")
    value = builder.emit(model.features, value)
    value = builder.emit(Flatten(), value)
    value = builder.emit(model.classifier, value)
    value.name = "logits" if inference else value.name
    if not inference:
        builder.add_registered_op("cross_entropy", "cross_entropy", [value],
                                  out_names=["loss", "softmax"])
    if builder.memory_efficient_bn and not inference:
        _apply_inplace_abn(graph)
    graph.validate()
    return graph


def params_for_builder(builder: GraphBuilder,
                       model: Module) -> Dict[str, np.ndarray]:
    """Parameter arrays for exactly the tensors ``builder`` emitted.

    Subset graphs (one pipeline stage, a few mesh patches, a dense
    features-only patch graph) reference only some of the model's
    parameters, so the executor's count-and-order matching cannot apply;
    the builder's param cache keys — ``(id(module), attribute)`` —
    identify the owning module directly.
    """
    modules_by_id = {id(module): module for module in model.modules()}
    params: Dict[str, np.ndarray] = {}
    for (module_id, attribute), tensor in builder._param_cache.items():
        module = modules_by_id.get(module_id)
        if module is None:
            raise KeyError(
                f"parameter tensor {tensor.name!r} references a module "
                "that is not part of the model")
        params[tensor.name] = getattr(module, attribute).data
    return params


def _apply_inplace_abn(graph: Graph) -> None:
    """In-place activated batch-norm (paper §6.3, ref [6]).

    Batch-norm layers whose output feeds straight into a ReLU can recompute
    their normalized input from the activation output during backward, so
    the BN input no longer needs to be kept alive.  BN layers feeding the
    residual add (no fused activation) keep their saved input.
    """
    for op in graph.forward_ops():
        if op.op_type != "batchnorm":
            continue
        out = graph.tensor(op.outputs[0])
        if any(graph.op_by_id(c).op_type == "relu" for c in out.consumers):
            op.attrs["recompute"] = True
            op.saved = []
