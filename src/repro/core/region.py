"""Multi-layer split execution (paper §3.2).

A :class:`SplitRegion` wraps a prefix of a CNN and executes it patch-wise:
the *output* split scheme is chosen once at the join point (evenly, or
stochastically per minibatch), then propagated *backwards* through every
layer of the region — the output scheme of layer *m* is the input scheme of
layer *m+1*, so patches flow through the whole region independently with no
communication, exactly the paper's multi-layer construct.

Propagation and per-patch execution are mediated by :class:`SplitHandler`
objects looked up per module type, so model-specific composites (e.g.
ResNet residual blocks) can register their own handlers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Type

from ..nn import (
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, MaxPool2d, Module, ReLU,
    Sequential, Sigmoid, Tanh,
)
from ..tensor import Tensor, avg_pool2d, concat, conv2d, max_pool2d, slice_
from ..tensor.ops_nn import IntPair
from .scheme import SplitScheme, WindowSpec
from .split_op import SplitPlan2d, plan_split_2d
from .stochastic import DEFAULT_OMEGA, StochasticSplitter

__all__ = [
    "SplitHandler", "SplitRegion", "register_handler", "get_handler",
    "BackResult", "conv_count", "window_specs_of",
]


@dataclass
class BackResult:
    """Result of backward scheme propagation through one module."""

    in_scheme_h: SplitScheme
    in_scheme_w: SplitScheme
    payload: Any


class SplitHandler(ABC):
    """Type-specific logic for tracing, scheme propagation and patch apply."""

    @abstractmethod
    def trace(self, module: Module, in_hw: IntPair) -> IntPair:
        """Spatial output size of ``module`` for spatial input ``in_hw``."""

    @abstractmethod
    def back(self, module: Module, scheme_h: SplitScheme, scheme_w: SplitScheme,
             in_hw: IntPair, position: float) -> BackResult:
        """Propagate output schemes to input schemes; build the patch plan."""

    @abstractmethod
    def apply(self, module: Module, x: Tensor, payload: Any, i: int, j: int) -> Tensor:
        """Run ``module`` on patch ``(i, j)`` using the plan ``payload``."""


_REGISTRY: List[Tuple[Type[Module], SplitHandler]] = []


def register_handler(module_type: Type[Module], handler: SplitHandler) -> None:
    """Register ``handler`` for ``module_type`` (later registrations win)."""
    _REGISTRY.insert(0, (module_type, handler))


def get_handler(module: Module) -> SplitHandler:
    """Find the handler for ``module``; raises for unsupported types."""
    for module_type, handler in _REGISTRY:
        if isinstance(module, module_type):
            return handler
    raise TypeError(
        f"no split handler registered for {type(module).__name__}; "
        "register one with repro.core.region.register_handler"
    )


def window_specs_of(module: Module) -> Tuple[WindowSpec, WindowSpec]:
    """WindowSpecs (h, w) of a Conv2d or pooling module.

    Public because the patch-inference tiler (:mod:`repro.infer`) walks
    window layers through the same spec extraction the split handlers use.
    """
    kernel = module.kernel_size
    (pt, pb), (pl, pr) = module.padding
    return (
        WindowSpec(kernel[0], module.stride[0], pt, pb),
        WindowSpec(kernel[1], module.stride[1], pl, pr),
    )


class WindowOpHandler(SplitHandler):
    """Shared logic for Conv2d / MaxPool2d / AvgPool2d."""

    def trace(self, module: Module, in_hw: IntPair) -> IntPair:
        spec_h, spec_w = window_specs_of(module)
        return (spec_h.output_size(in_hw[0]), spec_w.output_size(in_hw[1]))

    def back(self, module: Module, scheme_h: SplitScheme, scheme_w: SplitScheme,
             in_hw: IntPair, position: float) -> BackResult:
        spec_h, spec_w = window_specs_of(module)
        plan = plan_split_2d(spec_h, spec_w, in_hw, scheme_h, scheme_w, position)
        return BackResult(plan.height.input_split, plan.width.input_split, plan)

    def apply(self, module: Module, x: Tensor, payload: SplitPlan2d, i: int, j: int) -> Tensor:
        padding = payload.patch_padding(i, j)
        if isinstance(module, Conv2d):
            return conv2d(x, module.weight, module.bias, stride=module.stride,
                          padding=padding)
        if isinstance(module, MaxPool2d):
            return max_pool2d(x, module.kernel_size, module.stride, padding)
        if isinstance(module, AvgPool2d):
            return avg_pool2d(x, module.kernel_size, module.stride, padding)
        raise TypeError(f"WindowOpHandler cannot apply {type(module).__name__}")


class ElementwiseHandler(SplitHandler):
    """Spatially local modules: schemes pass through unchanged.

    Note that BatchNorm2d inside a split region computes statistics *per
    patch* during training — patches are fully independent, which is the
    semantic the paper describes.
    """

    def trace(self, module: Module, in_hw: IntPair) -> IntPair:
        return in_hw

    def back(self, module: Module, scheme_h: SplitScheme, scheme_w: SplitScheme,
             in_hw: IntPair, position: float) -> BackResult:
        return BackResult(scheme_h, scheme_w, None)

    def apply(self, module: Module, x: Tensor, payload: Any, i: int, j: int) -> Tensor:
        return module(x)


class SequentialHandler(SplitHandler):
    """Recursive handler for module chains."""

    def trace(self, module: Sequential, in_hw: IntPair) -> IntPair:
        for item in module:
            in_hw = get_handler(item).trace(item, in_hw)
        return in_hw

    def back(self, module: Sequential, scheme_h: SplitScheme, scheme_w: SplitScheme,
             in_hw: IntPair, position: float) -> BackResult:
        items = list(module)
        # Forward shape trace so each item knows its own input size.
        sizes = [in_hw]
        for item in items:
            sizes.append(get_handler(item).trace(item, sizes[-1]))
        payloads: List[Tuple[SplitHandler, Any]] = [None] * len(items)  # type: ignore
        for index in range(len(items) - 1, -1, -1):
            handler = get_handler(items[index])
            result = handler.back(items[index], scheme_h, scheme_w, sizes[index], position)
            payloads[index] = (handler, result.payload)
            scheme_h, scheme_w = result.in_scheme_h, result.in_scheme_w
        return BackResult(scheme_h, scheme_w, payloads)

    def apply(self, module: Sequential, x: Tensor, payload: Any, i: int, j: int) -> Tensor:
        for item, (handler, item_payload) in zip(module, payload):
            x = handler.apply(item, x, item_payload, i, j)
        return x


register_handler(Sequential, SequentialHandler())
register_handler(Conv2d, WindowOpHandler())
register_handler(MaxPool2d, WindowOpHandler())
register_handler(AvgPool2d, WindowOpHandler())
for elementwise_type in (ReLU, Sigmoid, Tanh, Dropout, BatchNorm2d):
    register_handler(elementwise_type, ElementwiseHandler())


def conv_count(module: Module) -> int:
    """Number of convolutional layers inside ``module`` (self included)."""
    return sum(1 for m in module.modules() if isinstance(m, Conv2d))


class SplitRegion(Module):
    """Execute a sub-network patch-wise and join at the end (paper §3.2).

    Parameters
    ----------
    body: the region to split (parameters are shared, not copied).
    num_splits: ``(h, w)`` patch grid; the paper's "number of splits" N is
        ``h * w`` patches arranged 2-D (Figure 2 shows 2x2 = 4).
    stochastic: sample the join split scheme per minibatch (§3.3).
    omega: stochastic wiggle room (paper uses 0.2).
    position: interpolation inside ``[lb, ub]`` when deriving input splits.
    eval_unsplit: run the body unsplit at eval time.  Defaults to
        ``stochastic`` — Stochastic Split-CNN is evaluated on the original
        unsplit network (§3.3), deterministic Split-CNN is evaluated split.
    """

    def __init__(
        self,
        body: Module,
        num_splits: IntPair = (2, 2),
        stochastic: bool = False,
        omega: float = DEFAULT_OMEGA,
        position: float = 0.5,
        seed: Optional[int] = None,
        eval_unsplit: Optional[bool] = None,
    ) -> None:
        super().__init__()
        self.body = body
        self.num_splits: IntPair = (int(num_splits[0]), int(num_splits[1]))
        if self.num_splits[0] < 1 or self.num_splits[1] < 1:
            raise ValueError(f"num_splits must be >= 1, got {num_splits}")
        self.stochastic = stochastic
        self.position = position
        self.splitter = StochasticSplitter(omega, seed) if stochastic else None
        self.eval_unsplit = stochastic if eval_unsplit is None else eval_unsplit
        self.last_schemes: Optional[Tuple[SplitScheme, SplitScheme]] = None

    def forward(self, x: Tensor) -> Tensor:
        unsplit = self.num_splits == (1, 1) or (not self.training and self.eval_unsplit)
        if unsplit:
            return self.body(x)
        in_hw: IntPair = (x.shape[2], x.shape[3])
        handler = get_handler(self.body)
        out_hw = handler.trace(self.body, in_hw)
        scheme_h = self._choose_scheme(out_hw[0], self.num_splits[0])
        scheme_w = self._choose_scheme(out_hw[1], self.num_splits[1])
        self.last_schemes = (scheme_h, scheme_w)
        back = handler.back(self.body, scheme_h, scheme_w, in_hw, self.position)
        return self._run_patches(x, handler, back, in_hw)

    def _choose_scheme(self, total: int, parts: int) -> SplitScheme:
        if self.splitter is not None and self.training:
            return self.splitter(total, parts)
        return SplitScheme.even(total, parts)

    def _run_patches(self, x: Tensor, handler: SplitHandler, back: BackResult,
                     in_hw: IntPair) -> Tensor:
        in_scheme_h, in_scheme_w = back.in_scheme_h, back.in_scheme_w
        rows: List[Tensor] = []
        for i in range(in_scheme_h.num_parts):
            h_start, h_stop = in_scheme_h.part_range(i, in_hw[0])
            row: List[Tensor] = []
            for j in range(in_scheme_w.num_parts):
                w_start, w_stop = in_scheme_w.part_range(j, in_hw[1])
                patch = slice_(
                    x,
                    (slice(None), slice(None),
                     slice(h_start, h_stop), slice(w_start, w_stop)),
                )
                row.append(handler.apply(self.body, patch, back.payload, i, j))
            rows.append(concat(row, axis=3) if len(row) > 1 else row[0])
        return concat(rows, axis=2) if len(rows) > 1 else rows[0]

    def extra_repr(self) -> str:
        return (
            f"num_splits={self.num_splits}, stochastic={self.stochastic}, "
            f"eval_unsplit={self.eval_unsplit}"
        )
