"""ResNet family (He et al., 2016) with the split-execution handler.

Residual blocks are the reason the paper "only joins at residual block
boundaries" (footnote 3): the skip connection forces the block's input and
output split schemes to coincide, so blocks must be split as composite
units.  A block states its main path once, as ``stages`` — the ordered
``(conv, bn)`` pairs, ReLU between consecutive stages — plus
``downsample``; :class:`ResidualBlock.forward`, :class:`ResidualHandler`
and the graph builder's residual emitter all walk that one list.  Schemes
are propagated backwards through the main path, the shortcut convolution
(1x1, possibly stride 2 — a ``k < s`` op that splits exactly) reuses the
block-input scheme, and identity blocks force input scheme == output
scheme.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from ..core.region import (
    BackResult, SplitHandler, WindowOpHandler, register_handler,
    window_specs_of,
)
from ..core.scheme import SplitScheme
from ..core.split_op import SplitPlan2d, plan_split_1d
from ..nn import (
    BatchNorm2d, Conv2d, GlobalAvgPool2d, Linear, MaxPool2d, Module, ReLU,
    Sequential,
)
from ..tensor import Tensor, relu
from ..tensor.ops_nn import IntPair
from .base import ConvClassifier

__all__ = ["ResidualBlock", "BasicBlock", "Bottleneck",
           "resnet18", "resnet34", "resnet50"]


class ResidualBlock(Module):
    """``relu(main(x) + skip(x))`` with ``main`` = conv-bn stages joined
    by ReLU and ``skip`` the identity or a 1x1 conv-bn ``downsample``."""

    expansion = 1
    #: The main path in execution order (a property of each block type).
    stages: List[Tuple[Conv2d, BatchNorm2d]]
    relu: ReLU
    downsample: Optional[Sequential]

    def _make_shortcut(self, in_planes: int, planes: int, stride: int,
                       rng: Optional[np.random.Generator]) -> None:
        out_planes = planes * self.expansion
        if stride != 1 or in_planes != out_planes:
            self.downsample = Sequential(
                Conv2d(in_planes, out_planes, 1, stride=stride, bias=False,
                       rng=rng),
                BatchNorm2d(out_planes),
            )
        else:
            self.downsample = None

    def forward(self, x: Tensor) -> Tensor:
        out = x
        for index, (conv, bn) in enumerate(self.stages):
            if index:
                out = self.relu(out)
            out = bn(conv(out))
        identity = self.downsample(x) if self.downsample is not None else x
        return relu(out + identity)


class BasicBlock(ResidualBlock):
    """Two 3x3 convolutions with a residual connection (ResNet-18/34)."""

    def __init__(self, in_planes: int, planes: int, stride: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.stride = stride
        self.conv1 = Conv2d(in_planes, planes, 3, stride=stride, padding=1,
                            bias=False, rng=rng)
        self.bn1 = BatchNorm2d(planes)
        self.relu = ReLU()
        self.conv2 = Conv2d(planes, planes, 3, stride=1, padding=1,
                            bias=False, rng=rng)
        self.bn2 = BatchNorm2d(planes)
        self._make_shortcut(in_planes, planes, stride, rng)

    @property
    def stages(self) -> List[Tuple[Conv2d, BatchNorm2d]]:
        return [(self.conv1, self.bn1), (self.conv2, self.bn2)]


class Bottleneck(ResidualBlock):
    """1x1 -> 3x3 -> 1x1 bottleneck with expansion 4 (ResNet-50/101/152)."""

    expansion = 4

    def __init__(self, in_planes: int, planes: int, stride: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.stride = stride
        self.conv1 = Conv2d(in_planes, planes, 1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(planes)
        self.conv2 = Conv2d(planes, planes, 3, stride=stride, padding=1,
                            bias=False, rng=rng)
        self.bn2 = BatchNorm2d(planes)
        self.conv3 = Conv2d(planes, planes * self.expansion, 1, bias=False, rng=rng)
        self.bn3 = BatchNorm2d(planes * self.expansion)
        self.relu = ReLU()
        self._make_shortcut(in_planes, planes, stride, rng)

    @property
    def stages(self) -> List[Tuple[Conv2d, BatchNorm2d]]:
        return [(self.conv1, self.bn1), (self.conv2, self.bn2),
                (self.conv3, self.bn3)]


# ----------------------------------------------------------------------
# Split handler
# ----------------------------------------------------------------------
_WINDOW = WindowOpHandler()

Schemes = Tuple[SplitScheme, SplitScheme]


def _plan_conv(conv: Conv2d, in_hw: IntPair, out: Schemes, position: float,
               input_split: Optional[Schemes] = None) -> SplitPlan2d:
    """Plan one conv of a block; ``input_split`` pins the input scheme
    where the skip connection dictates it."""
    spec_h, spec_w = window_specs_of(conv)
    in_h, in_w = input_split or (None, None)
    return SplitPlan2d(
        height=plan_split_1d(spec_h, in_hw[0], out[0], position, input_split=in_h),
        width=plan_split_1d(spec_w, in_hw[1], out[1], position, input_split=in_w),
    )


class ResidualHandler(SplitHandler):
    """Payload: one :class:`SplitPlan2d` per stage, then the shortcut
    conv's plan (``None`` for an identity skip)."""

    def trace(self, block: ResidualBlock, in_hw: IntPair) -> IntPair:
        for conv, _ in block.stages:
            in_hw = _WINDOW.trace(conv, in_hw)
        return in_hw

    def back(self, block: ResidualBlock, scheme_h: SplitScheme,
             scheme_w: SplitScheme, in_hw: IntPair, position: float) -> BackResult:
        convs = [conv for conv, _ in block.stages]
        sizes = [in_hw]
        for conv in convs[:-1]:
            sizes.append(_WINDOW.trace(conv, sizes[-1]))
        out: Schemes = (scheme_h, scheme_w)
        # Identity skip: block input scheme must equal its output scheme.
        pinned = out if block.downsample is None else None
        plans: List[SplitPlan2d] = []
        schemes = out
        for index in range(len(convs) - 1, -1, -1):
            plan = _plan_conv(convs[index], sizes[index], schemes, position,
                              input_split=pinned if index == 0 else None)
            plans.insert(0, plan)
            schemes = (plan.height.input_split, plan.width.input_split)
        plan_ds = None
        if block.downsample is not None:
            plan_ds = _plan_conv(block.downsample[0], in_hw, out, position,
                                 input_split=schemes)
        return BackResult(schemes[0], schemes[1], (*plans, plan_ds))

    def apply(self, block: ResidualBlock, x: Tensor, payload: Any,
              i: int, j: int) -> Tensor:
        *plans, plan_ds = payload
        out = x
        for index, ((conv, bn), plan) in enumerate(zip(block.stages, plans)):
            if index:
                out = block.relu(out)
            out = bn(_WINDOW.apply(conv, out, plan, i, j))
        if block.downsample is None:
            identity = x
        else:
            ds_conv, ds_bn = block.downsample
            identity = ds_bn(_WINDOW.apply(ds_conv, x, plan_ds, i, j))
        return relu(out + identity)


register_handler(ResidualBlock, ResidualHandler())


# ----------------------------------------------------------------------
# Model builders
# ----------------------------------------------------------------------
def _make_layer(block_cls, in_planes: int, planes: int, blocks: int, stride: int,
                rng: Optional[np.random.Generator]) -> Tuple[List[Module], int]:
    layers: List[Module] = [block_cls(in_planes, planes, stride=stride, rng=rng)]
    in_planes = planes * block_cls.expansion
    for _ in range(1, blocks):
        layers.append(block_cls(in_planes, planes, stride=1, rng=rng))
    return layers, in_planes


def _resnet(block_cls, layer_blocks: List[int], num_classes: int, dataset: str,
            name: str, rng: Optional[np.random.Generator],
            memory_efficient: bool) -> ConvClassifier:
    items: List[Module] = []
    if dataset == "imagenet":
        items.append(Conv2d(3, 64, 7, stride=2, padding=3, bias=False, rng=rng))
        items.append(BatchNorm2d(64))
        items.append(ReLU())
        items.append(MaxPool2d(3, stride=2, padding=1))
        input_size = 224
    elif dataset == "cifar":
        items.append(Conv2d(3, 64, 3, stride=1, padding=1, bias=False, rng=rng))
        items.append(BatchNorm2d(64))
        items.append(ReLU())
        input_size = 32
    else:
        raise ValueError(f"dataset must be 'imagenet' or 'cifar', got {dataset!r}")
    in_planes = 64
    for planes, blocks, stride in zip((64, 128, 256, 512), layer_blocks,
                                      (1, 2, 2, 2)):
        layers, in_planes = _make_layer(block_cls, in_planes, planes, blocks,
                                        stride, rng)
        items.extend(layers)
    items.append(GlobalAvgPool2d())
    features = Sequential(*items)
    classifier = Linear(512 * block_cls.expansion, num_classes, rng=rng)
    model = ConvClassifier(
        features=features, classifier=classifier,
        name=f"{name}-{dataset}", input_size=input_size,
    )
    # Flag consumed by the graph builder: re-compute batch-norm inputs in the
    # backward pass instead of keeping them alive (paper §6.3, ref. [6]).
    model.memory_efficient_bn = memory_efficient
    return model


def resnet18(num_classes: int = 10, dataset: str = "cifar",
             rng: Optional[np.random.Generator] = None,
             memory_efficient: bool = False) -> ConvClassifier:
    return _resnet(BasicBlock, [2, 2, 2, 2], num_classes, dataset, "resnet18",
                   rng, memory_efficient)


def resnet34(num_classes: int = 10, dataset: str = "cifar",
             rng: Optional[np.random.Generator] = None,
             memory_efficient: bool = False) -> ConvClassifier:
    return _resnet(BasicBlock, [3, 4, 6, 3], num_classes, dataset, "resnet34",
                   rng, memory_efficient)


def resnet50(num_classes: int = 1000, dataset: str = "imagenet",
             rng: Optional[np.random.Generator] = None,
             memory_efficient: bool = False) -> ConvClassifier:
    return _resnet(Bottleneck, [3, 4, 6, 3], num_classes, dataset, "resnet50",
                   rng, memory_efficient)
