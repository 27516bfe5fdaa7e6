"""Scaled-down trainable model variants for the accuracy experiments.

Training full VGG-19 / ResNet-18 for 350 epochs is infeasible on a numpy
substrate, and the accuracy experiments (paper Figures 4-7, Table 1) only
need the *relative* effect of split hyperparameters on the same
architecture/dataset pair.  These miniatures preserve the structural traits
the splitting interacts with — VGG-style plain conv stacks with max-pools
vs. ResNet-style residual blocks with stride-2 downsampling — at a size
that trains in seconds (see DESIGN.md substitution table).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..nn import (
    BatchNorm2d, Conv2d, GlobalAvgPool2d, Linear, Module, ReLU, Sequential,
)
from .base import ConvClassifier
from .resnet import BasicBlock
from .vgg import make_vgg_features

__all__ = ["small_vgg", "small_resnet"]


def small_vgg(
    num_classes: int = 10,
    input_size: int = 32,
    config: Optional[Sequence[Union[int, str]]] = None,
    batch_norm: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> ConvClassifier:
    """A miniature VGG: plain 3x3 conv stacks separated by 2x2 max-pools.

    The default config has 6 convolutions and 3 pools, mirroring VGG-19's
    conv/pool rhythm at 1/8 width.
    """
    if config is None:
        config = [16, 16, "M", 32, 32, "M", 64, 64, "M"]
    features = make_vgg_features(list(config), batch_norm=batch_norm, rng=rng)
    pools = sum(1 for entry in config if entry == "M")
    final_spatial = input_size // (2 ** pools)
    if final_spatial < 1:
        raise ValueError(
            f"input_size {input_size} too small for {pools} pooling stages"
        )
    last_channels = next(int(c) for c in reversed(list(config)) if c != "M")
    classifier = Linear(last_channels * final_spatial * final_spatial,
                        num_classes, rng=rng)
    return ConvClassifier(
        features=features, classifier=classifier,
        name="small-vgg", input_size=input_size,
    )


def small_resnet(
    num_classes: int = 10,
    input_size: int = 32,
    widths: Sequence[int] = (16, 32, 64),
    rng: Optional[np.random.Generator] = None,
) -> ConvClassifier:
    """A miniature ResNet: stem + one BasicBlock stage per width entry.

    Stage 1 keeps resolution; later stages downsample by 2 (stride-2 first
    block with a 1x1 shortcut conv), mirroring ResNet-18's topology.
    """
    items: List[Module] = [
        Conv2d(3, widths[0], 3, stride=1, padding=1, bias=False, rng=rng),
        BatchNorm2d(widths[0]),
        ReLU(),
    ]
    in_planes = widths[0]
    for stage, planes in enumerate(widths):
        items.append(BasicBlock(in_planes, planes,
                                stride=1 if stage == 0 else 2, rng=rng))
        in_planes = planes
    items.append(GlobalAvgPool2d())
    features = Sequential(*items)
    classifier = Linear(widths[-1], num_classes, rng=rng)
    return ConvClassifier(
        features=features, classifier=classifier,
        name="small-resnet", input_size=input_size,
    )
