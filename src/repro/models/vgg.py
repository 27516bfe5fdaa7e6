"""VGG family (Simonyan & Zisserman, 2014) — the paper's primary workload.

Configurations follow the original paper; ``vgg19`` is configuration E.
Both ImageNet (224x224, three-FC head) and CIFAR (32x32, single-FC head)
variants are provided, with optional batch normalization.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from ..nn import (
    BatchNorm2d, Conv2d, Dropout, Linear, MaxPool2d, Module, ReLU, Sequential,
)
from .base import ConvClassifier

__all__ = ["make_vgg_features", "vgg11", "vgg16", "vgg19", "VGG_CONFIGS"]

# 'M' denotes a 2x2/2 max-pool; integers are conv output channel counts.
VGG_CONFIGS: Dict[str, List[Union[int, str]]] = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
              512, 512, 512, "M", 512, 512, 512, "M"],
    "vgg19": [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
              512, 512, 512, 512, "M", 512, 512, 512, 512, "M"],
}


def make_vgg_features(
    config: List[Union[int, str]],
    batch_norm: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """Build the VGG convolutional trunk for RGB input from a channel
    configuration."""
    layers: List[Module] = []
    channels = 3
    for entry in config:
        if entry == "M":
            layers.append(MaxPool2d(kernel_size=2, stride=2))
            continue
        out_channels = int(entry)
        layers.append(Conv2d(channels, out_channels, kernel_size=3, padding=1, rng=rng))
        if batch_norm:
            layers.append(BatchNorm2d(out_channels))
        layers.append(ReLU())
        channels = out_channels
    return Sequential(*layers)


def _vgg(
    config_name: str,
    num_classes: int,
    dataset: str,
    batch_norm: bool,
    rng: Optional[np.random.Generator],
) -> ConvClassifier:
    config = VGG_CONFIGS[config_name]
    features = make_vgg_features(config, batch_norm=batch_norm, rng=rng)
    if dataset == "imagenet":
        classifier = Sequential(
            Linear(512 * 7 * 7, 4096, rng=rng), ReLU(), Dropout(0.5),
            Linear(4096, 4096, rng=rng), ReLU(), Dropout(0.5),
            Linear(4096, num_classes, rng=rng),
        )
        input_size = 224
    elif dataset == "cifar":
        classifier = Linear(512, num_classes, rng=rng)
        input_size = 32
    else:
        raise ValueError(f"dataset must be 'imagenet' or 'cifar', got {dataset!r}")
    return ConvClassifier(
        features=features,
        classifier=classifier,
        name=f"{config_name}-{dataset}" + ("-bn" if batch_norm else ""),
        input_size=input_size,
    )


def vgg11(num_classes: int = 10, dataset: str = "cifar", batch_norm: bool = False,
          rng: Optional[np.random.Generator] = None) -> ConvClassifier:
    return _vgg("vgg11", num_classes, dataset, batch_norm, rng)


def vgg16(num_classes: int = 1000, dataset: str = "imagenet", batch_norm: bool = False,
          rng: Optional[np.random.Generator] = None) -> ConvClassifier:
    return _vgg("vgg16", num_classes, dataset, batch_norm, rng)


def vgg19(num_classes: int = 1000, dataset: str = "imagenet", batch_norm: bool = False,
          rng: Optional[np.random.Generator] = None) -> ConvClassifier:
    return _vgg("vgg19", num_classes, dataset, batch_norm, rng)
