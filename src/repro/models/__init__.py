"""``repro.models`` — the model zoo used across the paper's experiments."""

from typing import Callable, Dict

from .alexnet import alexnet
from .base import ConvClassifier
from .resnet import (
    BasicBlock, Bottleneck, ResidualBlock, resnet18, resnet34, resnet50,
)
from .small import small_resnet, small_vgg
from .vgg import vgg11, vgg16, vgg19

__all__ = [
    "ConvClassifier", "ResidualBlock", "BasicBlock", "Bottleneck",
    "alexnet", "vgg11", "vgg16", "vgg19",
    "resnet18", "resnet34", "resnet50",
    "small_vgg", "small_resnet",
    "build_model", "MODEL_REGISTRY",
]

MODEL_REGISTRY: Dict[str, Callable[..., ConvClassifier]] = {
    "alexnet": alexnet,
    "vgg11": vgg11,
    "vgg16": vgg16,
    "vgg19": vgg19,
    "resnet18": resnet18,
    "resnet34": resnet34,
    "resnet50": resnet50,
    "small_vgg": small_vgg,
    "small_resnet": small_resnet,
}


def build_model(name: str, **kwargs) -> ConvClassifier:
    """Build a model from the registry by name."""
    if name not in MODEL_REGISTRY:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[name](**kwargs)
