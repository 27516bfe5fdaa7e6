"""``repro.nn`` — neural-network modules built on :mod:`repro.tensor`."""

from .activation import Dropout, ReLU
from .container import Sequential
from .conv import Conv2d
from .linear import Flatten, Linear
from .loss import CrossEntropyLoss
from .module import Module, Parameter
from .norm import BatchNorm2d
from .pool import GlobalAvgPool2d, MaxPool2d
from . import init

__all__ = [
    "Module", "Parameter", "Sequential",
    "Conv2d", "Linear", "Flatten",
    "MaxPool2d", "GlobalAvgPool2d",
    "BatchNorm2d", "ReLU", "Dropout",
    "CrossEntropyLoss",
    "init",
]
