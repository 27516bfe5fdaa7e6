"""``repro.data`` — synthetic datasets and batch iteration."""

from .cifar import ArrayDataset, CIFAR10_MEAN, CIFAR10_STD, load_cifar10
from .loader import DataLoader
from .synthetic import (
    GratingsDataset, ShapesDataset, SyntheticImageDataset, make_dataset,
)

__all__ = [
    "DataLoader", "SyntheticImageDataset", "GratingsDataset", "ShapesDataset",
    "make_dataset",
    "ArrayDataset", "load_cifar10", "CIFAR10_MEAN", "CIFAR10_STD",
]
