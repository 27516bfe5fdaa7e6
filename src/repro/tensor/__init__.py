"""``repro.tensor`` — a compact numpy-backed tensor library with autograd.

This package is the numeric substrate for the Split-CNN reproduction: a
reverse-mode autodiff engine (:mod:`.autograd`), the shape / elementwise
primitives the model zoo applies, and fused neural-network kernels
(conv2d, max pooling, cross-entropy).

Importing the package registers the operator methods on :class:`Tensor`.
"""

from __future__ import annotations

from . import ops_basic, ops_nn, ops_reduce, ops_shape
from .autograd import Function, is_grad_enabled, no_grad
from .ops_basic import add, matmul
from .ops_nn import (
    conv2d, cross_entropy, dropout, max_pool2d, normalize_pair,
    normalize_padding2d, relu,
)
from .ops_nn import conv_output_size
from .ops_reduce import mean
from .ops_shape import concat, flatten, reshape, slice_, transpose
from .tensor import DEFAULT_DTYPE, Tensor, as_tensor

__all__ = [
    "Tensor", "as_tensor", "Function", "no_grad", "is_grad_enabled",
    "DEFAULT_DTYPE",
    # basic
    "add", "matmul",
    # shape
    "reshape", "transpose", "flatten", "slice_", "concat",
    # reduce
    "mean",
    # nn
    "conv2d", "max_pool2d", "relu", "cross_entropy", "dropout",
    "conv_output_size", "normalize_pair", "normalize_padding2d",
]


def _register_operators() -> None:
    """Attach the functional API as methods/dunders on :class:`Tensor`."""
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, key: slice_(self, key)

    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)

    Tensor.reshape = lambda self, *shape: reshape(self, *shape)
    Tensor.transpose = lambda self, axes=None: transpose(self, axes)
    Tensor.flatten = lambda self, start_dim=1: flatten(self, start_dim)

    Tensor.relu = lambda self: relu(self)


_register_operators()
