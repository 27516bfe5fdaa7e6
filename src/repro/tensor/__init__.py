"""``repro.tensor`` — a compact numpy-backed tensor library with autograd.

This package is the numeric substrate for the Split-CNN reproduction: a
reverse-mode autodiff engine (:mod:`.autograd`), elementwise / shape /
reduction primitives, and fused neural-network kernels (conv2d, pooling,
batch-norm statistics, cross-entropy).

Importing the package registers the operator methods on :class:`Tensor`.
"""

from __future__ import annotations

from . import ops_basic, ops_nn, ops_reduce, ops_shape
from .autograd import Function, is_grad_enabled, no_grad
from .ops_basic import (
    abs_, add, div, exp, log, matmul, maximum, mul, neg, pow_, sqrt, sub,
    where,
)
from .ops_nn import (
    avg_pool2d, conv2d, cross_entropy, dropout, log_softmax, max_pool2d,
    normalize_pair, normalize_padding2d, relu, sigmoid, softmax, tanh,
)
from .ops_nn import conv_output_size
from .ops_reduce import max_, mean, min_, sum_, var
from .ops_shape import concat, flatten, pad, reshape, slice_, split, transpose
from .tensor import DEFAULT_DTYPE, Tensor, as_tensor

__all__ = [
    "Tensor", "as_tensor", "Function", "no_grad", "is_grad_enabled",
    "DEFAULT_DTYPE",
    # basic
    "add", "sub", "mul", "div", "neg", "pow_", "matmul", "exp", "log",
    "sqrt", "abs_", "maximum", "where",
    # shape
    "reshape", "transpose", "flatten", "pad", "slice_", "concat", "split",
    # reduce
    "sum_", "mean", "max_", "min_", "var",
    # nn
    "conv2d", "max_pool2d", "avg_pool2d", "relu", "sigmoid", "tanh",
    "log_softmax", "softmax", "cross_entropy", "dropout", "conv_output_size",
    "normalize_pair", "normalize_padding2d",
]


def _register_operators() -> None:
    """Attach the functional API as methods/dunders on :class:`Tensor`."""
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, exponent: pow_(self, exponent)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, key: slice_(self, key)

    Tensor.sum = lambda self, axis=None, keepdims=False: sum_(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)
    Tensor.max = lambda self, axis=None, keepdims=False: max_(self, axis, keepdims)
    Tensor.min = lambda self, axis=None, keepdims=False: min_(self, axis, keepdims)
    Tensor.var = lambda self, axis=None, keepdims=False: var(self, axis, keepdims)

    Tensor.reshape = lambda self, *shape: reshape(self, *shape)
    Tensor.transpose = lambda self, axes=None: transpose(self, axes)
    Tensor.flatten = lambda self, start_dim=1: flatten(self, start_dim)
    Tensor.pad = lambda self, pad_width, value=0.0: pad(self, pad_width, value)

    Tensor.exp = lambda self: exp(self)
    Tensor.log = lambda self: log(self)
    Tensor.sqrt = lambda self: sqrt(self)
    Tensor.abs = lambda self: abs_(self)
    Tensor.relu = lambda self: relu(self)
    Tensor.sigmoid = lambda self: sigmoid(self)
    Tensor.tanh = lambda self: tanh(self)


_register_operators()
