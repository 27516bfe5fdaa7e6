"""The mean reduction (global average pooling) with its gradient."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .autograd import Function
from .tensor import Tensor, as_tensor

__all__ = ["mean"]

Axes = Optional[Union[int, Tuple[int, ...]]]


def _normalize_axes(axis: Axes, ndim: int) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_like(grad: np.ndarray, in_shape: Tuple[int, ...], axes: Optional[Tuple[int, ...]],
                 keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axes is None:
        return np.broadcast_to(grad, in_shape)
    if not keepdims:
        grad = np.expand_dims(grad, axes)
    return np.broadcast_to(grad, in_shape)


class Mean(Function):
    def forward(self, a: np.ndarray, axis: Axes, keepdims: bool) -> np.ndarray:
        self.in_shape = a.shape
        self.axes = _normalize_axes(axis, a.ndim)
        self.keepdims = keepdims
        if self.axes is None:
            self.count = a.size
        else:
            self.count = int(np.prod([a.shape[ax] for ax in self.axes]))
        return a.mean(axis=self.axes, keepdims=keepdims)

    def backward(self, grad_output: np.ndarray):
        grad = _expand_like(grad_output, self.in_shape, self.axes, self.keepdims)
        return (np.ascontiguousarray(grad) / self.count, None, None)


# ----------------------------------------------------------------------
# Functional API
# ----------------------------------------------------------------------
def mean(a, axis: Axes = None, keepdims: bool = False) -> Tensor:
    return Mean.apply(as_tensor(a), axis, keepdims)
