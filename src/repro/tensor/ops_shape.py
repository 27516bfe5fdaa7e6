"""Shape-manipulation primitives: reshape, transpose, slice, concat.

``slice_``/``concat`` are the building blocks of the Split-CNN
transformation (``repro.core``): patches are produced with ``slice_``,
window operations run per patch with per-patch padding (an argument of
``conv2d``/``max_pool2d``), and outputs are re-joined with ``concat``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .autograd import Function
from .tensor import Tensor, as_tensor

__all__ = ["reshape", "transpose", "flatten", "slice_", "concat"]


class Reshape(Function):
    def forward(self, a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        self.original_shape = a.shape
        return a.reshape(shape)

    def backward(self, grad_output: np.ndarray):
        return (grad_output.reshape(self.original_shape), None)


class Transpose(Function):
    def forward(self, a: np.ndarray, axes: Optional[Tuple[int, ...]]) -> np.ndarray:
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        self.axes = axes
        return np.transpose(a, axes)

    def backward(self, grad_output: np.ndarray):
        inverse = np.argsort(self.axes)
        return (np.transpose(grad_output, inverse), None)


class Slice(Function):
    def forward(self, a: np.ndarray, key) -> np.ndarray:
        self.in_shape = a.shape
        self.key = key
        out = a[key]
        return out.copy() if isinstance(out, np.ndarray) and out.base is not None else np.asarray(out)

    def backward(self, grad_output: np.ndarray):
        grad = np.zeros(self.in_shape, dtype=grad_output.dtype)
        grad[self.key] = grad_output
        return (grad, None)


class Concat(Function):
    def forward(self, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        self.axis = axis
        self.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad_output: np.ndarray):
        boundaries = np.cumsum(self.sizes)[:-1]
        return tuple(np.split(grad_output, boundaries, axis=self.axis))


# ----------------------------------------------------------------------
# Functional API
# ----------------------------------------------------------------------
def reshape(a, *shape: Union[int, Tuple[int, ...]]) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Reshape.apply(as_tensor(a), tuple(shape))


def transpose(a, axes: Optional[Sequence[int]] = None) -> Tensor:
    return Transpose.apply(as_tensor(a), tuple(axes) if axes is not None else None)


def flatten(a, start_dim: int = 1) -> Tensor:
    tensor = as_tensor(a)
    lead = tensor.shape[:start_dim]
    tail = int(np.prod(tensor.shape[start_dim:])) if tensor.ndim > start_dim else 1
    return reshape(tensor, lead + (tail,))


def slice_(a, key) -> Tensor:
    return Slice.apply(as_tensor(a), key)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat expects at least one tensor")
    return Concat.apply(*tensors, axis=axis)
