"""Addition and matrix multiplication with gradients."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .autograd import Function
from .tensor import Tensor, as_tensor

__all__ = ["add", "matmul"]


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Sums over leading dimensions that were added by broadcasting, then over
    any dimension that was of size 1 in the original operand.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze_axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad


class Add(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return np.add(a, b)

    def backward(self, grad_output: np.ndarray):
        return (
            unbroadcast(grad_output, self.a_shape),
            unbroadcast(grad_output, self.b_shape),
        )


class MatMul(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a, self.b = a, b
        return a @ b

    def backward(self, grad_output: np.ndarray):
        a, b = self.a, self.b
        if a.ndim == 2 and b.ndim == 2:
            return (grad_output @ b.T, a.T @ grad_output)
        # Batched matmul: contract over batch dims when operands broadcast.
        grad_a = grad_output @ np.swapaxes(b, -1, -2)
        grad_b = np.swapaxes(a, -1, -2) @ grad_output
        return (
            unbroadcast(grad_a, np.shape(a)),
            unbroadcast(grad_b, np.shape(b)),
        )


# ----------------------------------------------------------------------
# Functional API
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    return Add.apply(as_tensor(a), as_tensor(b))


def matmul(a, b) -> Tensor:
    return MatMul.apply(as_tensor(a), as_tensor(b))
