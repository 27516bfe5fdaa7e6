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
    """A 2-D matrix product (``Linear``'s only shape)."""

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(
                f"matmul takes 2-D operands, got shapes {a.shape} and "
                f"{b.shape}")
        self.a, self.b = a, b
        return a @ b

    def backward(self, grad_output: np.ndarray):
        return (grad_output @ self.b.T, self.a.T @ grad_output)


# ----------------------------------------------------------------------
# Functional API
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    return Add.apply(as_tensor(a), as_tensor(b))


def matmul(a, b) -> Tensor:
    return MatMul.apply(as_tensor(a), as_tensor(b))
