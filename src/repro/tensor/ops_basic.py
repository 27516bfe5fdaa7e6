"""Addition and matrix multiplication with gradients."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .autograd import Function
from .tensor import Tensor, as_tensor

__all__ = ["add", "matmul"]


#: OpenBLAS hands a GEMM with ``M*N*K`` at or under this to small-matrix
#: kernels (``gemm_small_matrix_permit``), and ``M == 1`` to gemv; both sum
#: over K in another order than the blocked kernel every larger product
#: takes, so the same pixel's bytes would differ between a tiny patch and
#: the unsplit image (measured for K >= 576; ``docs/compiler.md``).
SMALL_GEMM_MNK = 1_000_000


def _blocked_gemm_rows(o: int, k: int) -> int:
    """Fewest pixel rows that put a ``(rows, k) @ (k, o)`` product on the
    blocked GEMM kernel."""
    return max(2, SMALL_GEMM_MNK // (o * k) + 1)


def blocked_dot(a: np.ndarray, b: np.ndarray, order: str = "C") -> np.ndarray:
    """``a @ b`` for a 2-D ``a`` whose rows are pixels or images, each row
    computed by the blocked GEMM kernel.

    A product under the small-matrix gate gets zero rows past it, laid out
    in ``order`` (``a``'s own memory order, so BLAS sees the operand it
    would see unpadded), and sliced off (a copy, so the result does not
    hold the padded product): a row's bytes do not depend on how many
    other rows share the call — one image or a batch of four, a tiny
    patch or the unsplit image.
    """
    rows, k = a.shape
    blocked = _blocked_gemm_rows(b.shape[1], k)
    if rows >= blocked:
        return np.dot(a, b)
    padded = np.zeros((blocked, k), dtype=a.dtype, order=order)
    padded[:rows] = a
    return np.dot(padded, b)[:rows].copy()


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
        return blocked_dot(a, b)

    def backward(self, grad_output: np.ndarray):
        return (grad_output @ self.b.T, self.a.T @ grad_output)


# ----------------------------------------------------------------------
# Functional API
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    return Add.apply(as_tensor(a), as_tensor(b))


def matmul(a, b) -> Tensor:
    return MatMul.apply(as_tensor(a), as_tensor(b))
