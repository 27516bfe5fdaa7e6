"""Elementwise and linear-algebra primitives with gradients."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .autograd import Function
from .tensor import Tensor, as_tensor

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow_", "matmul", "exp", "log",
    "sqrt", "abs_", "maximum", "where",
]


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


class Sub(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return np.subtract(a, b)

    def backward(self, grad_output: np.ndarray):
        return (
            unbroadcast(grad_output, self.a_shape),
            unbroadcast(-grad_output, self.b_shape),
        )


class Mul(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a, self.b = a, b
        return np.multiply(a, b)

    def backward(self, grad_output: np.ndarray):
        return (
            unbroadcast(grad_output * self.b, np.shape(self.a)),
            unbroadcast(grad_output * self.a, np.shape(self.b)),
        )


class Div(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a, self.b = a, b
        return np.divide(a, b)

    def backward(self, grad_output: np.ndarray):
        grad_a = grad_output / self.b
        grad_b = -grad_output * self.a / (self.b * self.b)
        return (
            unbroadcast(grad_a, np.shape(self.a)),
            unbroadcast(grad_b, np.shape(self.b)),
        )


class Neg(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        return -a

    def backward(self, grad_output: np.ndarray):
        return (-grad_output,)


class Pow(Function):
    def forward(self, a: np.ndarray, exponent: float) -> np.ndarray:
        self.a, self.exponent = a, exponent
        return np.power(a, exponent)

    def backward(self, grad_output: np.ndarray):
        grad = grad_output * self.exponent * np.power(self.a, self.exponent - 1)
        return (grad, None)


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


class Exp(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.out = np.exp(a)
        return self.out

    def backward(self, grad_output: np.ndarray):
        return (grad_output * self.out,)


class Log(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.a = a
        return np.log(a)

    def backward(self, grad_output: np.ndarray):
        return (grad_output / self.a,)


class Sqrt(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.out = np.sqrt(a)
        return self.out

    def backward(self, grad_output: np.ndarray):
        return (grad_output / (2.0 * self.out),)


class Abs(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.sign = np.sign(a)
        return np.abs(a)

    def backward(self, grad_output: np.ndarray):
        return (grad_output * self.sign,)


class Maximum(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a, self.b = a, b
        return np.maximum(a, b)

    def backward(self, grad_output: np.ndarray):
        a_wins = (self.a >= self.b).astype(grad_output.dtype)
        return (
            unbroadcast(grad_output * a_wins, np.shape(self.a)),
            unbroadcast(grad_output * (1.0 - a_wins), np.shape(self.b)),
        )


class Where(Function):
    def forward(self, cond: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.cond = cond
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return np.where(cond, a, b)

    def backward(self, grad_output: np.ndarray):
        grad_a = np.where(self.cond, grad_output, 0.0)
        grad_b = np.where(self.cond, 0.0, grad_output)
        return (
            None,
            unbroadcast(grad_a, self.a_shape),
            unbroadcast(grad_b, self.b_shape),
        )


# ----------------------------------------------------------------------
# Functional API
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    return Add.apply(as_tensor(a), as_tensor(b))


def sub(a, b) -> Tensor:
    return Sub.apply(as_tensor(a), as_tensor(b))


def mul(a, b) -> Tensor:
    return Mul.apply(as_tensor(a), as_tensor(b))


def div(a, b) -> Tensor:
    return Div.apply(as_tensor(a), as_tensor(b))


def neg(a) -> Tensor:
    return Neg.apply(as_tensor(a))


def pow_(a, exponent: float) -> Tensor:
    return Pow.apply(as_tensor(a), float(exponent))


def matmul(a, b) -> Tensor:
    return MatMul.apply(as_tensor(a), as_tensor(b))


def exp(a) -> Tensor:
    return Exp.apply(as_tensor(a))


def log(a) -> Tensor:
    return Log.apply(as_tensor(a))


def sqrt(a) -> Tensor:
    return Sqrt.apply(as_tensor(a))


def abs_(a) -> Tensor:
    return Abs.apply(as_tensor(a))


def maximum(a, b) -> Tensor:
    return Maximum.apply(as_tensor(a), as_tensor(b))


def where(cond, a, b) -> Tensor:
    cond_data = cond.data if isinstance(cond, Tensor) else np.asarray(cond)
    return Where.apply(Tensor(cond_data.astype(bool)), as_tensor(a), as_tensor(b))
