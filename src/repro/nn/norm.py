"""Batch normalization (2-D): the training forward and its gradient as
plain functions (the graph kernels call them too) and the eager layer."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor.autograd import Function
from ..tensor.tensor import as_tensor
from . import init
from .module import Module, Parameter

__all__ = ["BatchNorm2d", "BN_EPS", "batchnorm_forward", "batchnorm_grad"]

# Batch norm's epsilon, read by the eager layer and by the graph kernels
# (which also record it in ``batchnorm_eval``'s attrs).
BN_EPS = 1e-5


_AXES = (0, 2, 3)


def _normalize(x: np.ndarray):
    """(mean, var, inv_std, x_hat) of ``x`` over (N, H, W) per channel —
    the one set of expressions the forward and the gradient share."""
    mu = x.mean(axis=_AXES, keepdims=True)
    var = x.var(axis=_AXES, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    return mu, var, inv_std, (x - mu) * inv_std


def batchnorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Training-mode batch norm: ``(out, mean, var)``, the batch
    statistics per channel."""
    mu, var, _, x_hat = _normalize(x)
    out = gamma.reshape(1, -1, 1, 1) * x_hat + beta.reshape(1, -1, 1, 1)
    return out, mu.reshape(-1), var.reshape(-1)


def batchnorm_grad(x: np.ndarray, gamma: np.ndarray, grad_out: np.ndarray):
    """``(grad_x, grad_gamma, grad_beta)`` of :func:`batchnorm_forward`.
    The statistics and ``x_hat`` are recomputed from ``x`` with the
    forward's own expressions, so they are the forward's bytes."""
    _, _, inv_std, x_hat = _normalize(x)
    m = float(x.shape[0] * x.shape[2] * x.shape[3])
    grad_beta = grad_out.sum(axis=_AXES)
    grad_gamma = (grad_out * x_hat).sum(axis=_AXES)
    term = (
        grad_out
        - grad_beta.reshape(1, -1, 1, 1) / m
        - x_hat * grad_gamma.reshape(1, -1, 1, 1) / m
    )
    grad_x = gamma.reshape(1, -1, 1, 1) * inv_std * term
    return grad_x, grad_gamma, grad_beta


class _BatchNormTrain(Function):
    """Training-mode batch norm over (N, H, W) per channel."""

    def forward(self, x: np.ndarray, gamma: np.ndarray,
                beta: np.ndarray) -> np.ndarray:
        self.x, self.gamma = x, gamma
        # Batch statistics, read by the module to update running averages.
        out, self.batch_mean, self.batch_var = batchnorm_forward(x, gamma,
                                                                 beta)
        return out

    def backward(self, grad_output: np.ndarray):
        return batchnorm_grad(self.x, self.gamma, grad_output)


class _BatchNormEval(Function):
    """Inference-mode batch norm: a per-channel affine transform.  No run
    differentiates it, so it has no backward."""

    def forward(self, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                running_mean: np.ndarray,
                running_var: np.ndarray) -> np.ndarray:
        inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
        scale = (gamma * inv_std).reshape(1, -1, 1, 1)
        centered = x - running_mean.reshape(1, -1, 1, 1)
        return scale * centered + beta.reshape(1, -1, 1, 1)


class BatchNorm2d(Module):
    """Batch normalization over a 4-D input (paper §2.2.1's memory-bound layer).

    Keeps exponential running statistics for inference.  ``momentum`` follows
    the PyTorch convention: ``running = (1 - momentum) * running +
    momentum * batch``.
    """

    def __init__(self, num_features: int, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)), name="bn.weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bn.bias")
        self.running_mean = Tensor(init.zeros((num_features,)))
        self.running_var = Tensor(init.ones((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            fn = _BatchNormTrain()
            out = _apply_function(fn, as_tensor(x), self.weight, self.bias)
            m = self.momentum
            n = x.shape[0] * x.shape[2] * x.shape[3]
            unbias = n / max(1.0, (n - 1.0))
            self.running_mean.data = (
                (1.0 - m) * self.running_mean.data + m * fn.batch_mean
            ).astype(self.running_mean.data.dtype)
            self.running_var.data = (
                (1.0 - m) * self.running_var.data + m * fn.batch_var * unbias
            ).astype(self.running_var.data.dtype)
            return out
        return _BatchNormEval.apply(
            as_tensor(x), self.weight, self.bias,
            self.running_mean.data, self.running_var.data,
        )

    def extra_repr(self) -> str:
        return f"{self.num_features}, momentum={self.momentum}"


def _apply_function(fn: Function, *args, **kwargs):
    """Run a pre-constructed Function instance through the apply protocol.

    Mirrors :meth:`Function.apply` but lets the caller keep a handle on the
    context (needed to read batch statistics after the forward pass).
    """
    from ..tensor.autograd import is_grad_enabled

    raw_args = [a.data if isinstance(a, Tensor) else a for a in args]
    out_data = fn.forward(*raw_args, **kwargs)
    requires_grad = is_grad_enabled() and any(
        isinstance(a, Tensor) and a.requires_grad for a in args
    )
    out = Tensor(out_data, requires_grad=requires_grad)
    if requires_grad:
        fn.parents = args
        out._ctx = fn
    return out
