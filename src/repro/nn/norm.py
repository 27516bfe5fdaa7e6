"""Batch normalization (2-D) with a fused forward/backward kernel."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor.autograd import Function
from ..tensor.tensor import as_tensor
from . import init
from .module import Module, Parameter

__all__ = ["BatchNorm2d", "BN_EPS"]

# Batch norm's epsilon, read by the eager layer and by the graph kernels
# (which also record it in ``batchnorm_eval``'s attrs).
BN_EPS = 1e-5


class _BatchNormTrain(Function):
    """Training-mode batch norm over (N, H, W) per channel."""

    def forward(self, x: np.ndarray, gamma: np.ndarray,
                beta: np.ndarray) -> np.ndarray:
        axes = (0, 2, 3)
        mu = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (x - mu) * inv_std
        self.x_hat = x_hat
        self.inv_std = inv_std
        self.gamma = gamma
        self.count = x.shape[0] * x.shape[2] * x.shape[3]
        # Expose batch statistics so the module can update running averages.
        self.batch_mean = mu.reshape(-1)
        self.batch_var = var.reshape(-1)
        return gamma.reshape(1, -1, 1, 1) * x_hat + beta.reshape(1, -1, 1, 1)

    def backward(self, grad_output: np.ndarray):
        axes = (0, 2, 3)
        x_hat, inv_std = self.x_hat, self.inv_std
        m = float(self.count)
        grad_beta = grad_output.sum(axis=axes)
        grad_gamma = (grad_output * x_hat).sum(axis=axes)
        gamma_b = self.gamma.reshape(1, -1, 1, 1)
        term = (
            grad_output
            - grad_beta.reshape(1, -1, 1, 1) / m
            - x_hat * grad_gamma.reshape(1, -1, 1, 1) / m
        )
        grad_x = gamma_b * inv_std * term
        return (grad_x, grad_gamma, grad_beta)


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
            n = fn.count
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
