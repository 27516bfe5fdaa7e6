"""Activation and regularization modules."""

from __future__ import annotations

from typing import Optional

from ..tensor import Tensor, dropout, relu
from .module import Module

__all__ = ["ReLU", "Dropout"]


class ReLU(Module):
    """Rectified linear unit.

    ``inplace`` is accepted for API familiarity and recorded as a hint for
    the HMMS in-place-ReLU storage optimization (paper §4.2); the numeric
    computation itself is always out-of-place in this numpy substrate.
    """

    def __init__(self, inplace: bool = True) -> None:
        super().__init__()
        self.inplace = inplace

    def forward(self, x: Tensor) -> Tensor:
        return relu(x)

    def extra_repr(self) -> str:
        return f"inplace={self.inplace}"


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(self, p: float = 0.5, seed: Optional[int] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.seed = seed

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.p, training=self.training, seed=self.seed)

    def extra_repr(self) -> str:
        return f"p={self.p}"
