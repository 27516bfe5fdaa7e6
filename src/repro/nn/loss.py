"""Loss functions."""

from __future__ import annotations

from ..tensor import Tensor, cross_entropy
from .module import Module

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss(Module):
    """Mean cross-entropy over integer class targets (fused log-softmax)."""

    def forward(self, logits: Tensor, targets) -> Tensor:
        return cross_entropy(logits, targets)

