"""Stochastic gradient descent with momentum and weight decay.

Matches the paper's training recipe (§5.3): momentum 0.9, weight decay 1e-4.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..nn.module import Parameter

__all__ = ["SGD"]


class SGD:
    """SGD with momentum and classic (L2-in-the-gradient) weight decay.

    Follows the standard formulation: ``v = mu * v + (grad + wd * w)``;
    ``w -= lr * v``.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        """Apply one update using the gradients currently on the parameters."""
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(id(param))
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocity[id(param)] = velocity
                grad = velocity
            param.data = param.data - self.lr * grad
