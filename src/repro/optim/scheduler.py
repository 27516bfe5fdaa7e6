"""Learning-rate schedules.

The paper decays the learning rate by 10x at epochs 150/250 (CIFAR, §5.2.1)
and every 30 epochs (ImageNet, §5.3); :class:`MultiStepLR` reproduces
both recipes (milestones ``[150, 250]`` or ``[30, 60, ...]``).
"""

from __future__ import annotations

from typing import List, Sequence

from .sgd import SGD

__all__ = ["LRScheduler", "MultiStepLR"]


class LRScheduler:
    """Base class: tracks epochs and rewrites the optimizer's ``lr``."""

    def __init__(self, optimizer: SGD) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def get_lr(self) -> float:
        raise NotImplementedError

    def step(self) -> float:
        """Advance one epoch and return the new learning rate."""
        self.epoch += 1
        new_lr = self.get_lr()
        self.optimizer.lr = new_lr
        return new_lr


class MultiStepLR(LRScheduler):
    """Decay the learning rate by ``gamma`` at each epoch in ``milestones``."""

    def __init__(self, optimizer: SGD, milestones: Sequence[int], gamma: float = 0.1) -> None:
        super().__init__(optimizer)
        self.milestones: List[int] = sorted(milestones)
        self.gamma = gamma

    def get_lr(self) -> float:
        passed = sum(1 for milestone in self.milestones if self.epoch >= milestone)
        return self.base_lr * self.gamma ** passed
