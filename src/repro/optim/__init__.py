"""``repro.optim`` — optimizers and learning-rate schedules."""

from .scheduler import LRScheduler, MultiStepLR
from .sgd import SGD

__all__ = ["SGD", "LRScheduler", "MultiStepLR"]
