"""Training loop used by the accuracy experiments (paper §5).

Reproduces the paper's recipe shape — SGD with momentum 0.9, weight decay
1e-4, step-decayed learning rate — at a scale the numpy substrate can
train in seconds (see the substitution table in DESIGN.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..data import DataLoader, SyntheticImageDataset
from ..models.base import ConvClassifier
from ..nn import CrossEntropyLoss
from ..optim import SGD, MultiStepLR
from ..tensor import no_grad

__all__ = ["EpochStats", "TrainResult", "evaluate", "train_classifier"]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    test_error: float
    lr: float
    seconds: float


@dataclass
class TrainResult:
    """History of one training run."""

    model: ConvClassifier
    history: List[EpochStats] = field(default_factory=list)

    @property
    def final_test_error(self) -> float:
        return self.history[-1].test_error if self.history else float("nan")

    @property
    def best_test_error(self) -> float:
        return min(s.test_error for s in self.history) if self.history else float("nan")

    def error_curve(self) -> List[float]:
        return [s.test_error for s in self.history]


def evaluate(model: ConvClassifier, dataset: SyntheticImageDataset,
             batch_size: int = 64) -> float:
    """Classification error rate of ``model`` on ``dataset`` (eval mode)."""
    model.eval()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    wrong = 0
    total = 0
    with no_grad():
        for x, y in loader:
            logits = model(x)
            predictions = logits.numpy().argmax(axis=1)
            wrong += int((predictions != y).sum())
            total += len(y)
    model.train()
    return wrong / total if total else float("nan")


def train_classifier(
    model: ConvClassifier,
    train_dataset: SyntheticImageDataset,
    test_dataset: SyntheticImageDataset,
    epochs: int = 8,
    batch_size: int = 32,
    lr: float = 0.05,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    milestones: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> TrainResult:
    """Train ``model`` and record per-epoch loss and test error.

    ``milestones`` defaults to decaying the learning rate by 10x at 50% and
    80% of the run — the same proportions as the paper's CIFAR schedule
    (150/250 out of 350 epochs).
    """
    if milestones is None:
        milestones = (max(1, int(epochs * 0.5)), max(2, int(epochs * 0.8)))
    loader = DataLoader(train_dataset, batch_size=batch_size, shuffle=True,
                        seed=seed)
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum,
                    weight_decay=weight_decay)
    scheduler = MultiStepLR(optimizer, milestones=milestones, gamma=0.1)
    criterion = CrossEntropyLoss()
    result = TrainResult(model=model)
    model.train()
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        losses: List[float] = []
        for x, y in loader:
            optimizer.zero_grad()
            logits = model(x)
            loss = criterion(logits, y)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        test_error = evaluate(model, test_dataset, batch_size=batch_size)
        stats = EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            test_error=test_error,
            lr=optimizer.lr,
            seconds=time.perf_counter() - started,
        )
        result.history.append(stats)
        scheduler.step()
    return result
