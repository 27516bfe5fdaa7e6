"""Minibatch iteration over datasets."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..tensor import Tensor
from .synthetic import SyntheticImageDataset

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate a dataset in minibatches of ``(Tensor x, ndarray y)``.

    Reshuffles every epoch when ``shuffle`` is set; deterministic under the
    given seed (epoch count folds into the shuffle stream).  The last batch
    holds the remainder when the dataset does not divide evenly.
    """

    def __init__(
        self,
        dataset: SyntheticImageDataset,
        batch_size: int,
        shuffle: bool = True,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.seed = seed
        self._epoch = 0

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[Tensor, np.ndarray]]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            rng = np.random.default_rng(self.seed * 7_919 + self._epoch)
            rng.shuffle(order)
        self._epoch += 1
        for start in range(0, n, self.batch_size):
            x, y = self.dataset.batch(order[start:start + self.batch_size])
            yield Tensor(x), y
