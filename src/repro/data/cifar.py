"""CIFAR-10 loading (the paper's §5 dataset) from the binary distribution.

The reproduction's experiments default to synthetic data because no
dataset ships with the repository, but a user who has the standard
`cifar-10-batches-bin` directory (from
``cifar-10-binary.tar.gz``) can run the accuracy experiments on the real
thing: :func:`load_cifar10` parses the binary record format (1 label byte
+ 3072 pixel bytes per record) into an :class:`ArrayDataset` that plugs
into :class:`~repro.data.DataLoader` and the experiment drivers.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["ArrayDataset", "load_cifar10", "CIFAR10_MEAN", "CIFAR10_STD"]

PathLike = Union[str, pathlib.Path]

RECORD_BYTES = 1 + 3 * 32 * 32
TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILES = ("test_batch.bin",)

# Standard per-channel statistics of the CIFAR-10 training set.
CIFAR10_MEAN = np.array([0.4914, 0.4822, 0.4465], dtype=np.float32)
CIFAR10_STD = np.array([0.2470, 0.2435, 0.2616], dtype=np.float32)


@dataclass
class ArrayDataset:
    """In-memory dataset with the same protocol as the synthetic ones."""

    images: np.ndarray          # (N, C, H, W) float32
    labels: np.ndarray          # (N,) int64

    def __post_init__(self) -> None:
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels")
        if self.images.ndim != 4:
            raise ValueError(f"images must be NCHW, got {self.images.shape}")

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} out of range [0, {len(self)})")
        return self.images[index], int(self.labels[index])

    def batch(self, indices) -> Tuple[np.ndarray, np.ndarray]:
        indices = np.fromiter((int(i) for i in indices), dtype=np.int64)
        return self.images[indices], self.labels[indices]


def _parse_batch_file(path: pathlib.Path) -> Tuple[np.ndarray, np.ndarray]:
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size == 0 or raw.size % RECORD_BYTES != 0:
        raise ValueError(
            f"{path} is not a CIFAR-10 binary batch: size {raw.size} is not "
            f"a multiple of the {RECORD_BYTES}-byte record"
        )
    records = raw.reshape(-1, RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise ValueError(f"{path} contains label > 9; corrupt file?")
    images = records[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels


def load_cifar10(
    root: PathLike,
    train: bool = True,
    normalize: bool = True,
    files: Optional[Sequence[str]] = None,
) -> ArrayDataset:
    """Load CIFAR-10 from a ``cifar-10-batches-bin`` directory.

    Parameters
    ----------
    root: directory containing the ``*.bin`` batch files.
    train: load the five training batches (True) or the test batch.
    normalize: scale to [0, 1] and standardize with the canonical
        per-channel statistics; otherwise return raw float32 in [0, 255].
    files: override the file list (useful for partial loads).
    """
    root = pathlib.Path(root)
    if files is None:
        files = TRAIN_FILES if train else TEST_FILES
    missing = [name for name in files if not (root / name).exists()]
    if missing:
        raise FileNotFoundError(
            f"CIFAR-10 batch files not found under {root}: {missing}"
        )
    image_parts, label_parts = [], []
    for name in files:
        images, labels = _parse_batch_file(root / name)
        image_parts.append(images)
        label_parts.append(labels)
    images = np.concatenate(image_parts).astype(np.float32)
    labels = np.concatenate(label_parts)
    if normalize:
        images /= 255.0
        images -= CIFAR10_MEAN.reshape(1, 3, 1, 1)
        images /= CIFAR10_STD.reshape(1, 3, 1, 1)
    return ArrayDataset(images=images, labels=labels)
