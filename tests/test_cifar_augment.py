"""Tests for the CIFAR-10 binary loader."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset, CIFAR10_MEAN, CIFAR10_STD, DataLoader, load_cifar10,
)
from repro.data.cifar import RECORD_BYTES, TEST_FILES, TRAIN_FILES


def write_fake_batch(path, num_records=10, seed=0):
    """Write a synthetic but format-valid CIFAR-10 binary batch."""
    rng = np.random.default_rng(seed)
    records = np.empty((num_records, RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 10, num_records)
    records[:, 1:] = rng.integers(0, 256, (num_records, RECORD_BYTES - 1))
    path.write_bytes(records.tobytes())
    return records


@pytest.fixture
def cifar_dir(tmp_path):
    for name in TRAIN_FILES:
        write_fake_batch(tmp_path / name, num_records=8,
                         seed=hash(name) % 1000)
    write_fake_batch(tmp_path / TEST_FILES[0], num_records=6, seed=99)
    return tmp_path


class TestLoader:
    def test_train_loads_all_batches(self, cifar_dir):
        dataset = load_cifar10(cifar_dir, train=True)
        assert len(dataset) == 5 * 8
        assert dataset.images.shape == (40, 3, 32, 32)
        assert dataset.images.dtype == np.float32

    def test_test_split(self, cifar_dir):
        dataset = load_cifar10(cifar_dir, train=False)
        assert len(dataset) == 6

    def test_normalization_applied(self, cifar_dir):
        raw = load_cifar10(cifar_dir, train=False, normalize=False)
        norm = load_cifar10(cifar_dir, train=False, normalize=True)
        assert raw.images.max() > 1.5          # still in [0, 255]
        expected = (raw.images / 255.0
                    - CIFAR10_MEAN.reshape(1, 3, 1, 1)) \
            / CIFAR10_STD.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(norm.images, expected, rtol=1e-5)

    def test_labels_preserved(self, cifar_dir):
        records = write_fake_batch(cifar_dir / "test_batch.bin", 6, seed=99)
        dataset = load_cifar10(cifar_dir, train=False, normalize=False)
        np.testing.assert_array_equal(dataset.labels, records[:, 0])

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10(tmp_path)

    def test_corrupt_size_rejected(self, tmp_path):
        (tmp_path / "test_batch.bin").write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError):
            load_cifar10(tmp_path, train=False)

    def test_bad_label_rejected(self, tmp_path):
        bad = np.zeros(RECORD_BYTES, dtype=np.uint8)
        bad[0] = 42
        (tmp_path / "test_batch.bin").write_bytes(bad.tobytes())
        with pytest.raises(ValueError):
            load_cifar10(tmp_path, train=False)

    def test_dataloader_integration(self, cifar_dir):
        dataset = load_cifar10(cifar_dir, train=False)
        loader = DataLoader(dataset, batch_size=4, shuffle=False)
        x, y = next(iter(loader))
        assert x.shape == (4, 3, 32, 32)
        assert y.dtype == np.int64


class TestArrayDataset:
    def test_protocol(self):
        dataset = ArrayDataset(np.zeros((4, 3, 8, 8), np.float32),
                               np.arange(4, dtype=np.int64))
        x, y = dataset[2]
        assert x.shape == (3, 8, 8) and y == 2
        bx, by = dataset.batch([0, 3])
        assert bx.shape == (2, 3, 8, 8) and by.tolist() == [0, 3]
        with pytest.raises(IndexError):
            dataset[4]

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((2, 3, 8, 8), np.float32),
                         np.zeros(3, np.int64))
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((2, 8, 8), np.float32),
                         np.zeros(2, np.int64))

    def test_subset(self):
        dataset = ArrayDataset(np.zeros((10, 3, 4, 4), np.float32),
                               np.arange(10, dtype=np.int64))
        sub = dataset.subset(4, seed=1)
        assert len(sub) == 4
        with pytest.raises(ValueError):
            dataset.subset(11)
