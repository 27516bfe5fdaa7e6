"""Unit tests for synthetic datasets and the DataLoader."""

import numpy as np
import pytest

from repro.data import DataLoader, GratingsDataset, ShapesDataset, make_dataset


class TestDatasets:
    @pytest.mark.parametrize("cls", [GratingsDataset, ShapesDataset])
    def test_deterministic_per_index(self, cls):
        ds = cls(num_samples=20, seed=3)
        x1, y1 = ds[7]
        x2, y2 = ds[7]
        np.testing.assert_array_equal(x1, x2)
        assert y1 == y2

    def test_shapes_and_dtype(self):
        ds = ShapesDataset(num_samples=10, image_size=16, channels=3)
        x, y = ds[0]
        assert x.shape == (3, 16, 16) and x.dtype == np.float32
        assert isinstance(y, int)

    def test_labels_balanced_cycle(self):
        ds = ShapesDataset(num_samples=12, num_classes=4)
        labels = [ds[i][1] for i in range(12)]
        assert labels == [i % 4 for i in range(12)]

    def test_different_seeds_differ(self):
        a = ShapesDataset(num_samples=5, seed=1)
        b = ShapesDataset(num_samples=5, seed=2)
        assert not np.array_equal(a[0][0], b[0][0])

    def test_out_of_range_raises(self):
        ds = ShapesDataset(num_samples=3)
        with pytest.raises(IndexError):
            ds[3]
        with pytest.raises(IndexError):
            ds[-1]

    def test_batch_materialization(self):
        ds = GratingsDataset(num_samples=10, image_size=8)
        x, y = ds.batch([0, 2, 4])
        assert x.shape == (3, 3, 8, 8)
        assert y.tolist() == [0, 2, 4]

    def test_all_shape_kinds_render(self):
        ds = ShapesDataset(num_samples=10, num_classes=10, noise=0.0)
        for i in range(10):
            x, _ = ds[i]
            assert np.isfinite(x).all()
            assert x.std() > 0  # a shape is actually drawn

    def test_noise_zero_is_clean(self):
        clean = ShapesDataset(num_samples=4, noise=0.0, seed=5)
        x1, _ = clean[1]
        x2, _ = clean[1]
        np.testing.assert_array_equal(x1, x2)

    def test_factory(self):
        assert isinstance(make_dataset("shapes", num_samples=2), ShapesDataset)
        assert isinstance(make_dataset("gratings", num_samples=2), GratingsDataset)
        with pytest.raises(ValueError):
            make_dataset("imagenet")


class TestDataLoader:
    def _ds(self, n=10):
        return ShapesDataset(num_samples=n, image_size=8, num_classes=2)

    def test_batch_count(self):
        assert len(DataLoader(self._ds(10), batch_size=3)) == 4

    def test_iterates_all_samples(self):
        loader = DataLoader(self._ds(10), batch_size=3, shuffle=False)
        total = sum(len(y) for _, y in loader)
        assert total == 10

    def test_last_batch_holds_remainder(self):
        loader = DataLoader(self._ds(10), batch_size=3)
        sizes = [len(y) for _, y in loader]
        assert sizes == [3, 3, 3, 1]

    def test_shuffle_changes_across_epochs(self):
        loader = DataLoader(self._ds(16), batch_size=16, shuffle=True, seed=0)
        _, y1 = next(iter(loader))
        _, y2 = next(iter(loader))
        assert not np.array_equal(y1, y2)

    def test_no_shuffle_is_ordered(self):
        loader = DataLoader(self._ds(6), batch_size=6, shuffle=False)
        _, y = next(iter(loader))
        assert y.tolist() == [0, 1, 0, 1, 0, 1]

    def test_same_seed_same_first_epoch(self):
        a = DataLoader(self._ds(16), batch_size=16, shuffle=True, seed=9)
        b = DataLoader(self._ds(16), batch_size=16, shuffle=True, seed=9)
        np.testing.assert_array_equal(next(iter(a))[1], next(iter(b))[1])

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._ds(4), batch_size=0)

    def test_yields_tensor_inputs(self):
        from repro.tensor import Tensor
        x, y = next(iter(DataLoader(self._ds(4), batch_size=2)))
        assert isinstance(x, Tensor)
        assert y.dtype == np.int64
