"""Tests for the ring allreduce and the data-parallel trainer (§6.4)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import ShapesDataset
from repro.mesh import DataParallelTrainer, RingAllreduce
from repro.models import small_vgg
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.tensor import Tensor


class TestRingAllreduce:
    def test_sums_correctly(self, rng):
        world = 4
        arrays = [rng.standard_normal(37) for _ in range(world)]
        results, _ = RingAllreduce(world).allreduce(arrays)
        expected = np.sum(arrays, axis=0)
        for result in results:
            np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_single_worker_is_identity(self, rng):
        array = rng.standard_normal(10)
        results, stats = RingAllreduce(1).allreduce([array])
        np.testing.assert_array_equal(results[0], array)
        assert stats.bytes_sent_per_worker == 0

    def test_traffic_matches_bandwidth_optimal_bound(self, rng):
        """Per-worker traffic is 2|G|(W-1)/W -> the paper's 2|G| bound."""
        for world in (2, 3, 4, 8):
            arrays = [np.zeros(world * 25) for _ in range(world)]
            _, stats = RingAllreduce(world).allreduce(arrays)
            expected = 2 * stats.payload_bytes * (world - 1) / world
            assert stats.bytes_sent_per_worker == pytest.approx(expected)
            assert stats.lower_bound_ratio() == pytest.approx(
                (world - 1) / world)
            assert stats.steps == 2 * (world - 1)

    def test_bound_used_by_epoch_model_is_asymptote(self):
        """The §6.4 model charges 2|G| per step; the implemented ring sends
        2|G|(W-1)/W, approaching that bound from below as W grows."""
        ratios = []
        for world in (2, 4, 8, 16):
            arrays = [np.zeros(world * 16) for _ in range(world)]
            _, stats = RingAllreduce(world).allreduce(arrays)
            ratios.append(stats.bytes_sent_per_worker
                          / (2 * stats.payload_bytes))
        assert all(r < 1.0 for r in ratios)
        assert ratios == sorted(ratios)          # monotone toward 1
        assert ratios[-1] > 0.9

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RingAllreduce(0)
        with pytest.raises(ValueError):
            RingAllreduce(2).allreduce([np.zeros(4)])
        with pytest.raises(ValueError):
            RingAllreduce(2).allreduce([np.zeros(4), np.zeros(5)])

    @given(world=st.integers(2, 6), size=st.integers(1, 64),
           seed=st.integers(0, 99))
    @settings(max_examples=50, deadline=None)
    def test_allreduce_property(self, world, size, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(size) for _ in range(world)]
        results, stats = RingAllreduce(world).allreduce(arrays)
        expected = np.sum(arrays, axis=0)
        for result in results:
            np.testing.assert_allclose(result, expected, rtol=1e-10,
                                       atol=1e-10)
        assert stats.bytes_sent_per_worker <= 2 * stats.payload_bytes


class TestDataParallelTrainer:
    def _data(self, batch):
        dataset = ShapesDataset(num_samples=batch, image_size=16,
                                num_classes=3, seed=0)
        return dataset.batch(range(batch))

    def test_matches_single_worker_full_batch(self):
        """W workers on batch shards == 1 worker on the full batch
        (no batch-norm in the model, so the equivalence is exact)."""
        x, y = self._data(8)
        reference = small_vgg(num_classes=3, input_size=16,
                              config=[8, "M", 16, "M"],
                              rng=np.random.default_rng(5))
        parallel_model = copy.deepcopy(reference)

        optimizer = SGD(reference.parameters(), lr=0.1, momentum=0.9)
        criterion = CrossEntropyLoss()
        optimizer.zero_grad()
        criterion(reference(Tensor(x)), y).backward()
        optimizer.step()

        trainer = DataParallelTrainer(parallel_model, world_size=4,
                                      lr=0.1, momentum=0.9)
        trainer.train_step(x, y)

        for ref, par in zip(reference.parameters(),
                            trainer.replicas[0].parameters()):
            np.testing.assert_allclose(par.data, ref.data, rtol=1e-4,
                                       atol=1e-6)

    def test_replicas_stay_in_sync(self):
        x, y = self._data(8)
        model = small_vgg(num_classes=3, input_size=16, config=[8, "M"],
                          rng=np.random.default_rng(1))
        trainer = DataParallelTrainer(model, world_size=2, lr=0.05)
        for _ in range(3):
            trainer.train_step(x, y)
            assert trainer.replicas_in_sync(atol=1e-12)

    def test_loss_decreases(self):
        x, y = self._data(16)
        model = small_vgg(num_classes=3, input_size=16, config=[8, "M", 16],
                          rng=np.random.default_rng(2))
        trainer = DataParallelTrainer(model, world_size=4, lr=0.05)
        first = trainer.train_step(x, y)
        for _ in range(5):
            last = trainer.train_step(x, y)
        assert last < first

    def test_traffic_stats_exposed(self):
        x, y = self._data(4)
        model = small_vgg(num_classes=3, input_size=16, config=[8, "M"],
                          rng=np.random.default_rng(3))
        trainer = DataParallelTrainer(model, world_size=2, lr=0.01)
        trainer.train_step(x, y)
        stats = trainer.last_stats
        assert stats is not None
        # Payload is the float64 flat gradient (trainer.gradient_bytes is
        # the float32 deployment figure).
        assert stats.payload_bytes == 2 * trainer.gradient_bytes
        assert stats.bytes_sent_per_worker == pytest.approx(
            2 * stats.payload_bytes * (2 - 1) / 2)

    def test_batch_must_divide(self):
        model = small_vgg(num_classes=3, input_size=16, config=[8, "M"],
                          rng=np.random.default_rng(4))
        trainer = DataParallelTrainer(model, world_size=3)
        x, y = self._data(4)
        with pytest.raises(ValueError):
            trainer.train_step(x, y)

    def test_world_size_one(self):
        x, y = self._data(4)
        model = small_vgg(num_classes=3, input_size=16, config=[8, "M"],
                          rng=np.random.default_rng(6))
        trainer = DataParallelTrainer(model, world_size=1, lr=0.05)
        loss = trainer.train_step(x, y)
        assert np.isfinite(loss)
