"""Smoke tests for the experiment drivers (tiny configurations)."""

import hashlib

import numpy as np
import pytest

from repro.experiments import (
    PAPER_BANDWIDTHS, ExperimentConfig, compare_schedulers, format_table,
    max_batch_size, render_fig1, render_fig11, run_fig1, run_fig11,
    run_fig9_timelines, stochastic_comparison, sweep_depth,
)
from repro.experiments.accuracy import GRID_OF_SPLITS, make_datasets, make_model
from repro.hmms import HMMSPlanner
from repro.models import small_vgg
from repro.profile import P100_NVLINK


TINY = ExperimentConfig(
    model="small_resnet", num_classes=3, image_size=16,
    train_samples=48, test_samples=24, epochs=1, batch_size=16,
)


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [(1, 2.34567), (10, 3.0)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.346" in text
        assert "|" in lines[1] and "+" in lines[2] and "|" in lines[3]

class TestFig1Driver:
    def test_runs_on_subset(self):
        result = run_fig1(batch_size=8, models=["resnet18"])
        assert "resnet18" in result.analyses
        assert result.fraction("resnet18") > 0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            run_fig1(models=["lenet"])

    def test_render(self):
        result = run_fig1(batch_size=8, models=["resnet18"])
        text = render_fig1(result, per_layer=True)
        assert "Figure 1" in text
        assert "per-layer" in text


class TestAccuracyDrivers:
    def test_grid_mapping(self):
        assert GRID_OF_SPLITS[4] == (2, 2)
        assert GRID_OF_SPLITS[9] == (3, 3)
        assert all(h * w == n for n, (h, w) in GRID_OF_SPLITS.items())

    def test_make_datasets_disjoint_seeds(self):
        train, test = make_datasets(TINY)
        assert len(train) == 48 and len(test) == 24
        assert not np.array_equal(train[0][0], test[0][0])

    def test_make_model_variants(self):
        assert make_model(TINY).name == "small-resnet"
        vgg_config = ExperimentConfig(model="small_vgg", image_size=16)
        assert make_model(vgg_config).name == "small-vgg"
        with pytest.raises(ValueError):
            make_model(ExperimentConfig(model="lenet"))

    def test_sweep_depth_tiny(self):
        points = sweep_depth(TINY, depths=(0.0, 0.6))
        assert len(points) == 2
        assert points[0].achieved_depth == 0.0
        assert points[1].achieved_depth > 0.0
        assert all(0 <= p.test_error <= 1 for p in points)

    def test_stochastic_comparison_tiny(self):
        results = stochastic_comparison(TINY, depth=0.6)
        assert set(results) == {"baseline", "scnn", "sscnn"}
        assert results["sscnn"].achieved_depth > 0


class TestThroughputDrivers:
    def test_compare_schedulers_tiny(self, rng):
        comparison = compare_schedulers(small_vgg(rng=rng), batch_size=8)
        assert set(comparison.outcomes) == {"none", "layerwise", "hmms"}
        assert comparison.degradation("none") == 0.0
        assert comparison.outcomes["hmms"].throughput > 0

    def test_fig9_timelines(self):
        timelines = run_fig9_timelines(batch_size=8, width=40)
        assert set(timelines) == {"none", "layerwise", "hmms"}
        for text in timelines.values():
            assert "compute" in text


class TestBatchScaling:
    def test_max_batch_monotone_in_capacity(self, rng):
        model_builder = lambda: small_vgg(rng=np.random.default_rng(0))
        planner = HMMSPlanner(scheduler="none")
        small_dev = P100_NVLINK.with_(memory_capacity=256 << 20)
        large_dev = P100_NVLINK.with_(memory_capacity=1 << 30)
        small_batch, _ = max_batch_size(model_builder, planner, small_dev,
                                        step=8)
        large_batch, _ = max_batch_size(model_builder, planner, large_dev,
                                        step=8)
        assert large_batch > small_batch

    def test_peak_at_max_fits(self, rng):
        model_builder = lambda: small_vgg(rng=np.random.default_rng(0))
        planner = HMMSPlanner(scheduler="none")
        device = P100_NVLINK.with_(memory_capacity=256 << 20)
        batch, peak = max_batch_size(model_builder, planner, device,
                                     step=8)
        assert peak <= device.memory_capacity

    def test_does_not_fit_at_all_raises(self, rng):
        model_builder = lambda: small_vgg(rng=np.random.default_rng(0))
        planner = HMMSPlanner(scheduler="none")
        device = P100_NVLINK.with_(memory_capacity=1 << 20)
        with pytest.raises(ValueError):
            max_batch_size(model_builder, planner, device, step=8)


class TestFig11Driver:
    def test_speedup_curve_shape(self):
        result = run_fig11(base_batch=8, split_batch_factor=4)
        assert [p.bandwidth_gbit for p in result.points] \
            == list(PAPER_BANDWIDTHS)
        for column in ("analytical_speedup", "measured_speedup"):
            speedups = [getattr(p, column) for p in result.points]
            assert speedups == sorted(speedups, reverse=True)
        assert result.speedup_at(10) > 1.0
        with pytest.raises(KeyError):
            result.speedup_at(64)

    def test_render(self):
        result = run_fig11(base_batch=8, split_batch_factor=2)
        text = render_fig11(result)
        assert "Figure 11" in text
        assert "analytical" in text and "measured" in text

    @pytest.mark.parametrize("kwargs,match", [
        (dict(devices=0), "devices"),
        (dict(split_batch_factor=0), "split_batch_factor"),
    ])
    def test_rejects_bad_arguments(self, kwargs, match):
        # On 92fcb94 these were a ZeroDivisionError, an empty result, or
        # a ValueError from inside the mesh after both models had been
        # planned.  ``model_factory=None`` proves nothing is built first.
        with pytest.raises(ValueError, match=match):
            run_fig11(model_factory=None, **kwargs)


# ----------------------------------------------------------------------
# Golden digests recorded from 92fcb94, where Figure 11 lived twice: a
# closed-form-only driver and a closed-form + mesh driver.  The one
# ``run_fig11`` must reproduce both, bit for bit.
# ----------------------------------------------------------------------
def _profile_fields(profile):
    return (profile.name, profile.batch_size, profile.forward_seconds.hex(),
            profile.backward_seconds.hex(), profile.gradient_bytes)


def _analytical_digest(result) -> str:
    """blake2b over both profiles and the closed form's (bandwidth,
    speedup) curve — every field the old ``Fig11Result`` had."""
    return hashlib.blake2b(repr((
        _profile_fields(result.baseline), _profile_fields(result.split),
        tuple((float(p.bandwidth_gbit).hex(), p.analytical_speedup.hex())
              for p in result.points),
    )).encode(), digest_size=16).hexdigest()


def _full_digest(result) -> str:
    """blake2b over every field the old measured result had."""
    return hashlib.blake2b(repr((
        _profile_fields(result.baseline), _profile_fields(result.split),
        result.devices, result.topology,
        tuple((float(p.bandwidth_gbit).hex(), p.analytical_speedup.hex(),
               p.measured_speedup.hex(), p.base_step_seconds.hex(),
               p.split_step_seconds.hex(),
               tuple(x.hex() for x in p.base_bracket),
               tuple(x.hex() for x in p.split_bracket))
              for p in result.points),
    )).encode(), digest_size=16).hexdigest()


SMALL_SWEEP = dict(model_factory=small_vgg, base_batch=4, split_depth=0.5)
#: Recorded on the code before the sweep's bandwidths and |D| became
#: constants, passing ``PAPER_BANDWIDTHS`` and the ImageNet |D| explicitly.
SMALL_GOLDEN = {
    ("ring", 4): "dafedc17e272233e03faaa92e1f16485",
    ("bus", 3): "ca2a8d0073ccd0849cda1aad154852c5",
    ("p2p", 2): "8cb52b926ac3b6cc7ca039ba9fd9fcfa",
}


class TestFig11Golden:
    def test_default_reproduces_both_old_drivers(self):
        result = run_fig11()
        assert _analytical_digest(result) \
            == "4c4b91893767ccf6c5c9c3c112b3fb64"      # closed-form driver
        assert _full_digest(result) \
            == "a7f4d49c4e31ead80afca14512fcf9cc"      # mesh driver
        result.check()
        result.assert_monotone()
        # The three 10 Gbit/s numbers EXPERIMENTS.md sets side by side.
        (at_10,) = [p for p in result.points if p.bandwidth_gbit == 10]
        assert f"{at_10.analytical_speedup:.3f}" == "3.184"
        assert f"{at_10.measured_speedup:.3f}" == "2.473"

    def test_small_batch_analytical_column(self):
        result = run_fig11(base_batch=8, split_batch_factor=4)
        assert _analytical_digest(result) \
            == "fc181057211c7b432b97f294c9419f80"

    @pytest.mark.parametrize("shuffle_seed", [None, 42])
    @pytest.mark.parametrize("topology,devices", list(SMALL_GOLDEN))
    def test_small_sweeps(self, topology, devices, shuffle_seed):
        result = run_fig11(devices=devices, topology=topology,
                           shuffle_seed=shuffle_seed, **SMALL_SWEEP)
        assert _full_digest(result) == SMALL_GOLDEN[topology, devices]


class TestDatasetChoice:
    def test_gratings_configuration(self):
        config = ExperimentConfig(dataset="gratings", num_classes=3,
                                  image_size=16, train_samples=32,
                                  test_samples=16, epochs=1)
        train, test = make_datasets(config)
        from repro.data import GratingsDataset
        assert isinstance(train, GratingsDataset)
        assert len(train) == 32 and len(test) == 16

    def test_gratings_task_is_learnable(self):
        """Local texture is discriminative, so even one epoch of a tiny
        model beats chance on gratings — the 'splitting barely hurts'
        dataset regime described in repro.data.synthetic."""
        from repro.experiments.accuracy import train_variant
        config = ExperimentConfig(dataset="gratings", model="small_vgg",
                                  num_classes=3, image_size=16,
                                  train_samples=96, test_samples=48,
                                  epochs=3, lr=0.01)
        result, _ = train_variant(config, depth=0.0, grid=(1, 1))
        assert result.final_test_error < 0.55   # chance is 0.67
