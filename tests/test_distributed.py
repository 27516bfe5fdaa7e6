"""Tests for the §6.4 closed form — Figure 11's analytical column."""

import math

import pytest

from repro.experiments import (
    TrainingProfile, allreduce_seconds, analytical_speedup,
)


BASE = TrainingProfile(name="base", batch_size=64,
                       forward_seconds=0.1, backward_seconds=0.2,
                       gradient_bytes=500 * 2**20)
SPLIT = TrainingProfile(name="split", batch_size=384,
                        forward_seconds=0.61, backward_seconds=1.22,
                        gradient_bytes=500 * 2**20)


class TestAllreduce:
    def test_lower_bound_formula(self):
        # 2|G| / (alpha * B), |G| in bytes, B in bits/s.
        seconds = allreduce_seconds(10 * 2**20, 10e9)    # alpha = 0.8
        assert seconds == pytest.approx(2 * 10 * 2**20 * 8 / (0.8 * 10e9))

    def test_scales_inversely_with_bandwidth(self):
        slow = allreduce_seconds(2**20, 1e9)
        fast = allreduce_seconds(2**20, 10e9)
        assert slow == pytest.approx(10 * fast)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            allreduce_seconds(1, 0)
        with pytest.raises(ValueError):
            allreduce_seconds(1, -1e9)


def epoch_seconds(profile, dataset_size, bandwidth_bits_per_s):
    """``T_epoch`` under the paper's §6.4 model."""
    return (dataset_size / profile.batch_size
            * profile.step_seconds(bandwidth_bits_per_s))


class TestEpochModel:
    def test_compute_bound_regime(self):
        # Huge bandwidth: comm hidden behind backward.
        t = epoch_seconds(BASE, dataset_size=640, bandwidth_bits_per_s=1e15)
        assert t == pytest.approx(10 * (0.1 + 0.2))

    def test_bandwidth_bound_regime(self):
        # Tiny bandwidth: epoch dominated by allreduce.
        comm = allreduce_seconds(BASE.gradient_bytes, 1e8)
        t = epoch_seconds(BASE, dataset_size=640, bandwidth_bits_per_s=1e8)
        assert t == pytest.approx(10 * (0.1 + comm))

    def test_max_semantics(self):
        # The pipelined model takes max(backward, comm), not the sum.
        bandwidth = 1e9
        comm = allreduce_seconds(BASE.gradient_bytes, bandwidth)
        step = BASE.step_seconds(bandwidth)
        assert step == pytest.approx(BASE.forward_seconds
                                     + max(BASE.backward_seconds, comm))


class TestSpeedupCurve:
    def test_monotone_nonincreasing_in_bandwidth(self):
        speedups = [analytical_speedup(BASE, SPLIT, gbit,
                                       dataset_size=64 * 100)
                    for gbit in (0.5, 1, 2, 4, 8, 16, 32)]
        assert all(a >= b - 1e-9 for a, b in zip(speedups, speedups[1:]))

    def test_low_bandwidth_limit_is_batch_ratio(self):
        speedup = analytical_speedup(BASE, SPLIT, 1e-4,
                                     dataset_size=64 * 100)
        assert speedup == pytest.approx(SPLIT.batch_size / BASE.batch_size,
                                        rel=0.01)

    def test_high_bandwidth_limit_is_compute_ratio(self):
        speedup = analytical_speedup(BASE, SPLIT, 1e9 * 1e6,
                                     dataset_size=64 * 100)
        per_sample_base = (BASE.forward_seconds + BASE.backward_seconds) / 64
        per_sample_split = (SPLIT.forward_seconds + SPLIT.backward_seconds) / 384
        assert speedup == pytest.approx(per_sample_base / per_sample_split,
                                        rel=0.01)

    def test_speedup_above_two_at_10gbit(self):
        # Paper Figure 11: >=2x speedup at typical cloud bandwidth.
        assert analytical_speedup(BASE, SPLIT, 10,
                                  dataset_size=64 * 100) > 1.5


class TestProfileValidation:
    """A profile that could not have been measured is rejected where it
    is built, not as a ZeroDivisionError inside the sweep."""

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("batch_size", -4),
        ("forward_seconds", -0.1), ("forward_seconds", math.nan),
        ("backward_seconds", math.inf), ("backward_seconds", -1.0),
        ("gradient_bytes", -1),
    ])
    def test_rejects(self, field, value):
        fields = dict(name="m", batch_size=8, forward_seconds=0.1,
                      backward_seconds=0.2, gradient_bytes=1 << 20)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            TrainingProfile(**fields)

    def test_zero_time_and_bytes_are_legal(self):
        # An empty graph profiles to zeros (see _apportion_overhead).
        TrainingProfile(name="empty", batch_size=1, forward_seconds=0.0,
                        backward_seconds=0.0, gradient_bytes=0)
