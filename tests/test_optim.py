"""Unit tests for SGD and the learning-rate schedules."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import SGD, MultiStepLR


def make_param(value=1.0, grad=0.5):
    param = Parameter(np.array([value], dtype=np.float32))
    param.grad = np.array([grad], dtype=np.float32)
    return param


class TestSGD:
    def test_vanilla_step(self):
        p = make_param(1.0, 0.5)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95])

    def test_skips_param_without_grad(self):
        p = make_param()
        p.grad = None
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_weight_decay(self):
        p = make_param(1.0, 0.0)
        SGD([p], lr=0.1, weight_decay=0.1).step()
        np.testing.assert_allclose(p.data, [0.99], rtol=1e-6)

    def test_momentum_accumulates(self):
        p = make_param(0.0, 1.0)
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()          # v=1, w=-1
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()          # v=1.9, w=-2.9
        np.testing.assert_allclose(p.data, [-2.9], rtol=1e-6)

    def test_zero_grad(self):
        p = make_param()
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.0)

    def test_matches_reference_trajectory(self):
        # Reference: classic momentum+wd update computed by hand.
        p = make_param(1.0, 0.2)
        opt = SGD([p], lr=0.1, momentum=0.5, weight_decay=0.01)
        trajectory = []
        for _ in range(3):
            p.grad = np.array([0.2], dtype=np.float32)
            opt.step()
            trajectory.append(float(p.data[0]))
        w, v = 1.0, 0.0
        expected = []
        for _ in range(3):
            g = 0.2 + 0.01 * w
            v = 0.5 * v + g
            w -= 0.1 * v
            expected.append(w)
        np.testing.assert_allclose(trajectory, expected, rtol=1e-5)


class TestSchedulers:
    def _opt(self, lr=1.0):
        return SGD([make_param()], lr=lr)

    def test_multistep_lr_paper_schedule(self):
        # Paper §5.2.1: decay 10x at epochs 150 and 250 of 350.
        opt = self._opt(0.1)
        sched = MultiStepLR(opt, milestones=[150, 250], gamma=0.1)
        lr_by_epoch = {}
        for epoch in range(1, 351):
            lr_by_epoch[epoch] = sched.step()
        assert lr_by_epoch[149] == pytest.approx(0.1)
        assert lr_by_epoch[150] == pytest.approx(0.01)
        assert lr_by_epoch[250] == pytest.approx(0.001)
        assert lr_by_epoch[350] == pytest.approx(0.001)

    def test_multistep_updates_optimizer(self):
        opt = self._opt(1.0)
        sched = MultiStepLR(opt, milestones=[1])
        sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_unsorted_milestones_accepted(self):
        opt = self._opt(1.0)
        sched = MultiStepLR(opt, milestones=[5, 2])
        assert sched.milestones == [2, 5]
