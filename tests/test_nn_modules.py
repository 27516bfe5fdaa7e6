"""Unit tests for Module machinery and layer modules."""

import numpy as np
import pytest

from conftest import num_parameters

from repro.nn import (
    BatchNorm2d, Conv2d, Dropout, Flatten, GlobalAvgPool2d, Linear,
    MaxPool2d, Module, Parameter, ReLU, Sequential,
)
from repro.tensor import Tensor


class Child(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones(3))

    def forward(self, x):
        return x * self.weight


class Parent(Module):
    def __init__(self):
        super().__init__()
        self.child = Child()
        self.bias = Parameter(np.zeros(3))
        self.running = Tensor(np.ones(3))

    def forward(self, x):
        return self.child(x) + self.bias


class TestRegistration:
    def test_named_parameters_nested(self):
        names = dict(Parent().named_parameters())
        assert set(names) == {"child.weight", "bias"}

    def test_buffers_not_parameters(self):
        parent = Parent()
        assert isinstance(parent.running, Tensor)
        assert "running" not in dict(parent.named_parameters())

    def test_reassignment_replaces_registration(self):
        parent = Parent()
        parent.bias = Parameter(np.ones(4))
        assert dict(parent.named_parameters())["bias"].shape == (4,)

    def test_assign_non_module_removes_child(self):
        parent = Parent()
        parent.child = None
        assert "child.weight" not in dict(parent.named_parameters())

    def test_modules_iterates_tree(self):
        kinds = [type(m).__name__ for m in Parent().modules()]
        assert kinds == ["Parent", "Child"]

    def test_num_parameters(self):
        assert num_parameters(Parent()) == 6


class TestModesAndState:
    def test_train_eval_propagates(self):
        parent = Parent()
        parent.eval()
        assert not parent.child.training
        parent.train()
        assert parent.child.training

    def test_zero_grad(self):
        parent = Parent()
        for p in parent.parameters():
            p.grad = np.ones_like(p.data)
        parent.zero_grad()
        assert all(p.grad is None for p in parent.parameters())


class TestContainers:
    def test_sequential_forward_order(self):
        seq = Sequential(ReLU(), Flatten())
        out = seq(Tensor(np.array([[[-1.0, 2.0]]])))
        np.testing.assert_allclose(out.numpy(), [[0.0, 2.0]])

    def test_sequential_indexing_and_slicing(self):
        relu, flat = ReLU(), Flatten()
        seq = Sequential(relu, flat)
        assert seq[0] is relu
        assert isinstance(seq[0:1], Sequential)
        assert len(seq[0:1]) == 1

    def test_sequential_append(self):
        seq = Sequential(ReLU())
        seq.append(Flatten())
        assert len(seq) == 2

    def test_sequential_registers_parameters(self):
        seq = Sequential(Linear(4, 2), Linear(2, 1))
        assert len(seq.parameters()) == 4

class TestLayers:
    def test_linear_shapes_and_bias(self, rng):
        layer = Linear(8, 3, rng=rng)
        out = layer(Tensor(rng.standard_normal((5, 8)).astype(np.float32)))
        assert out.shape == (5, 3)

    def test_linear_no_bias(self, rng):
        layer = Linear(8, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_conv_module_matches_functional(self, rng):
        layer = Conv2d(2, 4, 3, stride=2, padding=1, rng=rng)
        x = Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32))
        from repro.tensor import conv2d
        expected = conv2d(x, layer.weight, layer.bias, stride=(2, 2),
                          padding=((1, 1), (1, 1)))
        np.testing.assert_allclose(layer(x).numpy(), expected.numpy())

    def test_maxpool_module(self, rng):
        layer = MaxPool2d(2)
        out = layer(Tensor(rng.standard_normal((1, 1, 4, 4))))
        assert out.shape == (1, 1, 2, 2)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        out = GlobalAvgPool2d()(Tensor(x))
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out.numpy()[..., 0, 0],
                                   x.mean(axis=(2, 3)), rtol=1e-5)

    def test_dropout_respects_training_flag(self, rng):
        layer = Dropout(0.9, seed=0)
        x = Tensor(np.ones((10, 10)))
        layer.eval()
        np.testing.assert_allclose(layer(x).numpy(), 1.0)
        layer.train()
        assert (layer(x).numpy() == 0).any()

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestBatchNorm:
    def test_train_normalizes(self, rng):
        bn = BatchNorm2d(4)
        x = Tensor(rng.standard_normal((8, 4, 5, 5)).astype(np.float32) * 3 + 1)
        out = bn(x).numpy()
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor(np.full((4, 2, 3, 3), 10.0, dtype=np.float32))
        bn(x)
        assert (bn.running_mean.data > 0).all()

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        for _ in range(50):
            bn(Tensor(rng.standard_normal((16, 2, 4, 4)).astype(np.float32) * 2 + 3))
        bn.eval()
        x = rng.standard_normal((8, 2, 4, 4)).astype(np.float32) * 2 + 3
        out = bn(Tensor(x)).numpy()
        assert abs(out.mean()) < 0.3

    def test_eval_is_deterministic_affine(self, rng):
        bn = BatchNorm2d(2)
        bn.eval()
        x = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        out1 = bn(Tensor(x)).numpy()
        out2 = bn(Tensor(x)).numpy()
        np.testing.assert_allclose(out1, out2)

    def test_train_gradcheck(self, rng):
        from conftest import gradcheck
        bn = BatchNorm2d(3)
        bn.weight.data = rng.standard_normal(3)
        bn.bias.data = rng.standard_normal(3)

        def fn(t):
            fresh = BatchNorm2d(3)
            fresh.weight.data = bn.weight.data.astype(np.float64)
            fresh.bias.data = bn.bias.data.astype(np.float64)
            return fresh(t)

        gradcheck(fn, rng.standard_normal((4, 3, 3, 3)), rtol=1e-3, atol=1e-5)

    def test_weight_and_bias_get_grads(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        out = bn(x)
        out.backward(np.ones(out.shape))
        assert bn.weight.grad is not None and bn.bias.grad is not None
