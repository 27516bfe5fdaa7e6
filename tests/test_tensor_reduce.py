"""Unit tests for the mean reduction."""

import numpy as np

from repro.tensor import Tensor, mean

from conftest import gradcheck


class TestValues:
    def test_mean_axis(self, rng):
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(mean(Tensor(x), axis=1).numpy(),
                                   x.mean(axis=1), rtol=1e-6)

    def test_negative_axis(self, rng):
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(mean(Tensor(x), axis=-1).numpy(),
                                   x.mean(axis=-1), rtol=1e-6)


class TestGradients:
    def test_mean_grad(self, rng):
        gradcheck(lambda t: mean(t, axis=(0, 2)), rng.standard_normal((2, 3, 4)))

    def test_mean_keepdims_grad(self, rng):
        gradcheck(lambda t: mean(t, axis=1, keepdims=True),
                  rng.standard_normal((3, 4)))
