"""Unit tests for shape-manipulation primitives."""

import numpy as np
import pytest

from repro.tensor import Tensor, concat, flatten, reshape, slice_, transpose

from conftest import gradcheck


class TestReshapeTranspose:
    def test_reshape_values(self, rng):
        x = rng.standard_normal((2, 6))
        np.testing.assert_allclose(
            reshape(Tensor(x), 3, 4).numpy(), x.reshape(3, 4))

    def test_reshape_tuple_form(self, rng):
        x = rng.standard_normal((2, 6))
        assert reshape(Tensor(x), (4, 3)).shape == (4, 3)

    def test_reshape_grad(self, rng):
        gradcheck(lambda t: reshape(t, 6, 2), rng.standard_normal((3, 4)))

    def test_transpose_default_reverses(self, rng):
        x = rng.standard_normal((2, 3, 4))
        assert transpose(Tensor(x)).shape == (4, 3, 2)

    def test_transpose_axes_grad(self, rng):
        gradcheck(lambda t: transpose(t, (1, 0, 2)),
                  rng.standard_normal((2, 3, 4)))

    def test_flatten(self, rng):
        x = rng.standard_normal((2, 3, 4))
        assert flatten(Tensor(x)).shape == (2, 12)
        assert flatten(Tensor(x), start_dim=0).shape == (24,)


class TestSliceConcatSplit:
    def test_slice_values(self, rng):
        x = rng.standard_normal((4, 5))
        out = slice_(Tensor(x), (slice(1, 3), slice(None)))
        np.testing.assert_allclose(out.numpy(), x[1:3])

    def test_slice_grad(self, rng):
        gradcheck(lambda t: slice_(t, (slice(0, 2), slice(1, 4))),
                  rng.standard_normal((4, 5)))

    def test_concat_values(self, rng):
        parts = [rng.standard_normal((2, 3)) for _ in range(3)]
        out = concat([Tensor(p) for p in parts], axis=1)
        np.testing.assert_allclose(out.numpy(), np.concatenate(parts, axis=1))

    def test_concat_grad(self, rng):
        other = rng.standard_normal((2, 2))
        gradcheck(
            lambda t: concat([t, Tensor(other, dtype=np.float64)], axis=1),
            rng.standard_normal((2, 3)),
        )

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat([], axis=0)
