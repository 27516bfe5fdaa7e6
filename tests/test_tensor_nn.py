"""Unit tests for the fused NN primitives: conv, max pooling, ReLU, losses."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor, conv2d, conv_output_size, cross_entropy, dropout, max_pool2d,
    normalize_padding2d, normalize_pair, relu,
)

from conftest import gradcheck


class TestNormalizers:
    def test_pair_from_int(self):
        assert normalize_pair(3) == (3, 3)

    def test_pair_from_sequence(self):
        assert normalize_pair([2, 4]) == (2, 4)

    def test_pair_wrong_length(self):
        with pytest.raises(ValueError):
            normalize_pair((1, 2, 3))

    def test_padding_from_int(self):
        assert normalize_padding2d(2) == ((2, 2), (2, 2))

    def test_padding_from_pair(self):
        assert normalize_padding2d((1, 3)) == ((1, 1), (3, 3))

    def test_padding_full_form(self):
        assert normalize_padding2d(((1, 0), (0, 2))) == ((1, 0), (0, 2))

    def test_output_size(self):
        assert conv_output_size(224, 3, 1, 1, 1) == 224
        assert conv_output_size(224, 7, 2, 3, 3) == 112
        assert conv_output_size(5, 3, 2, 1, 0) == 2


class TestConv2d:
    def test_known_values(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        w = np.array([[[[1.0, 0.0], [0.0, 2.0]]]])
        out = conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.numpy()[0, 0], [[8, 11], [17, 20]])

    def test_matches_bruteforce(self, rng):
        x = rng.standard_normal((2, 3, 6, 7))
        w = rng.standard_normal((4, 3, 3, 2))
        out = conv2d(Tensor(x), Tensor(w), stride=(2, 1)).numpy()
        n, k, ho, wo = out.shape
        for b in range(n):
            for o in range(k):
                for i in range(ho):
                    for j in range(wo):
                        window = x[b, :, 2 * i:2 * i + 3, j:j + 2]
                        expected = (window * w[o]).sum()
                        assert out[b, o, i, j] == pytest.approx(expected, rel=1e-5)

    def test_bias_added(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        b = np.array([1.0, -2.0, 0.5])
        without = conv2d(Tensor(x), Tensor(w)).numpy()
        with_bias = conv2d(Tensor(x), Tensor(w), Tensor(b)).numpy()
        np.testing.assert_allclose(with_bias, without + b.reshape(1, 3, 1, 1),
                                   rtol=1e-6)

    def test_asymmetric_padding_shape(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 5)))
        w = Tensor(rng.standard_normal((1, 1, 3, 3)))
        out = conv2d(x, w, padding=((2, 0), (0, 1)))
        assert out.shape == (1, 1, 5, 4)

    def test_negative_padding_crops(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 6, 6)))
        w = Tensor(rng.standard_normal((1, 1, 3, 3)))
        out = conv2d(x, w, padding=((-1, 0), (0, -1)))
        assert out.shape == (1, 1, 3, 3)

    @pytest.mark.parametrize("stride,padding", [
        (1, 0), (2, 1), ((1, 2), ((1, 0), (0, 1))), (1, ((-1, 1), (0, 0))),
    ])
    def test_input_grad(self, rng, stride, padding):
        w = rng.standard_normal((2, 2, 3, 3))
        gradcheck(
            lambda t: conv2d(t, Tensor(w, dtype=np.float64), None,
                             stride=stride, padding=padding),
            rng.standard_normal((1, 2, 6, 6)),
        )

    def test_weight_grad(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        gradcheck(
            lambda t: conv2d(Tensor(x, dtype=np.float64), t, None, padding=1),
            rng.standard_normal((3, 2, 3, 3)),
        )

    def test_bias_grad(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        gradcheck(
            lambda t: conv2d(Tensor(x, dtype=np.float64),
                             Tensor(w, dtype=np.float64), t),
            rng.standard_normal((3,)),
        )


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.numpy()[0, 0], [[5, 7], [13, 15]])

    def test_default_stride_is_kernel(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 6, 6)))
        assert max_pool2d(x, 3).shape == (1, 1, 2, 2)

    def test_overlapping_pool_shape(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 7, 7)))
        assert max_pool2d(x, 3, 2).shape == (1, 1, 3, 3)

    def test_max_pool_padding_uses_neg_inf(self, rng):
        x = Tensor(-np.abs(rng.standard_normal((1, 1, 4, 4))))
        out = max_pool2d(x, 2, 2, padding=1)
        # With -inf padding, border outputs equal real (negative) maxima,
        # never the padding value.
        assert np.isfinite(out.numpy()).all()
        assert (out.numpy() <= 0).all()

    def test_max_pool_grad(self, rng):
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        gradcheck(lambda t: max_pool2d(t, 2, 2), x)

    def test_max_pool_overlap_grad(self, rng):
        x = rng.permutation(49).astype(np.float64).reshape(1, 1, 7, 7)
        gradcheck(lambda t: max_pool2d(t, 3, 2), x)


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.numpy(), [0.0, 0.0, 2.0])

    def test_relu_grad(self, rng):
        x = rng.standard_normal((4, 4))
        x[np.abs(x) < 0.1] = 0.5
        gradcheck(lambda t: relu(t), x)


class TestCrossEntropyAndDropout:
    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = cross_entropy(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(4), rel=1e-5)

    def test_cross_entropy_grad(self, rng):
        targets = np.array([1, 0, 4])
        gradcheck(lambda t: cross_entropy(t, targets),
                  rng.standard_normal((3, 5)))

    def test_dropout_eval_identity(self, rng):
        x = rng.standard_normal((4, 4))
        out = dropout(Tensor(x), p=0.5, training=False)
        np.testing.assert_allclose(out.numpy(), x)

    def test_dropout_scales_survivors(self, rng):
        x = np.ones((100, 100))
        out = dropout(Tensor(x), p=0.5, training=True, seed=0).numpy()
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.4 < (out != 0).mean() < 0.6

    def test_dropout_grad_masks(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True, dtype=np.float64)
        out = dropout(x, p=0.5, training=True, seed=1)
        out.backward(np.ones(out.shape))
        mask = out.numpy() != 0
        np.testing.assert_allclose(x.grad[mask], 2.0)
        np.testing.assert_allclose(x.grad[~mask], 0.0)
