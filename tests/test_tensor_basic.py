"""Unit tests for elementwise/linear-algebra autograd primitives."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor, abs_, exp, is_grad_enabled, log, matmul, maximum, no_grad, sqrt,
    where,
)

from conftest import gradcheck


class TestConstruction:
    def test_preserves_float64(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_preserves_float32(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_explicit_dtype(self):
        t = Tensor([1, 2, 3], dtype=np.float32)
        assert t.dtype == np.float32

    def test_int_preserved(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "i"

    def test_shape_size_ndim(self):
        t = Tensor.zeros(2, 3, 4)
        assert t.shape == (2, 3, 4)
        assert t.size == 24
        assert t.ndim == 3
        assert t.nbytes == 24 * 4

    def test_factories(self):
        assert (Tensor.ones(2, 2).numpy() == 1).all()
        assert (Tensor.zeros(2, 2).numpy() == 0).all()
        r = Tensor.randn(3, 3, rng=np.random.default_rng(0))
        assert r.shape == (3, 3)

    def test_item_scalar(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)

    def test_item_non_scalar_raises(self):
        with pytest.raises(ValueError):
            Tensor.zeros(2, 2).item()

    def test_len(self):
        assert len(Tensor.zeros(5, 2)) == 5

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor.zeros(1, requires_grad=True))


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0])

    def test_scalar_radd(self):
        out = 1.0 + Tensor([1.0, 2.0])
        np.testing.assert_allclose(out.numpy(), [2.0, 3.0])

    def test_sub_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).numpy(), [2.0])
        np.testing.assert_allclose((1.0 - Tensor([3.0])).numpy(), [-2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([3.0]) * 2.0).numpy(), [6.0])
        np.testing.assert_allclose((Tensor([3.0]) / 2.0).numpy(), [1.5])
        np.testing.assert_allclose((6.0 / Tensor([3.0])).numpy(), [2.0])

    def test_neg_pow(self):
        np.testing.assert_allclose((-Tensor([2.0])).numpy(), [-2.0])
        np.testing.assert_allclose((Tensor([2.0]) ** 3).numpy(), [8.0])

    def test_matmul_2d(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        b = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.numpy(), a @ b)

    def test_matmul_batched(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 2, 3))
        b = rng.standard_normal((5, 3, 4))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b)


class TestBroadcastGradients:
    def test_add_broadcast_grad(self, rng):
        b0 = rng.standard_normal((1, 4))
        gradcheck(lambda x: x + Tensor(b0, dtype=np.float64),
                  rng.standard_normal((3, 4)))

    def test_add_broadcast_to_smaller_operand(self, rng):
        big = rng.standard_normal((3, 4))
        gradcheck(lambda x: Tensor(big, dtype=np.float64) + x,
                  rng.standard_normal((1, 4)))

    def test_mul_broadcast_grad(self, rng):
        other = rng.standard_normal((4,))
        gradcheck(lambda x: x * Tensor(other, dtype=np.float64),
                  rng.standard_normal((2, 3, 4)))

    def test_div_grad_both_sides(self, rng):
        denom = rng.standard_normal((3, 3)) + 3.0
        gradcheck(lambda x: x / Tensor(denom, dtype=np.float64),
                  rng.standard_normal((3, 3)))
        numer = rng.standard_normal((3, 3))
        gradcheck(lambda x: Tensor(numer, dtype=np.float64) / x,
                  rng.standard_normal((3, 3)) + 3.0)

    def test_matmul_grad(self, rng):
        b = rng.standard_normal((3, 4))
        gradcheck(lambda x: x @ Tensor(b, dtype=np.float64),
                  rng.standard_normal((2, 3)))

    def test_matmul_grad_rhs(self, rng):
        a = rng.standard_normal((2, 3))
        gradcheck(lambda x: Tensor(a, dtype=np.float64) @ x,
                  rng.standard_normal((3, 4)))


class TestUnaryOps:
    def test_exp_grad(self, rng):
        gradcheck(lambda x: exp(x), rng.standard_normal((3, 3)))

    def test_log_grad(self, rng):
        gradcheck(lambda x: log(x), rng.uniform(0.5, 2.0, (3, 3)))

    def test_sqrt_grad(self, rng):
        gradcheck(lambda x: sqrt(x), rng.uniform(0.5, 2.0, (3, 3)))

    def test_abs_grad(self, rng):
        x = rng.standard_normal((3, 3))
        x[np.abs(x) < 0.2] += 0.5  # stay away from the kink
        gradcheck(lambda t: abs_(t), x)

    def test_pow_grad(self, rng):
        gradcheck(lambda x: x ** 3.0, rng.uniform(0.5, 1.5, (3, 3)))

class TestBinaryExtrema:
    def test_maximum_values(self, rng):
        a, b = rng.standard_normal((3,)), rng.standard_normal((3,))
        np.testing.assert_allclose(
            maximum(Tensor(a), Tensor(b)).numpy(), np.maximum(a, b))

    def test_maximum_grad(self, rng):
        b = rng.standard_normal((3, 3))
        a = b + rng.choice([-1.0, 1.0], (3, 3)) * 0.5  # no ties
        gradcheck(lambda x: maximum(x, Tensor(b, dtype=np.float64)), a)

    def test_where_values_and_grad(self, rng):
        cond = rng.random((3, 3)) > 0.5
        b = rng.standard_normal((3, 3))
        out = where(cond, Tensor(b), Tensor(-b))
        np.testing.assert_allclose(out.numpy(), np.where(cond, b, -b))
        gradcheck(lambda x: where(cond, x, Tensor(b, dtype=np.float64)),
                  rng.standard_normal((3, 3)))


class TestAutogradMachinery:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y._ctx is None and not y.requires_grad
        assert is_grad_enabled()

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3.0).backward(np.array([1.0]))
        (x * 3.0).backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph_accumulation(self):
        x = Tensor([2.0], requires_grad=True, dtype=np.float64)
        y = x * 3.0
        z = y + y  # grad wrt x should be 6
        z.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor.zeros(2, 2, requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 1.0).backward()

    def test_retain_grad_on_intermediate(self):
        x = Tensor([1.0], requires_grad=True)
        mid = x * 2.0
        mid.retain_grad()
        (mid * 3.0).sum().backward()
        np.testing.assert_allclose(mid.grad, [3.0])

    def test_detach_severs_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad and y._ctx is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True, dtype=np.float64)
        y = x
        for _ in range(3000):
            y = y + 0.0
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_grad_for_constant_operand(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        (x * c).sum().backward()
        assert c.grad is None
