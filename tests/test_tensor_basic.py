"""Unit tests for the Tensor class, add / matmul and the autograd engine."""

import numpy as np
import pytest

from repro.tensor import Tensor, is_grad_enabled, no_grad

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
        t = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        assert t.shape == (2, 3, 4)
        assert t.size == 24
        assert t.ndim == 3
        assert t.nbytes == 24 * 4

    def test_item_scalar(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)

    def test_item_non_scalar_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2))).item()

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([0.0], requires_grad=True))


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0])

    def test_scalar_radd(self):
        out = 1.0 + Tensor([1.0, 2.0])
        np.testing.assert_allclose(out.numpy(), [2.0, 3.0])

    def test_matmul_2d(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        b = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.numpy(), a @ b)

    def test_matmul_batched(self):
        """Only 2-D products have a backward: a batched operand is
        rejected, not run forward-only."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 2, 3))
        b = rng.standard_normal((5, 3, 4))
        with pytest.raises(ValueError, match="2-D operands"):
            Tensor(a) @ Tensor(b)
        with pytest.raises(ValueError, match="2-D operands"):
            Tensor(a[0]) @ Tensor(b)


class TestBroadcastGradients:
    def test_add_broadcast_grad(self, rng):
        b0 = rng.standard_normal((1, 4))
        gradcheck(lambda x: x + Tensor(b0, dtype=np.float64),
                  rng.standard_normal((3, 4)))

    def test_add_broadcast_to_smaller_operand(self, rng):
        big = rng.standard_normal((3, 4))
        gradcheck(lambda x: Tensor(big, dtype=np.float64) + x,
                  rng.standard_normal((1, 4)))

    def test_matmul_grad(self, rng):
        b = rng.standard_normal((3, 4))
        gradcheck(lambda x: x @ Tensor(b, dtype=np.float64),
                  rng.standard_normal((2, 3)))

    def test_matmul_grad_rhs(self, rng):
        a = rng.standard_normal((2, 3))
        gradcheck(lambda x: Tensor(a, dtype=np.float64) @ x,
                  rng.standard_normal((3, 4)))


class TestAutogradMachinery:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x + 2.0
        assert y._ctx is None and not y.requires_grad
        assert is_grad_enabled()

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([2.0], requires_grad=True)
        (x + 1.0).backward(np.array([1.0]))
        (x + 1.0).backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_diamond_graph_accumulation(self):
        x = Tensor([2.0], requires_grad=True, dtype=np.float64)
        y = x + x
        z = y + y  # grad wrt x should be 4
        z.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [4.0])

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x + 1.0).backward()

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
        (x + c).backward(np.array([1.0]))
        assert c.grad is None
