"""Property tests for split execution of single window ops (paper Eq. 3-7).

The central invariants:

- the split op always produces exactly the unsplit output *shape*;
- ``k == s`` (natural splitting): outputs are bit-exact;
- ``k < s`` (dead gaps between windows): outputs are bit-exact;
- ``k > s``: outputs are exact everywhere except positions whose window
  straddles a patch boundary (the deliberate semantic change of §3);
- gradients flow through patches back to the full input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheme import SplitScheme, WindowSpec, compute_input_split
from repro.core.split_op import plan_split_2d, run_split_op, split_conv2d
from repro.tensor import Tensor, conv2d, max_pool2d


def even_schemes(spec, size, parts):
    out_size = spec.output_size(size)
    return SplitScheme.even(out_size, parts)


def split_pool(x, kernel, scheme):
    """Split-execute an unpadded ``kernel == stride`` max pool per patch."""
    spec = WindowSpec(kernel, kernel)
    plan = plan_split_2d(spec, spec, x.shape[2:], scheme, scheme)
    return run_split_op(x, plan,
                        lambda patch, pad: max_pool2d(patch, kernel, kernel, pad))


class TestShapes:
    @pytest.mark.parametrize("parts", [(1, 1), (2, 2), (2, 3), (3, 3)])
    def test_split_conv_shape_matches_unsplit(self, rng, parts):
        x = Tensor(rng.standard_normal((2, 3, 18, 18)), dtype=np.float64)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), dtype=np.float64)
        ref = conv2d(x, w, None, stride=1, padding=1)
        scheme_h = SplitScheme.even(18, parts[0])
        scheme_w = SplitScheme.even(18, parts[1])
        out = split_conv2d(x, w, None, (1, 1), ((1, 1), (1, 1)),
                           scheme_h, scheme_w)
        assert out.shape == ref.shape

    def test_strided_conv_shape(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 17, 17)), dtype=np.float64)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), dtype=np.float64)
        ref = conv2d(x, w, None, stride=2, padding=1)
        scheme = SplitScheme.even(ref.shape[2], 3)
        out = split_conv2d(x, w, None, (2, 2), ((1, 1), (1, 1)), scheme, scheme)
        assert out.shape == ref.shape


class TestExactCases:
    def test_pool_kernel_equals_stride_exact(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 16, 16)), dtype=np.float64)
        ref = max_pool2d(x, 2, 2)
        scheme = SplitScheme.even(8, 4)
        out = split_pool(x, 2, scheme)
        np.testing.assert_array_equal(out.numpy(), ref.numpy())

    def test_1x1_stride2_conv_exact(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 16, 16)), dtype=np.float64)
        w = Tensor(rng.standard_normal((4, 3, 1, 1)), dtype=np.float64)
        ref = conv2d(x, w, None, stride=2)
        scheme = SplitScheme.even(8, 2)
        out = split_conv2d(x, w, None, (2, 2), ((0, 0), (0, 0)), scheme, scheme)
        np.testing.assert_allclose(out.numpy(), ref.numpy(), rtol=1e-12)

    def test_single_patch_is_identity_transform(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 10, 10)), dtype=np.float64)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), dtype=np.float64)
        ref = conv2d(x, w, None, stride=1, padding=1)
        one = SplitScheme.trivial()
        out = split_conv2d(x, w, None, (1, 1), ((1, 1), (1, 1)), one, one)
        np.testing.assert_allclose(out.numpy(), ref.numpy(), rtol=1e-12)


class TestInteriorExactness:
    def test_conv_exact_away_from_boundaries(self, rng):
        """For k>s, only outputs whose windows touch a patch boundary differ."""
        x = Tensor(rng.standard_normal((1, 2, 16, 16)), dtype=np.float64)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), dtype=np.float64)
        ref = conv2d(x, w, None, stride=1, padding=1).numpy()
        scheme = SplitScheme.even(16, 4)
        out = split_conv2d(x, w, None, (1, 1), ((1, 1), (1, 1)),
                           scheme, scheme).numpy()
        diff = np.abs(out - ref).max(axis=(0, 1))
        boundaries = {4, 8, 12}
        for r in range(16):
            row_crosses = any(r - 1 < b < r + 2 for b in boundaries)
            for c in range(16):
                col_crosses = any(c - 1 < b < c + 2 for b in boundaries)
                if not row_crosses and not col_crosses:
                    assert diff[r, c] < 1e-10, (r, c)

    def test_split_changes_semantics_at_boundaries(self, rng):
        """k>s splitting is NOT semantics-preserving (the paper's §3 point)."""
        x = Tensor(rng.standard_normal((1, 1, 12, 12)), dtype=np.float64)
        w = Tensor(rng.standard_normal((1, 1, 3, 3)), dtype=np.float64)
        ref = conv2d(x, w, None, stride=1, padding=1).numpy()
        scheme = SplitScheme.even(12, 2)
        out = split_conv2d(x, w, None, (1, 1), ((1, 1), (1, 1)),
                           scheme, scheme).numpy()
        assert np.abs(out - ref).max() > 1e-8


class TestGradients:
    def test_gradients_cover_whole_input(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 12, 12)), requires_grad=True,
                   dtype=np.float64)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True,
                   dtype=np.float64)
        scheme = SplitScheme.even(12, 3)
        out = split_conv2d(x, w, None, (1, 1), ((1, 1), (1, 1)), scheme, scheme)
        out.backward(np.ones(out.shape))
        assert x.grad.shape == (1, 2, 12, 12)
        # Every input element is consumed by some patch (I within [lb, ub]),
        # so every gradient entry is populated.
        assert (np.abs(x.grad) > 0).mean() > 0.95
        assert w.grad is not None

    def test_split_conv_gradcheck(self, rng):
        from conftest import gradcheck
        w = rng.standard_normal((2, 2, 3, 3))
        scheme = SplitScheme.even(8, 2)
        gradcheck(
            lambda t: split_conv2d(t, Tensor(w, dtype=np.float64), None,
                                   (1, 1), ((1, 1), (1, 1)), scheme, scheme),
            rng.standard_normal((1, 2, 8, 8)),
        )


class TestRunSplitOp:
    def test_custom_patch_op_receives_padding(self, rng):
        spec = WindowSpec(3, 1, 1, 1)
        plan = plan_split_2d(spec, spec, (12, 12),
                             SplitScheme.even(12, 2), SplitScheme.even(12, 2))
        seen = []

        def patch_op(patch, padding):
            seen.append(padding)
            return conv2d(patch, Tensor(np.ones((1, 1, 3, 3)), dtype=np.float64),
                          None, stride=1, padding=padding)

        x = Tensor(rng.standard_normal((1, 1, 12, 12)), dtype=np.float64)
        out = run_split_op(x, plan, patch_op)
        assert out.shape == (1, 1, 12, 12)
        assert len(seen) == 4
        # First patch keeps the original begin padding.
        assert seen[0][0][0] == 1 and seen[0][1][0] == 1


# ----------------------------------------------------------------------
# Property-based equivalence sweep
# ----------------------------------------------------------------------
@st.composite
def conv_cases(draw):
    kernel = draw(st.integers(1, 4))
    stride = draw(st.integers(1, min(kernel, 2)))
    pad = draw(st.integers(0, kernel - 1))
    size = draw(st.integers(10, 20))
    parts = draw(st.integers(1, 3))
    return kernel, stride, pad, size, parts


@given(conv_cases())
@settings(max_examples=60, deadline=None)
def test_split_conv_shape_property(case):
    kernel, stride, pad, size, parts = case
    rng = np.random.default_rng(0)
    spec = WindowSpec(kernel, stride, pad, pad)
    out_size = spec.output_size(size)
    if out_size < parts:
        return
    scheme = SplitScheme.even(out_size, parts)
    x = Tensor(rng.standard_normal((1, 2, size, size)), dtype=np.float64)
    w = Tensor(rng.standard_normal((2, 2, kernel, kernel)), dtype=np.float64)
    ref = conv2d(x, w, None, stride=stride, padding=pad)
    try:
        out = split_conv2d(x, w, None, (stride, stride),
                           ((pad, pad), (pad, pad)), scheme, scheme)
    except ValueError:
        return  # boundary packing infeasible for this tiny configuration
    assert out.shape == ref.shape
    if kernel == stride:
        np.testing.assert_allclose(out.numpy(), ref.numpy(), rtol=1e-10,
                                   atol=1e-10)


@given(st.integers(2, 4), st.integers(8, 20), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_split_pool_keq_s_always_exact(kernel, size, parts):
    rng = np.random.default_rng(1)
    spec = WindowSpec(kernel, kernel)
    out_size = spec.output_size(size)
    if out_size < parts:
        return
    scheme = SplitScheme.even(out_size, parts)
    x = Tensor(rng.standard_normal((1, 1, size, size)), dtype=np.float64)
    ref = max_pool2d(x, kernel, kernel)
    out = split_pool(x, kernel, scheme)
    np.testing.assert_array_equal(out.numpy(), ref.numpy())
