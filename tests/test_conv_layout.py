"""The conv column buffer changes the memory layout of im2col, not the
GEMM: ``Conv2d.forward`` must return the bytes of the formulation it
replaced.

The reference below *is* that formulation — ``tensordot`` over the
``(N, C, Ho, Wo, kh, kw)`` window view — kept inside this test.  Both feed
BLAS the same product with pixels as GEMM rows (M = pixels, N = O,
K = C*kh*kw); only the pixel operand's storage order differs.

One caveat is BLAS's, not ours: on CPUs where OpenBLAS ships small-matrix
kernels, the reference's operand order ("TN") is the one combination that
takes a dot-product kernel when pixels * O <= 1200 (and K >= 32), whose
bits differ from the blocked kernel every larger product — and the column
layout at every size — goes through.  All 44 zoo shapes are outside that
corner at batch 1 and 2; the hand-picked cases are chosen outside it too,
so the matrix holds whichever kernels the host has.

The column layout has a corner of its own, and patches do reach it: a
product with pixels * O * K <= 1_000_000 goes to the small-matrix kernels
(and a single pixel row to gemv), whose bits differ from the blocked
kernel's once K >= 576.  ``Conv2d.forward`` pads such a product with zero
pixel rows past the gate; the scan at the bottom pins both that and where
the host BLAS puts the gate.
"""

import numpy as np
import pytest

from repro.core import to_split_cnn
from repro.graph import build_inference_graph
from repro.models import alexnet, small_vgg, vgg11
from repro.nn import init
from repro.tensor import Tensor, conv2d
from repro.tensor.ops_nn import (
    Conv2d, _blocked_gemm_rows, _im2col, _pad_spatial, _window_view,
)


def _tensordot_forward(x, weight, bias, stride, padding):
    view = _window_view(_pad_spatial(x, padding), weight.shape[2:], stride)
    out = np.tensordot(view, weight, axes=([1, 4, 5], [1, 2, 3]))
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def _tensordot_backward_weight(x, weight, grad, stride, padding):
    view = _window_view(_pad_spatial(x, padding), weight.shape[2:], stride)
    return np.tensordot(grad, view, axes=([0, 2, 3], [0, 2, 3]))


def _zoo_conv_cases():
    """Every distinct conv2d (input, weight, stride, padding) of vgg11
    (CIFAR and ImageNet heads), alexnet and small_vgg, unsplit and split
    2x2 at depth 0.5 — the 44 shapes tabulated in docs/compiler.md,
    alexnet's 11x11 stride-4 and 5x5 layers with the asymmetric padding
    their patches get included."""
    with init.fast_init():
        bases = [vgg11(), vgg11(dataset="imagenet", num_classes=1000),
                 alexnet(), small_vgg()]
    cases = {}
    for base in bases:
        for model in (base, to_split_cnn(base, depth=0.5, num_splits=(2, 2))):
            graph = build_inference_graph(model, 1)
            for op in graph.ops:
                if op.op_type == "conv2d":
                    x, weight = (graph.tensors[t].shape for t in op.inputs[:2])
                    cases[x, weight, tuple(op.attrs["stride"])] = tuple(
                        map(tuple, op.attrs["padding"]))
    return [key + (padding,) for key, padding in cases.items()]


ZOO_CASES = _zoo_conv_cases()
EXTRA_CASES = [
    # stride-2 3x3 on odd, unequal extents
    ((2, 16, 33, 31), (24, 16, 3, 3), (2, 2), ((1, 1), (1, 1))),
    # negative (cropping) and asymmetric padding
    ((2, 8, 21, 19), (32, 8, 3, 3), (1, 1), ((1, -1), (-2, 2))),
    # the benchmark's patch shape and a 1x1 conv
    ((2, 16, 66, 66), (16, 16, 3, 3), (1, 1), ((0, 0), (0, 0))),
    ((2, 64, 9, 7), (48, 64, 1, 1), (1, 1), ((0, 0), (0, 0))),
]


def test_zoo_matrix_is_the_documented_one():
    assert len(ZOO_CASES) == 44
    kernels = {(weight[2], stride[0]) for _, weight, stride, _ in ZOO_CASES}
    assert {(11, 4), (5, 1), (3, 1)} <= kernels


@pytest.mark.parametrize("x_shape,w_shape,stride,padding",
                         ZOO_CASES + EXTRA_CASES)
def test_forward_bytes_equal_tensordot_formulation(x_shape, w_shape, stride,
                                                   padding):
    rng = np.random.default_rng(0)
    for batch in (x_shape[0], 2):
        for dtype in (np.float64, np.float32):
            x = rng.standard_normal((batch,) + x_shape[1:]).astype(dtype)
            weight = rng.standard_normal(w_shape).astype(dtype)
            bias = rng.standard_normal(w_shape[0]).astype(dtype)
            expected = _tensordot_forward(x, weight, bias, stride, padding)
            actual = Conv2d().forward(x, weight, bias, stride, padding)
            assert actual.dtype == expected.dtype
            assert actual.flags.c_contiguous
            assert actual.tobytes() == expected.tobytes()


def test_im2col_rejects_what_window_view_rejects():
    x = np.zeros((1, 2, 4, 4))
    for kernel, stride in (((5, 3), (1, 1)), ((3, 5), (2, 2))):
        with pytest.raises(ValueError) as from_view:
            _window_view(x, kernel, stride)
        with pytest.raises(ValueError) as from_cols:
            _im2col(x, kernel, stride)
        assert str(from_cols.value) == str(from_view.value)
        assert "does not fit input" in str(from_cols.value)


def test_im2col_is_the_window_view_channel_major():
    x = np.random.default_rng(0).standard_normal((2, 3, 9, 8))
    cols = _im2col(x, (3, 2), (2, 1))
    view = _window_view(x, (3, 2), (2, 1))            # (N, C, Ho, Wo, kh, kw)
    assert cols.flags.c_contiguous
    np.testing.assert_array_equal(cols, view.transpose(1, 4, 5, 0, 2, 3))


@pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
    ((2, 3, 16, 16), (64, 3, 3, 3), (1, 1), ((1, 1), (1, 1))),
    ((2, 512, 1, 1), (512, 512, 3, 3), (1, 1), ((1, 1), (1, 1))),
] + EXTRA_CASES)
def test_backward_weight_is_one_kernel_on_every_path(x_shape, w_shape, stride,
                                                     padding):
    """``backward_weight`` is held to *cross-path* identity only.

    Its GEMM is the old product with the pixel operand read through a
    transposed view, and BLAS rounds that differently on small products
    such as the first-layer shape ``(2,3,16,16)->64``, so bytes are not
    pinned to the ``tensordot`` formulation — closeness to it is.  What
    must hold exactly is that every path gets the same bits, and that
    holds by construction: eager autograd, the interpreter, the compiled
    plan (per-sibling slices of a stacked context) and the mesh-spatial
    strategy all call this one method.
    """
    rng = np.random.default_rng(1)
    x = rng.standard_normal(x_shape)
    weight = rng.standard_normal(w_shape)
    fn = Conv2d()
    out = fn.forward(x, weight, None, stride, padding)
    grad = rng.standard_normal(out.shape)
    direct = fn.backward_weight(grad)
    assert direct.shape == w_shape

    reference = _tensordot_backward_weight(x, weight, grad, stride, padding)
    np.testing.assert_allclose(direct, reference, rtol=1e-12,
                               atol=1e-12 * np.abs(reference).max())

    w_tensor = Tensor(weight, requires_grad=True, dtype=np.float64)
    conv2d(Tensor(x, dtype=np.float64), w_tensor, None, stride=stride,
           padding=padding).backward(grad)
    assert w_tensor.grad.tobytes() == direct.tobytes()

    # A sibling-stacked context sliced per patch (what the compiled plan
    # does) is the standalone context.
    stacked = Conv2d()
    stacked.forward(np.concatenate([x, x[::-1]]), weight, None, stride,
                    padding)
    stacked.xp = stacked.xp[:x_shape[0]]
    assert stacked.backward_weight(grad).tobytes() == direct.tobytes()


# ----------------------------------------------------------------------
# The small-GEMM gate: a pixel's bytes may not depend on its patch size
# ----------------------------------------------------------------------
SCAN = [(o, c) for o in (16, 32, 64, 128) for c in (3, 16, 64, 128)]


def _gate_sizes(o, k, limit=4096):
    gate = _blocked_gemm_rows(o, k)
    sizes = {1, 2, 3, 7, gate - 1, gate, gate + 1, 2 * gate}
    return gate, sorted(p for p in sizes if 1 <= p <= limit)


@pytest.mark.parametrize("o,c", SCAN)
def test_tiny_patches_compute_the_big_image_bytes(o, c):
    """3x3 convs, K = 27 ... 1152: P output pixels computed alone are the
    first P pixels of a 4096-pixel row, byte for byte, on both sides of
    the gate (measured before the fix: they differ iff P*O*K <= 1e6 with
    K >= 576, and always at P == 1)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, c, 3, 4098))
    weight = rng.standard_normal((o, c, 3, 3))
    bias = rng.standard_normal(o)
    none = ((0, 0), (0, 0))
    big = Conv2d().forward(x, weight, bias, (1, 1), none)
    _, sizes = _gate_sizes(o, 9 * c)
    for pixels in sizes:
        patch = np.ascontiguousarray(x[..., :pixels + 2])
        out = Conv2d().forward(patch, weight, bias, (1, 1), none)
        assert out.tobytes() == big[..., :pixels].tobytes(), pixels


@pytest.mark.parametrize("o,c", SCAN)
def test_host_blas_gate_is_not_above_ours(o, c):
    """At and above the rows ``Conv2d.forward`` pads to, the raw product's
    rows must already be the blocked kernel's: a BLAS that moves its
    small-matrix gate up fails here, loudly, instead of in a digest."""
    rng = np.random.default_rng(1)
    k = 9 * c
    cols = rng.standard_normal((k, 4096))
    w2d = rng.standard_normal((o, k))
    full = np.dot(cols.T, w2d.T)
    gate, sizes = _gate_sizes(o, k)
    for pixels in sizes:
        if pixels >= gate:
            part = np.dot(np.ascontiguousarray(cols[:, :pixels]).T, w2d.T)
            assert part.tobytes() == full[:pixels].tobytes(), pixels
