"""The conv column buffers change the memory layout of im2col, not the
GEMM: ``Conv2d.forward`` must return the bytes of a ``tensordot``
formulation kept inside this test, one per path.

A weight-heavy conv (more than ``CHANNEL_LAST_WEIGHT_LIMIT`` weight
elements) equals ``tensordot`` over the channel-major
``(N, C, Ho, Wo, kh, kw)`` window view, K ordered ``(C, kh, kw)`` — the
formulation the column buffer replaced.  A weight-light conv equals
``tensordot`` over the channel-last ``(N, Ho, Wo, kh, kw, C)`` view, K
ordered ``(kh, kw, C)``.  Each feeds BLAS its path's product with pixels
as GEMM rows (M = pixels, N = O, K = C*kh*kw); only the pixel operand's
storage order differs.  The two K orders sum in different orders, so the
paths' bytes differ from each other (a 1x1 conv excepted), and the branch
must be a function of the weight shape alone.

One caveat is BLAS's, not ours: on CPUs where OpenBLAS ships small-matrix
kernels, the channel-major reference's operand order ("TN") is the one
combination that takes a dot-product kernel when pixels * O <= 1200 (and
K >= 32), whose bits differ from the blocked kernel every larger product
— and the column layouts at every size — goes through.  All 44 zoo
shapes are outside that corner at batch 1 and 2; the hand-picked cases
are chosen outside it too, so the matrix holds whichever kernels the host
has.

The column layouts have a corner of their own, and patches do reach it: a
product with pixels * O * K <= 1_000_000 goes to the small-matrix kernels
(and a single pixel row to gemv), whose bits differ from the blocked
kernel's once K >= 576.  ``Conv2d.forward`` pads such a product with zero
pixel rows past the gate; the scan at the bottom pins both that and where
the host BLAS puts the gate, for both operand orders.
"""

import itertools
import sys
import threading

import numpy as np
import pytest

from repro.core import to_split_cnn
from repro.graph import build_inference_graph
from repro.models import alexnet, small_vgg, vgg11
from repro.nn import init
from repro.tensor import Tensor, conv2d
from repro.tensor import ops_nn
from repro.tensor.ops_nn import (
    CHANNEL_LAST_WEIGHT_LIMIT, COLUMN_BLOCK_BYTES, Conv2d, _blocked_gemm_rows,
    _im2col, _pad_spatial, _window_view,
)


def _finish(out, bias):
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def _tensordot_forward(x, weight, bias, stride, padding):
    """The channel-major reference: K ordered (C, kh, kw)."""
    view = _window_view(_pad_spatial(x, padding), weight.shape[2:], stride)
    return _finish(np.tensordot(view, weight, axes=([1, 4, 5], [1, 2, 3])),
                   bias)


def _channel_last_forward(x, weight, bias, stride, padding):
    """The channel-last reference: K ordered (kh, kw, C)."""
    view = _window_view(_pad_spatial(x, padding), weight.shape[2:], stride)
    return _finish(np.tensordot(view.transpose(0, 2, 3, 4, 5, 1),
                                weight.transpose(0, 2, 3, 1),
                                axes=([3, 4, 5], [1, 2, 3])), bias)


def _reference_forward(w_shape):
    if np.prod(w_shape) <= CHANNEL_LAST_WEIGHT_LIMIT:
        return _channel_last_forward
    return _tensordot_forward


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
    light = [w for _, w, _, _ in ZOO_CASES
             if np.prod(w) <= CHANNEL_LAST_WEIGHT_LIMIT]
    assert 0 < len(light) < len(ZOO_CASES)      # both paths are pinned


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
            expected = _reference_forward(w_shape)(x, weight, bias, stride,
                                                   padding)
            actual = Conv2d().forward(x, weight, bias, stride, padding)
            assert actual.dtype == expected.dtype
            assert actual.flags.c_contiguous
            assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("value", [0.0, -np.inf])
def test_pad_spatial_is_np_pad(value):
    """Positive, negative (cropping) and mixed per-side paddings give
    ``np.pad``'s bytes after the crop, in a contiguous array."""
    x = np.random.default_rng(0).standard_normal((2, 3, 7, 6))
    for pt, pb, pl, pr in itertools.product((-2, 0, 1, 3), repeat=4):
        cropped = x[:, :, max(0, -pt):7 - max(0, -pb),
                    max(0, -pl):6 - max(0, -pr)]
        expected = np.pad(cropped, ((0, 0), (0, 0),
                                    (max(0, pt), max(0, pb)),
                                    (max(0, pl), max(0, pr))),
                          mode="constant", constant_values=value)
        actual = _pad_spatial(x, ((pt, pb), (pl, pr)), value)
        assert actual.flags.c_contiguous
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes(), (pt, pb, pl, pr)
    assert _pad_spatial(x, ((0, 0), (0, 0)), value) is x


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("padding", [((1, 1), (1, 1)), ((0, 1), (-1, 2))])
def test_backward_input_leaves_the_lazy_pad_unbuilt(padding, dtype):
    """``backward_input`` needs only the padded input's shape and dtype,
    so a weight-light conv's input stays unpadded through it; the gradient
    is the one the padded context gives."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 9, 9)).astype(dtype)
    weight = rng.standard_normal((8, 3, 3, 3))
    assert weight.size <= CHANNEL_LAST_WEIGHT_LIMIT
    fn = Conv2d()
    out = fn.forward(x, weight, None, (1, 1), padding)
    grad = rng.standard_normal(out.shape)
    lazy = fn.backward_input(grad)
    assert fn._xp is None
    assert lazy.shape == x.shape and lazy.dtype == x.dtype
    assert fn.xp is not None
    assert fn.backward_input(grad).tobytes() == lazy.tobytes()


# ----------------------------------------------------------------------
# The small-GEMM gate: a pixel's bytes may not depend on its patch size
# ----------------------------------------------------------------------
SCAN = [(o, c) for o in (16, 32, 64, 128) for c in (3, 16, 64, 128)]
#: The scan at both widths: a float64 model's patch identity rests on
#: dgemm's small-matrix gate, a float32 one's on sgemm's.
WIDE_SCAN = ([pytest.param(o, c, np.float64, id=f"{o}-{c}")
              for o, c in SCAN]
             + [pytest.param(o, c, np.float32, id=f"{o}-{c}-float32")
                for o, c in SCAN])


def _gate_sizes(o, k, limit=4096):
    gate = _blocked_gemm_rows(o, k)
    sizes = {1, 2, 3, 7, gate - 1, gate, gate + 1, 2 * gate}
    return gate, sorted(p for p in sizes if 1 <= p <= limit)


@pytest.mark.parametrize("o,c,dtype", WIDE_SCAN)
def test_tiny_patches_compute_the_big_image_bytes(o, c, dtype):
    """3x3 convs, K = 27 ... 1152: P output pixels computed alone are the
    first P pixels of a 4096-pixel row, byte for byte, on both sides of
    the gate (measured before the fix: they differ iff P*O*K <= 1e6 with
    K >= 576, and always at P == 1)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, c, 3, 4098)).astype(dtype)
    weight = rng.standard_normal((o, c, 3, 3)).astype(dtype)
    bias = rng.standard_normal(o).astype(dtype)
    none = ((0, 0), (0, 0))
    big = Conv2d().forward(x, weight, bias, (1, 1), none)
    _, sizes = _gate_sizes(o, 9 * c)
    for pixels in sizes:
        patch = np.ascontiguousarray(x[..., :pixels + 2])
        out = Conv2d().forward(patch, weight, bias, (1, 1), none)
        assert out.tobytes() == big[..., :pixels].tobytes(), pixels


@pytest.mark.parametrize("o,c", [(128, 113), (128, 114)])
def test_branch_is_a_function_of_the_weight_shape(o, c):
    """Two 3x3 weights straddling ``CHANNEL_LAST_WEIGHT_LIMIT``: each
    takes its own path at 4096 pixels (its own reference's bytes, not the
    other's), and 1-, 2- and gate-sized patches compute the first pixels
    of that row, so no pixel count moves a conv to the other path."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, c, 3, 4098))
    weight = rng.standard_normal((o, c, 3, 3))
    bias = rng.standard_normal(o)
    none = ((0, 0), (0, 0))
    light = weight.size <= CHANNEL_LAST_WEIGHT_LIMIT
    assert light == (c == 113)
    own, other = ((_channel_last_forward, _tensordot_forward) if light
                  else (_tensordot_forward, _channel_last_forward))
    big = Conv2d().forward(x, weight, bias, (1, 1), none)
    assert big.tobytes() == own(x, weight, bias, (1, 1), none).tobytes()
    assert big.tobytes() != other(x, weight, bias, (1, 1), none).tobytes()
    gate = _blocked_gemm_rows(o, 9 * c)
    for pixels in (1, 2, gate - 1, gate, gate + 1):
        patch = np.ascontiguousarray(x[..., :pixels + 2])
        out = Conv2d().forward(patch, weight, bias, (1, 1), none)
        assert out.tobytes() == big[..., :pixels].tobytes(), pixels


@pytest.mark.parametrize("o,c,dtype", WIDE_SCAN)
def test_host_blas_gate_is_not_above_ours(o, c, dtype):
    """At and above the rows ``Conv2d.forward`` pads to, the raw product's
    rows must already be the blocked kernel's, in both operand orders —
    the channel-major buffer's transposed view and the channel-last
    buffer itself, at both widths: a BLAS that moves its small-matrix
    gate up fails here, loudly, instead of in a digest."""
    rng = np.random.default_rng(1)
    k = 9 * c
    cols = rng.standard_normal((k, 4096)).astype(dtype)
    w2d = rng.standard_normal((o, k)).astype(dtype)
    rows = np.ascontiguousarray(cols.T)
    gate, sizes = _gate_sizes(o, k)
    for operand in (lambda p: np.ascontiguousarray(cols[:, :p]).T,
                    lambda p: rows[:p]):
        full = np.dot(operand(4096), w2d.T)
        for pixels in sizes:
            if pixels >= gate:
                part = np.dot(operand(pixels), w2d.T)
                assert part.tobytes() == full[:pixels].tobytes(), pixels


# ----------------------------------------------------------------------
# Blocked channel-last columns: bounded scratch, the one-GEMM bytes
# ----------------------------------------------------------------------
def _one_gemm_forward(x, weight, bias, stride, padding):
    """The weight-light forward as one GEMM over all its channel-last
    columns, zero pixel rows past the small-GEMM gate included: the bytes
    the blocked columns must reproduce."""
    view = _window_view(_pad_spatial(x, padding), weight.shape[2:], stride)
    n, c, ho, wo, kh, kw = view.shape
    cols = np.ascontiguousarray(view.transpose(0, 2, 3, 4, 5, 1)).reshape(
        n * ho * wo, kh * kw * c)
    o = weight.shape[0]
    rows = max(len(cols), _blocked_gemm_rows(o, cols.shape[1]))
    padded = np.zeros((rows, cols.shape[1]), dtype=cols.dtype)
    padded[:len(cols)] = cols
    out = np.dot(padded, weight.transpose(0, 2, 3, 1).reshape(o, -1).T)
    return _finish(out[:len(cols)].reshape(n, ho, wo, o), bias)


def _in_fresh_thread(call):
    """``call()``'s result and the byte sizes of the column block and the
    padded input it left in a new thread's (so empty) workspace."""
    result = {}

    def target():
        value = call()
        result["out"] = (value, ops_nn._WORKSPACE.cols.nbytes,
                         ops_nn._WORKSPACE.padded.nbytes)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return result["out"]


BLOCK_CASES = [
    # many one-image blocks, the even split's unequal runs (66 rows)
    pytest.param((2, 16, 66, 66), (16, 16, 3, 3), (1, 1), ((1, 1), (1, 1)),
                 id="blocks"),
    # 400 rows of 10 pixels: blocks start and stop inside images
    pytest.param((40, 16, 10, 10), (16, 16, 3, 3), (1, 1), ((1, 1), (1, 1)),
                 id="multi-image"),
    # one image, strided, cropped and padded: the tail run's rows
    pytest.param((1, 32, 129, 67), (24, 32, 3, 3), (2, 2), ((1, -1), (0, 2)),
                 id="tail"),
    # K = 576, the gate needs 109 rows of 2 pixels: at float64 two runs of
    # 150, over budget (113 rows would leave the last run under the gate)
    pytest.param((1, 64, 302, 4), (8, 64, 3, 3), (1, 1), ((0, 0), (0, 0)),
                 id="gate-rows"),
    # one 1024-pixel output row is 4.7 MB of columns: a row a block
    pytest.param((1, 128, 4, 1026), (8, 128, 3, 3), (1, 1), ((0, 0), (0, 0)),
                 id="row-over-budget"),
    # 1 pixel under a 28-row gate: zero rows in its single block
    pytest.param((1, 64, 1, 1), (64, 64, 3, 3), (1, 1), ((1, 1), (1, 1)),
                 id="below-gate"),
    # 2 images of 1 pixel, 1x1 kernel
    pytest.param((2, 64, 1, 1), (48, 64, 1, 1), (1, 1), ((0, 0), (0, 0)),
                 id="below-gate-1x1"),
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("x_shape,w_shape,stride,padding", BLOCK_CASES)
def test_blocked_columns_give_the_one_gemm_bytes(x_shape, w_shape, stride,
                                                 padding, dtype):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(x_shape).astype(dtype)
    weight = rng.standard_normal(w_shape).astype(dtype)
    bias = rng.standard_normal(w_shape[0]).astype(dtype)
    assert weight.size <= CHANNEL_LAST_WEIGHT_LIMIT
    expected = _one_gemm_forward(x, weight, bias, stride, padding)
    actual = Conv2d().forward(x, weight, bias, stride, padding)
    assert actual.dtype == expected.dtype and actual.flags.c_contiguous
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("x_shape,w_shape,stride,padding", BLOCK_CASES)
def test_column_blocks_are_bounded(x_shape, w_shape, stride, padding, dtype):
    """No block holds more than ``COLUMN_BLOCK_BYTES`` of columns unless
    one output row alone does, or the rows that reach the small-GEMM gate
    (at most ``2 * least - 1``) do; the padded input is the input's."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal(x_shape).astype(dtype)
    weight = rng.standard_normal(w_shape).astype(dtype)
    out, cols_bytes, padded_bytes = _in_fresh_thread(
        lambda: Conv2d().forward(x, weight, None, stride, padding))
    n, o, ho, wo = out.shape
    k = weight[0].size
    row = wo * k * x.itemsize
    gate = _blocked_gemm_rows(o, k)
    least = -(-gate // wo)
    assert cols_bytes <= max(COLUMN_BLOCK_BYTES, row, (2 * least - 1) * row,
                             gate * k * x.itemsize)
    if n * ho * row > 2 * max(COLUMN_BLOCK_BYTES, (2 * least - 1) * row):
        assert cols_bytes < n * ho * row            # it did block
    (pt, pb), (pl, pr) = padding
    assert padded_bytes == x.itemsize * n * x_shape[1] * (
        x_shape[2] + pt + pb) * (x_shape[3] + pl + pr)


@pytest.mark.parametrize("padding", [((1, 1), (1, 1)), ((0, 0), (0, 0))])
def test_output_does_not_share_the_workspace(padding):
    """The output, and what the backward reads, are the call's own: the
    workspace is overwritten by the thread's next conv."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 16, 20, 20)).astype(np.float32)
    weight = rng.standard_normal((16, 16, 3, 3)).astype(np.float32)
    for bias in (None, rng.standard_normal(16).astype(np.float32)):
        fn = Conv2d()
        out = fn.forward(x, weight, bias, (1, 1), padding)
        before = out.tobytes()
        workspace = (ops_nn._WORKSPACE.cols, ops_nn._WORKSPACE.padded)
        for buffer in workspace:
            assert not np.shares_memory(out, buffer)
            assert not np.shares_memory(fn.xp, buffer)
        Conv2d().forward(x[::-1].copy(), weight, bias, (1, 1), padding)
        assert out.tobytes() == before


def test_threads_get_the_one_gemm_bytes():
    """Threads running weight-light convs at once — more threads than
    cores, switching often — each through its own workspace, get the
    one-GEMM bytes on every call."""
    rng = np.random.default_rng(6)
    cases = []
    for x_shape, w_shape, stride, padding in (
            ((2, 16, 66, 66), (16, 16, 3, 3), (1, 1), ((1, 1), (1, 1))),
            ((40, 16, 10, 10), (16, 16, 3, 3), (1, 1), ((1, 1), (1, 1))),
            ((1, 64, 1, 1), (64, 64, 3, 3), (1, 1), ((1, 1), (1, 1))),
            ((3, 8, 33, 31), (32, 8, 3, 3), (2, 2), ((1, -1), (-2, 2)))):
        x = rng.standard_normal(x_shape).astype(np.float32)
        weight = rng.standard_normal(w_shape).astype(np.float32)
        cases.append((x, weight, stride, padding, _one_gemm_forward(
            x, weight, None, stride, padding).tobytes()))
    start = threading.Barrier(4)
    calls, mismatches = [], []

    def worker(order):
        start.wait()
        for _ in range(5):
            for x, weight, stride, padding, expected in order:
                out = Conv2d().forward(x, weight, None, stride, padding)
                calls.append(x.shape)
                if out.tobytes() != expected:
                    mismatches.append(x.shape)

    threads = [threading.Thread(target=worker, args=(order,))
               for order in (cases, cases[::-1], cases[1:] + cases[:1],
                             cases[2:] + cases[:2])]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 4 * 5 * len(cases)
    assert mismatches == []
