"""Fused neural-network primitives: conv2d, max pooling, ReLU, dropout and
cross-entropy (batch norm lives in :mod:`repro.nn.norm`).

All window-based operations accept *asymmetric* per-side padding
``((top, bottom), (left, right))`` because the Split-CNN transformation
(paper §3.1) assigns each patch its own begin/end padding.  Negative padding
crops, implementing the paper's "negative padding" escape hatch for input
splits chosen outside ``[lb, ub]``.
"""

from __future__ import annotations

import math
import threading
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autograd import Function
from .ops_basic import _blocked_gemm_rows, blocked_dot
from .tensor import Tensor, as_tensor

__all__ = [
    "conv2d", "max_pool2d", "relu", "cross_entropy", "dropout",
    "normalize_pair", "normalize_padding2d",
]

IntPair = Tuple[int, int]
Padding2d = Tuple[IntPair, IntPair]


def normalize_pair(value: Union[int, Sequence[int]]) -> IntPair:
    """Coerce an int or 2-sequence to an ``(h, w)`` pair."""
    if isinstance(value, int):
        return (value, value)
    pair = tuple(int(v) for v in value)
    if len(pair) != 2:
        raise ValueError(f"expected an int or a pair, got {value!r}")
    return pair  # type: ignore[return-value]


def normalize_padding2d(padding: Union[int, Sequence]) -> Padding2d:
    """Coerce padding to ``((top, bottom), (left, right))``.

    Accepts: int ``p``; pair ``(ph, pw)``; or the full nested form.
    """
    if isinstance(padding, int):
        return ((padding, padding), (padding, padding))
    padding = tuple(padding)
    if len(padding) != 2:
        raise ValueError(f"padding must describe two spatial dims, got {padding!r}")
    out = []
    for entry in padding:
        if isinstance(entry, int):
            out.append((entry, entry))
        else:
            pair = tuple(int(v) for v in entry)
            if len(pair) != 2:
                raise ValueError(f"bad padding entry {entry!r}")
            out.append(pair)
    return (out[0], out[1])  # type: ignore[return-value]


def _crop_spatial(x: np.ndarray, padding: Padding2d):
    """Crop ``x`` by the negative sides of ``padding``; return the view and
    the positive sides ``(top, bottom, left, right)`` still to be added."""
    (pt, pb), (pl, pr) = padding
    if min(pt, pb, pl, pr) < 0:
        x = x[:, :, max(0, -pt):x.shape[2] - max(0, -pb),
              max(0, -pl):x.shape[3] - max(0, -pr)]
    return x, (max(0, pt), max(0, pb), max(0, pl), max(0, pr))


def _pad_spatial(x: np.ndarray, padding: Padding2d, value: float = 0.0) -> np.ndarray:
    """Apply (possibly negative) padding to the last two dims of ``x``.

    With nothing to pad or crop, a contiguous ``x`` is returned itself.
    """
    x, (top, bottom, left, right) = _crop_spatial(x, padding)
    if not (top or bottom or left or right):
        return np.ascontiguousarray(x)
    n, c, h, w = x.shape
    out = np.full((n, c, top + h + bottom, left + w + right), value,
                  dtype=x.dtype)
    out[:, :, top:top + h, left:left + w] = x
    return out


def _unpad_spatial_grad(grad_padded: np.ndarray, in_shape: Tuple[int, ...],
                        padding: Padding2d) -> np.ndarray:
    """Map a gradient w.r.t. the padded input back to the original input."""
    (pt, pb), (pl, pr) = padding
    grad = np.zeros(in_shape, dtype=grad_padded.dtype)
    inner = (
        slice(None), slice(None),
        slice(max(0, pt), grad_padded.shape[2] - max(0, pb)),
        slice(max(0, pl), grad_padded.shape[3] - max(0, pr)),
    )
    crop = (
        slice(None), slice(None),
        slice(max(0, -pt), in_shape[2] - max(0, -pb)),
        slice(max(0, -pl), in_shape[3] - max(0, -pr)),
    )
    grad[crop] = grad_padded[inner]
    return grad


def _window_view(x: np.ndarray, kernel: IntPair, stride: IntPair) -> np.ndarray:
    """Zero-copy ``(N, C, Ho, Wo, kh, kw)`` sliding-window view of ``x``."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"window {kernel} with stride {stride} does not fit input {x.shape}"
        )
    sn, sc, sh_b, sw_b = x.strides
    return as_strided(
        x,
        shape=(n, c, ho, wo, kh, kw),
        strides=(sn, sc, sh_b * sh, sw_b * sw, sh_b, sw_b),
        writeable=False,
    )


def _im2col(x: np.ndarray, kernel: IntPair, stride: IntPair) -> np.ndarray:
    """Channel-major column buffer ``(C, kh, kw, N, Ho, Wo)`` of ``x``.

    Copied with a whole output row as the inner run (a reshape of the
    window view copies runs of ``kw`` elements); as ``(C*kh*kw, N*Ho*Wo)``
    its transpose is the ``(pixels, K)`` operand of the weight gradient's
    GEMM and of a weight-heavy conv's forward.  BLAS packs that transposed
    operand at about half the speed of a pixel-major one, which is what
    :func:`_channel_last_conv` builds for a weight-light forward.
    """
    view = _window_view(x, kernel, stride)
    return np.ascontiguousarray(view.transpose(1, 4, 5, 0, 2, 3))


def conv_output_size(in_size: int, kernel: int, stride: int, pad_begin: int, pad_end: int) -> int:
    """Spatial output size of a window op (floor convention)."""
    return (in_size + pad_begin + pad_end - kernel) // stride + 1


#: A conv whose weight has at most this many elements (a count, at any
#: width) runs its forward on pixel-major channel-last columns; a heavier
#: one keeps the channel-major buffer, because permuting its weight would
#: cost more than its forward at the few pixel rows such layers have.  The
#: branch depends on the weight shape only: a patch and the unsplit image
#: take the same one and get the same bytes.
CHANNEL_LAST_WEIGHT_LIMIT = 1 << 17

#: Bytes of channel-last columns a weight-light forward builds at once: its
#: GEMM runs over blocks of whole output rows, each block's columns at most
#: this big (unless one output row, or the rows that reach the small-GEMM
#: gate, are bigger).
COLUMN_BLOCK_BYTES = 1 << 20

#: Per-thread scratch of the channel-last forward: the padded input and the
#: column block, each grown to the largest request and never handed back,
#: so a call neither allocates them nor faults in fresh pages.
_WORKSPACE = threading.local()


def _workspace(slot: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized ``shape`` array in this thread's scratch ``slot``,
    valid until the slot's next request."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buffer = getattr(_WORKSPACE, slot, None)
    if buffer is None or buffer.size < nbytes:
        buffer = np.empty(nbytes, dtype=np.uint8)
        setattr(_WORKSPACE, slot, buffer)
    return buffer[:nbytes].view(dtype).reshape(shape)


def _row_blocks(rows: int, row_pixels: int, k: int, o: int,
                itemsize: int) -> List[int]:
    """Boundaries of the runs of output rows that share a column block.

    The runs are as even as possible, each at most ``COLUMN_BLOCK_BYTES``
    of columns (or one row) and, when there are several, each at least
    the ``least`` rows that reach the small-GEMM gate: a run may hold
    ``2 * least - 1`` rows even over budget, and with that allowance an
    even split into several runs never leaves one below ``least``.
    """
    least = -(-_blocked_gemm_rows(o, k) // row_pixels)
    most = max(COLUMN_BLOCK_BYTES // (row_pixels * k * itemsize),
               2 * least - 1)
    count = -(-rows // most)
    return [rows * i // count for i in range(count + 1)]


def _channel_last_conv(x: np.ndarray, weight: np.ndarray, padding: Padding2d,
                       stride: IntPair) -> np.ndarray:
    """``(N, Ho, Wo, O)`` product of a weight-light conv, K ordered
    ``(kh, kw, C)``.

    One copy pads and transposes ``x`` into this thread's ``(N, Hp, Wp, C)``
    scratch buffer.  Then, per run of whole output rows (:func:`_row_blocks`,
    possibly spanning images), the window view, inner run ``C`` contiguous
    elements, is copied into this thread's pixel-major column block, and
    one GEMM writes that run's rows of the output.  A single run under the
    small-GEMM gate gets zero pixel rows past it.  Every block is a product
    the blocked kernel computes, so each pixel gets the bytes of one GEMM
    over all the columns.
    """
    x, (top, bottom, left, right) = _crop_spatial(x, padding)
    n, c, h, w = x.shape
    dtype = np.result_type(x, weight)
    padded = _workspace("padded", (n, top + h + bottom, left + w + right, c),
                        x.dtype)
    padded[:, :top] = 0
    padded[:, top + h:] = 0
    padded[:, top:top + h, :left] = 0
    padded[:, top:top + h, left + w:] = 0
    padded[:, top:top + h, left:left + w] = x.transpose(0, 2, 3, 1)
    view = _window_view(padded.transpose(0, 3, 1, 2), weight.shape[2:],
                        stride).transpose(0, 2, 3, 4, 5, 1)
    _, ho, wo, kh, kw, _ = view.shape
    o, k = weight.shape[0], kh * kw * c
    w2d = weight.transpose(0, 2, 3, 1).reshape(o, k)
    blocked = _blocked_gemm_rows(o, k)
    out = np.empty((max(n * ho * wo, blocked), o), dtype=dtype)
    bounds = _row_blocks(n * ho, wo, k, o, dtype.itemsize)
    for start, stop in zip(bounds, bounds[1:]):
        pixels = (stop - start) * wo
        cols = _workspace("cols", (max(pixels, blocked), k), dtype)
        for image in range(start // ho, (stop - 1) // ho + 1):
            lo, hi = max(start - image * ho, 0), min(stop - image * ho, ho)
            first = (image * ho + lo - start) * wo
            np.copyto(cols[first:first + (hi - lo) * wo].reshape(
                hi - lo, wo, kh, kw, c), view[image, lo:hi])
        cols[pixels:] = 0
        np.dot(cols, w2d.T, out=out[start * wo:start * wo + len(cols)])
    return out[:n * ho * wo].reshape(n, ho, wo, o)


def conv2d_forward(x: np.ndarray, weight: np.ndarray,
                   bias: Optional[np.ndarray], stride: IntPair,
                   padding: Padding2d) -> np.ndarray:
    """2-D cross-correlation (deep-learning 'convolution') as GEMMs with
    pixels as rows, ``(pixels, K) @ (K, O)``.

    A weight-light conv (at most ``CHANNEL_LAST_WEIGHT_LIMIT`` elements)
    multiplies pixel-major channel-last columns, K ordered ``(kh, kw, C)``
    and built in bounded blocks, by its weight permuted to
    ``(O, kh, kw, C)`` (:func:`_channel_last_conv`); a weight-heavy one
    hands BLAS the transposed view of the channel-major ``_im2col``
    buffer, K ordered ``(C, kh, kw)``.  Either way a product under the
    small-matrix gate gets zero pixel rows past it, so a pixel's bytes do
    not depend on which patch (how many other pixels) it is computed with.
    """
    if weight.size <= CHANNEL_LAST_WEIGHT_LIMIT:
        out = _channel_last_conv(x, weight, padding, stride)
    else:
        cols = _im2col(_pad_spatial(x, padding), weight.shape[2:], stride)
        n, ho, wo = cols.shape[3:]
        # The transposed view is Fortran-ordered, so are its gate rows.
        out = blocked_dot(cols.reshape(-1, n * ho * wo).T,
                          weight.reshape(weight.shape[0], -1).T, order="F")
        del cols            # before the transpose copy: peak memory
        out = out.reshape(n, ho, wo, -1)
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def conv2d_input_grad(grad_output: np.ndarray, weight: np.ndarray,
                      in_shape: Tuple[int, ...], stride: IntPair,
                      padding: Padding2d) -> np.ndarray:
    """Gradient of a conv w.r.t. its ``in_shape`` input: one ``tensordot``
    of the output gradient with the weight, scattered per kernel offset
    (col2im) into the padded input's shape, then cropped.  Shapes are all
    it needs of the input."""
    kh, kw = weight.shape[2], weight.shape[3]
    sh, sw = stride
    n, o, ho, wo = grad_output.shape
    (pt, pb), (pl, pr) = padding
    c, h, w = in_shape[1:]
    grad_padded = np.zeros((n, c, h + pt + pb, w + pl + pr),
                           dtype=grad_output.dtype)
    # (N, Ho, Wo, C, kh, kw)
    grad_cols = np.tensordot(grad_output, weight, axes=([1], [0]))
    grad_cols = grad_cols.transpose(0, 3, 4, 5, 1, 2)  # (N, C, kh, kw, Ho, Wo)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += grad_cols[:, :, i, j]
    return _unpad_spatial_grad(grad_padded, in_shape, padding)


def shared_weight_grad(xs: Sequence[np.ndarray],
                       grad_outputs: Sequence[np.ndarray],
                       paddings: Sequence[Padding2d], kernel: IntPair,
                       stride: IntPair, bias: bool) -> List[np.ndarray]:
    """Weight (and bias) gradient of one conv weight applied to several
    inputs — a split layer's patches — as one GEMM; every conv weight
    gradient is this call, a single input (eager, or one patch's graph
    op) its ``S = 1`` case.

    Every input's im2col columns and output gradient are laid side by
    side along the pixel axis; with ``bias`` a row of ones under the
    columns makes the GEMM's last column the bias gradient.
    """
    kh, kw = kernel
    o, c = grad_outputs[0].shape[1], xs[0].shape[1]
    k = c * kh * kw
    pixels = [g.shape[0] * g.shape[2] * g.shape[3] for g in grad_outputs]
    dtype = np.result_type(*grad_outputs)
    cols = np.empty((k + 1 if bias else k, sum(pixels)), dtype=dtype)
    grad = np.empty((o, sum(pixels)), dtype=dtype)
    start = 0
    for x, g, padding, count in zip(xs, grad_outputs, paddings, pixels):
        n, _, ho, wo = g.shape
        stop = start + count
        view = _window_view(_pad_spatial(x, padding), kernel, stride)
        np.copyto(cols[:k, start:stop].reshape(c, kh, kw, n, ho, wo),
                  view.transpose(1, 4, 5, 0, 2, 3))
        np.copyto(grad[:, start:stop].reshape(o, n, ho, wo),
                  g.transpose(1, 0, 2, 3))
        start = stop
    if bias:
        cols[k] = 1.0
    product = grad @ cols.T
    weight_grad = product[:, :k].reshape(o, c, kh, kw)
    return [weight_grad, product[:, k]] if bias else [weight_grad]


class Conv2d(Function):
    """Autograd binding of :func:`conv2d_forward`: its backward calls
    :func:`shared_weight_grad` over the one input and
    :func:`conv2d_input_grad`, the functions the graph's conv kernels
    call, so eager and graph gradients are the same bytes."""

    def forward(self, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray],
                stride: IntPair, padding: Padding2d) -> np.ndarray:
        self.x, self.weight = x, weight
        self.stride, self.padding = stride, padding
        self.has_bias = bias is not None
        return conv2d_forward(x, weight, bias, stride, padding)

    def backward(self, grad_output: np.ndarray):
        (grad_weight,) = shared_weight_grad(
            [self.x], [grad_output], [self.padding], self.weight.shape[2:],
            self.stride, False)
        grad_bias = grad_output.sum(axis=(0, 2, 3)) if self.has_bias else None
        grad_input = conv2d_input_grad(grad_output, self.weight, self.x.shape,
                                       self.stride, self.padding)
        return (grad_input, grad_weight, grad_bias, None, None)


def _pool_windows(x: np.ndarray, kernel: IntPair, stride: IntPair,
                  padding: Padding2d):
    """``(padded shape, offsets, running max)`` of a max-pool: each of the
    ``kh*kw`` window offsets is a strided slice of the ``-inf``-padded
    window view — no ``(…, kh*kw)`` copy."""
    padded = _pad_spatial(x, padding, value=-np.inf)
    view = _window_view(padded, kernel, stride)
    offsets = [view[..., i, j]
               for i in range(kernel[0]) for j in range(kernel[1])]
    out = offsets[0].copy()
    for candidate in offsets[1:]:
        # (candidate, best): a tie keeps ``best``, the first maximum
        # (+-0.0 included), and a NaN sticks — ``argmax``'s rules.
        np.maximum(candidate, out, out=out)
    return padded.shape, offsets, out


def max_pool2d_forward(x: np.ndarray, kernel: IntPair, stride: IntPair,
                       padding: Padding2d) -> np.ndarray:
    """Running maximum over the window offsets; computes no index."""
    return _pool_windows(x, kernel, stride, padding)[2]


def max_pool2d_input_grad(x: np.ndarray, grad_output: np.ndarray,
                          kernel: IntPair, stride: IntPair,
                          padding: Padding2d) -> np.ndarray:
    """Scatter ``grad_output`` to the first maximum of each window of
    ``x``, recomputing the running maximum and its index from ``x``."""
    padded_shape, offsets, out = _pool_windows(x, kernel, stride, padding)
    # The first offset holding the maximum (the first NaN of a NaN
    # window): scan backwards, so the earliest match is written last.
    argmax = np.empty(out.shape, dtype=np.int64)
    nan = np.isnan(out)
    any_nan = nan.any()
    for index in range(len(offsets) - 1, -1, -1):
        hit = offsets[index] == out
        if any_nan:
            hit |= nan & np.isnan(offsets[index])
        np.putmask(argmax, hit, index)
    kw = kernel[1]
    sh, sw = stride
    n, c, ho, wo = grad_output.shape
    grad_padded = np.zeros(padded_shape, dtype=grad_output.dtype)
    rows = np.arange(ho).reshape(1, 1, ho, 1) * sh + argmax // kw
    cols = np.arange(wo).reshape(1, 1, 1, wo) * sw + argmax % kw
    n_idx = np.arange(n).reshape(n, 1, 1, 1)
    c_idx = np.arange(c).reshape(1, c, 1, 1)
    np.add.at(grad_padded, (n_idx, c_idx, rows, cols), grad_output)
    return _unpad_spatial_grad(grad_padded, x.shape, padding)


class MaxPool2d(Function):
    """Autograd binding of :func:`max_pool2d_forward`; its backward is
    :func:`max_pool2d_input_grad`, the graph's kernel too."""

    def forward(self, x: np.ndarray, kernel: IntPair, stride: IntPair,
                padding: Padding2d) -> np.ndarray:
        self.x, self.kernel, self.stride, self.padding = (x, kernel, stride,
                                                          padding)
        return max_pool2d_forward(x, kernel, stride, padding)

    def backward(self, grad_output: np.ndarray):
        return (max_pool2d_input_grad(self.x, grad_output, self.kernel,
                                      self.stride, self.padding),
                None, None, None)


class ReLU(Function):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self.mask = x > 0
        return np.where(self.mask, x, 0.0).astype(x.dtype, copy=False)

    def backward(self, grad_output: np.ndarray):
        return (np.where(self.mask, grad_output, 0.0),)


class CrossEntropy(Function):
    """Mean cross-entropy over a batch of logits (fused log-softmax + NLL)."""

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_norm
        batch = logits.shape[0]
        self.softmax = np.exp(log_probs)
        self.targets = targets.astype(np.int64)
        self.batch = batch
        picked = log_probs[np.arange(batch), self.targets]
        return np.asarray(-picked.mean(), dtype=logits.dtype)

    def backward(self, grad_output: np.ndarray):
        grad = self.softmax.copy()
        grad[np.arange(self.batch), self.targets] -= 1.0
        grad *= grad_output / self.batch
        return (grad, None)


class Dropout(Function):
    def forward(self, x: np.ndarray, p: float, seed: Optional[int]) -> np.ndarray:
        rng = np.random.default_rng(seed)
        self.keep = rng.random(x.shape) >= p     # bool: the mask's 1 byte
        self.scale = 1.0 / (1.0 - p) if p < 1.0 else 0.0
        return x * self.keep * self.scale

    def backward(self, grad_output: np.ndarray):
        return (grad_output * self.keep * self.scale, None, None)


# ----------------------------------------------------------------------
# Functional API
# ----------------------------------------------------------------------
def conv2d(x, weight, bias=None, stride: Union[int, IntPair] = 1,
           padding: Union[int, Sequence] = 0) -> Tensor:
    """2-D convolution with asymmetric (and possibly negative) padding."""
    stride_pair = normalize_pair(stride)
    pad2d = normalize_padding2d(padding)
    bias_t = as_tensor(bias) if bias is not None else None
    return Conv2d.apply(as_tensor(x), as_tensor(weight), bias_t, stride_pair, pad2d)


def max_pool2d(x, kernel: Union[int, IntPair], stride: Optional[Union[int, IntPair]] = None,
               padding: Union[int, Sequence] = 0) -> Tensor:
    kernel_pair = normalize_pair(kernel)
    stride_pair = normalize_pair(stride) if stride is not None else kernel_pair
    return MaxPool2d.apply(as_tensor(x), kernel_pair, stride_pair, normalize_padding2d(padding))


def relu(x) -> Tensor:
    return ReLU.apply(as_tensor(x))


def cross_entropy(logits, targets) -> Tensor:
    targets_data = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    return CrossEntropy.apply(as_tensor(logits), targets_data)


def dropout(x, p: float = 0.5, training: bool = True, seed: Optional[int] = None) -> Tensor:
    if not training or p <= 0.0:
        return as_tensor(x)
    return Dropout.apply(as_tensor(x), float(p), seed)
