"""Fused neural-network primitives: conv2d, pooling, batchnorm, activations.

All window-based operations accept *asymmetric* per-side padding
``((top, bottom), (left, right))`` because the Split-CNN transformation
(paper §3.1) assigns each patch its own begin/end padding.  Negative padding
crops, implementing the paper's "negative padding" escape hatch for input
splits chosen outside ``[lb, ub]``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autograd import Function
from .tensor import Tensor, as_tensor

__all__ = [
    "conv2d", "max_pool2d", "avg_pool2d", "relu", "sigmoid", "tanh",
    "log_softmax", "softmax", "cross_entropy", "dropout",
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


def _pad_spatial(x: np.ndarray, padding: Padding2d, value: float = 0.0) -> np.ndarray:
    """Apply (possibly negative) padding to the last two dims of ``x``."""
    (pt, pb), (pl, pr) = padding
    crop = (
        slice(None), slice(None),
        slice(max(0, -pt), x.shape[2] - max(0, -pb)),
        slice(max(0, -pl), x.shape[3] - max(0, -pr)),
    )
    x = x[crop]
    pos = ((0, 0), (0, 0), (max(0, pt), max(0, pb)), (max(0, pl), max(0, pr)))
    if any(any(p) for p in pos):
        x = np.pad(x, pos, mode="constant", constant_values=value)
    return np.ascontiguousarray(x)


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
    its transpose is the ``(pixels, K)`` operand of the conv GEMMs.
    """
    view = _window_view(x, kernel, stride)
    return np.ascontiguousarray(view.transpose(1, 4, 5, 0, 2, 3))


#: OpenBLAS hands a GEMM with ``M*N*K`` at or under this to small-matrix
#: kernels (``gemm_small_matrix_permit``), and ``M == 1`` to gemv; both sum
#: over K in another order than the blocked kernel every larger product
#: takes, so the same pixel's bytes would differ between a tiny patch and
#: the unsplit image (measured for K >= 576; ``docs/compiler.md``).
SMALL_GEMM_MNK = 1_000_000


def _blocked_gemm_rows(o: int, k: int) -> int:
    """Fewest pixel rows that put a ``(rows, k) @ (k, o)`` product on the
    blocked GEMM kernel."""
    return max(2, SMALL_GEMM_MNK // (o * k) + 1)


def conv_output_size(in_size: int, kernel: int, stride: int, pad_begin: int, pad_end: int) -> int:
    """Spatial output size of a window op (floor convention)."""
    return (in_size + pad_begin + pad_end - kernel) // stride + 1


class Conv2d(Function):
    """2-D cross-correlation (deep-learning 'convolution') via im2col."""

    def forward(self, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray],
                stride: IntPair, padding: Padding2d) -> np.ndarray:
        self.stride, self.padding = stride, padding
        self.in_shape = x.shape
        xp = _pad_spatial(x, padding)
        self.xp = xp
        o, _, kh, kw = weight.shape
        cols = _im2col(xp, (kh, kw), stride)
        n, ho, wo = cols.shape[3:]
        pixels = n * ho * wo
        cols = cols.reshape(-1, pixels)
        blocked = _blocked_gemm_rows(o, cols.shape[0])
        if pixels < blocked:
            # Zero pixel rows past the small-matrix gate, sliced off below.
            padded = np.zeros((cols.shape[0], blocked), dtype=cols.dtype)
            padded[:, :pixels] = cols
            cols = padded
        # (N*Ho*Wo, O): pixels stay GEMM rows, so a pixel's bytes do not
        # depend on which patch (how many other pixels) it is computed with.
        out = np.dot(cols.T, weight.reshape(o, -1).T)[:pixels]
        del cols                # before the transpose copy: peak memory
        out = np.ascontiguousarray(out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2))
        if bias is not None:
            out += bias.reshape(1, -1, 1, 1)
        self.weight = weight
        self.has_bias = bias is not None
        return out

    def backward_weight(self, grad_output: np.ndarray) -> np.ndarray:
        o, _, kh, kw = self.weight.shape
        cols = _im2col(self.xp, (kh, kw), self.stride)
        # grad wrt weight: (O, N*Ho*Wo) @ (N*Ho*Wo, C*kh*kw).
        grad = grad_output.transpose(1, 0, 2, 3).reshape(o, -1)
        return (grad @ cols.reshape(-1, grad.shape[1]).T).reshape(
            self.weight.shape)

    def backward_input(self, grad_output: np.ndarray) -> np.ndarray:
        weight = self.weight
        kh, kw = weight.shape[2], weight.shape[3]
        sh, sw = self.stride
        n, o, ho, wo = grad_output.shape

        # grad wrt input: scatter per kernel offset (col2im).
        grad_padded = np.zeros_like(self.xp)
        # (N, Ho, Wo, C, kh, kw)
        grad_cols = np.tensordot(grad_output, weight, axes=([1], [0]))
        grad_cols = grad_cols.transpose(0, 3, 4, 5, 1, 2)  # (N, C, kh, kw, Ho, Wo)
        for i in range(kh):
            for j in range(kw):
                grad_padded[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += grad_cols[:, :, i, j]
        return _unpad_spatial_grad(grad_padded, self.in_shape, self.padding)

    def backward(self, grad_output: np.ndarray):
        grad_weight = self.backward_weight(grad_output)
        grad_bias = grad_output.sum(axis=(0, 2, 3)) if self.has_bias else None
        grad_input = self.backward_input(grad_output)
        return (grad_input, grad_weight, grad_bias, None, None)


class MaxPool2d(Function):
    def forward(self, x: np.ndarray, kernel: IntPair, stride: IntPair,
                padding: Padding2d, need_argmax: bool = True) -> np.ndarray:
        """Running maximum over the ``kh*kw`` window offsets, each a
        strided slice of the window view — no ``(…, kh*kw)`` copy.

        ``need_argmax=False`` (an executor op no backward twin reads)
        skips the argmax ``backward`` scatters by.
        """
        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.in_shape = x.shape
        xp = _pad_spatial(x, padding, value=-np.inf)
        self.padded_shape = xp.shape
        view = _window_view(xp, kernel, stride)
        offsets = [view[..., i, j]
                   for i in range(kernel[0]) for j in range(kernel[1])]
        out = offsets[0].copy()
        for candidate in offsets[1:]:
            # (candidate, best): a tie keeps ``best``, the first maximum
            # (+-0.0 included), and a NaN sticks — ``argmax``'s rules.
            np.maximum(candidate, out, out=out)
        if need_argmax:
            # The first offset holding the maximum (the first NaN of a NaN
            # window): scan backwards, so the earliest match is written last.
            self.argmax = np.empty(out.shape, dtype=np.int64)
            nan = np.isnan(out)
            any_nan = nan.any()
            for index in range(len(offsets) - 1, -1, -1):
                hit = offsets[index] == out
                if any_nan:
                    hit |= nan & np.isnan(offsets[index])
                np.putmask(self.argmax, hit, index)
        return out

    def backward(self, grad_output: np.ndarray):
        kh, kw = self.kernel
        sh, sw = self.stride
        n, c, ho, wo = grad_output.shape
        grad_padded = np.zeros(self.padded_shape, dtype=grad_output.dtype)
        ih, iw = self.argmax // kw, self.argmax % kw
        rows = np.arange(ho).reshape(1, 1, ho, 1) * sh + ih
        cols = np.arange(wo).reshape(1, 1, 1, wo) * sw + iw
        n_idx = np.arange(n).reshape(n, 1, 1, 1)
        c_idx = np.arange(c).reshape(1, c, 1, 1)
        np.add.at(grad_padded, (n_idx, c_idx, rows, cols), grad_output)
        grad_input = _unpad_spatial_grad(grad_padded, self.in_shape, self.padding)
        return (grad_input, None, None, None)


class AvgPool2d(Function):
    def forward(self, x: np.ndarray, kernel: IntPair, stride: IntPair,
                padding: Padding2d) -> np.ndarray:
        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.in_shape = x.shape
        xp = _pad_spatial(x, padding, value=0.0)
        self.padded_shape = xp.shape
        view = _window_view(xp, kernel, stride)
        return np.ascontiguousarray(view.mean(axis=(4, 5)))

    def backward(self, grad_output: np.ndarray):
        kh, kw = self.kernel
        sh, sw = self.stride
        n, c, ho, wo = grad_output.shape
        grad_padded = np.zeros(self.padded_shape, dtype=grad_output.dtype)
        share = grad_output / float(kh * kw)
        for i in range(kh):
            for j in range(kw):
                grad_padded[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += share
        grad_input = _unpad_spatial_grad(grad_padded, self.in_shape, self.padding)
        return (grad_input, None, None, None)


class ReLU(Function):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self.mask = x > 0
        return np.where(self.mask, x, 0.0).astype(x.dtype, copy=False)

    def backward(self, grad_output: np.ndarray):
        return (np.where(self.mask, grad_output, 0.0),)


class Sigmoid(Function):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self.out = 1.0 / (1.0 + np.exp(-x))
        return self.out

    def backward(self, grad_output: np.ndarray):
        return (grad_output * self.out * (1.0 - self.out),)


class Tanh(Function):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self.out = np.tanh(x)
        return self.out

    def backward(self, grad_output: np.ndarray):
        return (grad_output * (1.0 - self.out * self.out),)


class LogSoftmax(Function):
    def forward(self, x: np.ndarray, axis: int) -> np.ndarray:
        self.axis = axis
        shifted = x - x.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        self.out = shifted - log_norm
        return self.out

    def backward(self, grad_output: np.ndarray):
        softmax = np.exp(self.out)
        grad_sum = grad_output.sum(axis=self.axis, keepdims=True)
        return (grad_output - softmax * grad_sum, None)


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
        self.keep = (rng.random(x.shape) >= p).astype(x.dtype)
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


def avg_pool2d(x, kernel: Union[int, IntPair], stride: Optional[Union[int, IntPair]] = None,
               padding: Union[int, Sequence] = 0) -> Tensor:
    kernel_pair = normalize_pair(kernel)
    stride_pair = normalize_pair(stride) if stride is not None else kernel_pair
    return AvgPool2d.apply(as_tensor(x), kernel_pair, stride_pair, normalize_padding2d(padding))


def relu(x) -> Tensor:
    return ReLU.apply(as_tensor(x))


def sigmoid(x) -> Tensor:
    return Sigmoid.apply(as_tensor(x))


def tanh(x) -> Tensor:
    return Tanh.apply(as_tensor(x))


def log_softmax(x, axis: int = 1) -> Tensor:
    return LogSoftmax.apply(as_tensor(x), axis)


def softmax(x, axis: int = 1) -> Tensor:
    from .ops_basic import exp
    return exp(log_softmax(x, axis))


def cross_entropy(logits, targets) -> Tensor:
    targets_data = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    return CrossEntropy.apply(as_tensor(logits), targets_data)


def dropout(x, p: float = 0.5, training: bool = True, seed: Optional[int] = None) -> Tensor:
    if not training or p <= 0.0:
        return as_tensor(x)
    return Dropout.apply(as_tensor(x), float(p), seed)
