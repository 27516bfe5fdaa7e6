"""``max_pool2d_forward`` is a running maximum over window offsets, and
``max_pool2d_input_grad`` recomputes the first-max index from ``x`` and
scatters to it; both must return the bytes of the formulation they
replaced.

The reference below *is* that formulation — reshape the window view to
``(..., kh*kw)`` (a copy), ``argmax``, ``take_along_axis``, then add each
output gradient at its window's ``argmax`` — kept inside this test.  Its
tie and NaN rules are ``argmax``'s: the first maximum wins (``-0.0``
before ``+0.0`` stays ``-0.0``), the first NaN of a window wins over
everything.  A strict-``>`` masked update passes every NaN-free case and
fails every NaN one (a later NaN is never picked), so NaN windows and
signed-zero ties are drawn on purpose.

Also here: an inference max-pool computes no index.  Only a backward op
calls ``max_pool2d_input_grad``, and the executor keeps nothing beside
the values its graph declares.
"""

import numpy as np
import pytest

from repro.graph import (
    GraphExecutor, build_inference_graph, build_training_graph, registry,
)
from repro.models import small_vgg
from repro.tensor import Tensor, max_pool2d
from repro.tensor.ops_nn import (
    _pad_spatial, _window_view, max_pool2d_forward, max_pool2d_input_grad,
)

from conftest import held_bytes


def _reference(x, kernel, stride, padding):
    view = _window_view(_pad_spatial(x, padding, value=-np.inf), kernel,
                        stride)
    n, c, ho, wo, kh, kw = view.shape
    flat = view.reshape(n, c, ho, wo, kh * kw)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), argmax


def _reference_grad(x, grad_out, kernel, stride, padding, argmax):
    """Add each output gradient at its window's ``argmax``, in C order;
    a maximum on the padding (an all-padding window) reaches no input."""
    (top, _), (left, _) = padding
    n, c, ho, wo = grad_out.shape
    rows = (np.arange(ho).reshape(ho, 1) * stride[0]
            + argmax // kernel[1] - top)
    cols = (np.arange(wo).reshape(1, wo) * stride[1]
            + argmax % kernel[1] - left)
    inside = ((rows >= 0) & (rows < x.shape[2])
              & (cols >= 0) & (cols < x.shape[3]))
    batch, channel = np.indices(grad_out.shape)[:2]
    grad = np.zeros(x.shape, dtype=grad_out.dtype)
    np.add.at(grad, (batch[inside], channel[inside], rows[inside],
                     cols[inside]), grad_out[inside])
    return grad


def _draw(rng, kind):
    """One random case: kernels 2-3, strides 1-3 (overlapping windows
    when stride < kernel), positive / negative / asymmetric padding."""
    kernel = tuple(int(v) for v in rng.integers(2, 4, size=2))
    stride = tuple(int(v) for v in rng.integers(1, 4, size=2))
    padding = tuple(tuple(int(v) for v in rng.integers(-2, 3, size=2))
                    for _ in range(2))
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)),
             int(rng.integers(7, 24)), int(rng.integers(7, 24)))
    x = rng.standard_normal(shape)
    if kind == "signed-zero":
        # Most windows peak at a zero, and their zeros disagree in sign.
        zero = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        x = np.where(rng.random(shape) < 0.6, zero, -np.abs(x))
    elif kind == "nan":
        x[rng.random(shape) < 0.15] = np.nan
        x[rng.random(shape) < 0.05] = np.inf
    elif kind == "ties":
        x = rng.integers(-2, 3, size=shape).astype(np.float64)
    return x, kernel, stride, padding


@pytest.mark.parametrize("kind", ["plain", "ties", "signed-zero", "nan"])
def test_bytes_and_argmax_equal_the_reshape_formulation(kind):
    rng = np.random.default_rng(["plain", "ties", "signed-zero",
                                 "nan"].index(kind))
    for _ in range(150):
        x, kernel, stride, padding = _draw(rng, kind)
        expected, argmax = _reference(x, kernel, stride, padding)
        case = (x.shape, kernel, stride, padding)

        out = max_pool2d_forward(x, kernel, stride, padding)
        assert out.flags.c_contiguous and out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes(), case

        grad_out = rng.standard_normal(out.shape)
        grad = max_pool2d_input_grad(x, grad_out, kernel, stride, padding)
        want = _reference_grad(x, grad_out, kernel, stride, padding, argmax)
        assert grad.shape == x.shape and grad.dtype == want.dtype
        assert grad.tobytes() == want.tobytes(), case


def test_neg_inf_pad_never_wins_and_all_pad_windows_stay_neg_inf():
    x = np.full((1, 1, 4, 4), -1e300)
    args = ((2, 2), (2, 2), ((2, 0), (0, 2)))
    out = max_pool2d_forward(x, *args)
    expected, argmax = _reference(x, *args)
    assert out.tobytes() == expected.tobytes()
    assert np.isneginf(out[0, 0, 0]).all()          # a window of padding
    assert (out[0, 0, 1:, :2] == -1e300).all()
    grad_out = np.arange(1.0, 1.0 + out.size).reshape(out.shape)
    grad = max_pool2d_input_grad(x, grad_out, *args)
    assert grad.tobytes() == _reference_grad(x, grad_out, *args,
                                             argmax).tobytes()
    # The all-padding windows' gradients reach no input.
    assert grad.sum() == grad_out[0, 0, 1:, :2].sum()


def test_gradient_scatters_to_the_first_maximum():
    x = Tensor(np.zeros((1, 1, 2, 4)), requires_grad=True, dtype=np.float64)
    max_pool2d(x, 2).backward(np.array([[[[1.0, 2.0]]]]))
    assert x.grad.tolist() == [[[[1.0, 0.0, 2.0, 0.0], [0.0] * 4]]]


# ----------------------------------------------------------------------
# An inference max-pool computes no index
# ----------------------------------------------------------------------
def _graphs():
    model = small_vgg(num_classes=4, rng=np.random.default_rng(0))
    train = build_training_graph(model, 2)
    infer = build_inference_graph(model, 2)
    params = GraphExecutor.parameters_from_model(train, model)
    return train, infer, params


def test_inference_run_holds_no_context():
    _, infer, params = _graphs()
    x = np.random.default_rng(1).standard_normal((2, 3, 32, 32),
                                                 dtype=np.float32)
    for eager_free in (True, False):
        executor = GraphExecutor(infer, params, eager_free=eager_free)
        executor.run(x)
        held, declared = held_bytes(executor)
        assert held == declared > 0


def test_an_inference_maxpool_computes_no_index():
    train, infer, params = _graphs()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 32, 32), dtype=np.float32)
    y = np.array([1, 3])
    calls = []

    def spy(*args):
        calls.append(args)
        return max_pool2d_input_grad(*args)

    pools = sum(op.op_type == "maxpool2d" for op in infer.ops)
    twins = sum(op.op_type == "maxpool2d_bwd" for op in train.ops)
    assert pools and twins
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "max_pool2d_input_grad", spy)
        logits = GraphExecutor(infer, params).run(x)["logits"]
        assert calls == []
        GraphExecutor(train, params).run(x, y)
        assert len(calls) == twins
    # Same bytes as the eager model.
    model = small_vgg(num_classes=4, rng=np.random.default_rng(0))
    model.eval()
    assert logits.tobytes() == model(Tensor(x)).numpy().tobytes()
