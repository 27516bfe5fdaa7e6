"""``MaxPool2d.forward`` is a running maximum over window offsets; it must
return the bytes (and, when asked, the argmax) of the formulation it
replaced.

The reference below *is* that formulation — reshape the window view to
``(..., kh*kw)`` (a copy), ``argmax``, ``take_along_axis`` — kept inside
this test.  Its tie and NaN rules are ``argmax``'s: the first maximum wins
(``-0.0`` before ``+0.0`` stays ``-0.0``), the first NaN of a window wins
over everything.  A strict-``>`` masked update passes every NaN-free case
and fails every NaN one (a later NaN is never picked), so NaN windows and
signed-zero ties are drawn on purpose.

Also here: who decides that the argmax is dead.  The executor knows which
forward ops have a backward twin; an inference graph has none, keeps no
context, and its max-pools compute no argmax.
"""

import numpy as np
import pytest

from repro.graph import (
    GraphExecutor, build_inference_graph, build_training_graph,
)
from repro.models import small_vgg
from repro.tensor import Tensor, max_pool2d
from repro.tensor.ops_nn import MaxPool2d, _pad_spatial, _window_view


def _reference(x, kernel, stride, padding):
    view = _window_view(_pad_spatial(x, padding, value=-np.inf), kernel,
                        stride)
    n, c, ho, wo, kh, kw = view.shape
    flat = view.reshape(n, c, ho, wo, kh * kw)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), argmax


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

        with_argmax = MaxPool2d()
        out = with_argmax.forward(x, kernel, stride, padding)
        assert out.flags.c_contiguous and out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes(), case
        assert with_argmax.argmax.dtype == argmax.dtype
        assert np.array_equal(with_argmax.argmax, argmax), case

        without = MaxPool2d()
        out = without.forward(x, kernel, stride, padding, need_argmax=False)
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes(), case
        assert not hasattr(without, "argmax")


def test_neg_inf_pad_never_wins_and_all_pad_windows_stay_neg_inf():
    x = np.full((1, 1, 4, 4), -1e300)
    fn = MaxPool2d()
    out = fn.forward(x, (2, 2), (2, 2), ((2, 0), (0, 2)))
    expected, argmax = _reference(x, (2, 2), (2, 2), ((2, 0), (0, 2)))
    assert out.tobytes() == expected.tobytes()
    assert np.array_equal(fn.argmax, argmax)
    assert np.isneginf(out[0, 0, 0]).all()          # a window of padding
    assert (out[0, 0, 1:, :2] == -1e300).all()


def test_gradient_scatters_to_the_first_maximum():
    x = Tensor(np.zeros((1, 1, 2, 4)), requires_grad=True, dtype=np.float64)
    max_pool2d(x, 2).backward(np.array([[[[1.0, 2.0]]]]))
    assert x.grad.tolist() == [[[[1.0, 0.0, 2.0, 0.0], [0.0] * 4]]]


# ----------------------------------------------------------------------
# The executor says when a context is dead on arrival
# ----------------------------------------------------------------------
def _graphs():
    model = small_vgg(num_classes=4, rng=np.random.default_rng(0))
    train = build_training_graph(model, 2)
    infer = build_inference_graph(model, 2)
    params = GraphExecutor.parameters_from_model(train, model)
    return train, infer, params


def _live(table):
    return sum(entry is not None for entry in table)


def test_inference_run_holds_no_context():
    _, infer, params = _graphs()
    x = np.random.default_rng(1).standard_normal((2, 3, 32, 32))
    for eager_free in (True, False):
        executor = GraphExecutor(infer, params, eager_free=eager_free)
        assert not any(executor.needs_context(op) for op in infer.ops)
        executor.run(x)
        # Before release_intermediates: nothing was pinned to begin with.
        assert _live(executor._contexts) == 0


def test_training_run_still_frees_contexts_at_the_last_twin():
    train, _, params = _graphs()
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((2, 3, 32, 32)), np.array([1, 3])
    twinned = {op.forward_of for op in train.ops
               if op.forward_of is not None}
    eager = GraphExecutor(train, params)
    keep = GraphExecutor(train, params, eager_free=False)
    assert {op.id for op in train.ops if eager.needs_context(op)} == twinned
    eager.run(x, y)
    keep.run(x, y)
    assert _live(eager._contexts) == 0
    kept = {op_id for op_id, ctx in enumerate(keep._contexts)
            if ctx is not None}
    assert kept and kept <= twinned


def test_the_maxpool_kernel_asks_the_executor():
    train, infer, params = _graphs()
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((2, 3, 32, 32)), np.array([1, 3])
    seen = {}
    forward = MaxPool2d.forward

    def spy(self, *args, need_argmax=True):
        seen.setdefault(need_argmax, 0)
        seen[need_argmax] += 1
        return forward(self, *args, need_argmax=need_argmax)

    pools = sum(op.op_type == "maxpool2d" for op in infer.ops)
    assert pools
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MaxPool2d, "forward", spy)
        logits = GraphExecutor(infer, params).run(x)["logits"]
        assert seen == {False: pools}
        seen.clear()
        GraphExecutor(train, params).run(x, y)
        assert seen == {True: pools}
    # Same bytes as the eager model, whose pools all compute the argmax.
    model = small_vgg(num_classes=4, rng=np.random.default_rng(0))
    model.eval()
    assert logits.tobytes() == model(Tensor(x, dtype=np.float64)) \
        .numpy().tobytes()
