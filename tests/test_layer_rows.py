"""The builder rows and block paths no other test executes.

A call recorder over the whole tier-1 suite showed a ``Dropout`` inside a
split region and the whole :class:`Bottleneck` eager path were never run.
Each is run here through both patch orders, plus the regression for the
inference graph of a *Stochastic* Split-CNN, which the builder used to
emit split although §3.3 evaluates it unsplit.
"""

import numpy as np
import pytest

from conftest import autograd_step, executor_step, to_float64
from repro.analysis import analyze_graph
from repro.core import SplitRegion, to_split_cnn
from repro.graph import build_inference_graph, build_training_graph
from repro.graph.executor import GraphExecutor
from repro.models import Bottleneck, ConvClassifier, small_vgg
from repro.nn import (
    Conv2d, Dropout, GlobalAvgPool2d, Linear, MaxPool2d, ReLU, Sequential,
)
from repro.tensor import Tensor

ORDERS = ("depth_first", "breadth_first")


def _assert_matches_autograd(model, x, y, patch_order):
    """Loss and every gradient within test_executor.py's split tolerance;
    returns the graph for op-type assertions."""
    auto_loss, auto_grads = autograd_step(model, x, y)
    exec_loss, exec_grads, graph = executor_step(model, x, y, patch_order)
    assert exec_loss == pytest.approx(auto_loss, rel=1e-10)
    assert len(exec_grads) == len(auto_grads)
    for auto, executed in zip(auto_grads, exec_grads):
        np.testing.assert_allclose(executed, auto, rtol=1e-8, atol=1e-10)
    return graph


def _dropout_model(rng):
    """conv -> relu -> maxpool -> conv -> relu -> dropout, all inside one
    2x2 split region."""
    body = [Conv2d(3, 4, 3, padding=1, rng=rng), ReLU(), MaxPool2d(2),
            Conv2d(4, 6, 3, padding=1, rng=rng), ReLU(), Dropout(0.5)]
    features = Sequential(SplitRegion(Sequential(*body), (2, 2)))
    classifier = Linear(6 * 8 * 8, 4, rng=rng)
    return to_float64(ConvClassifier(features, classifier, name="dropout",
                                      input_size=16))


class TestDropoutInRegion:
    """Masks are per-op streams, so the check is test_registry.py's: same
    seed, same bytes; one unique seed per patch op — not autograd."""

    @pytest.mark.parametrize("order", ORDERS)
    def test_seeds_unique_and_runs_reproducible(self, order):
        rng = np.random.default_rng(4)
        model = _dropout_model(rng)
        x = rng.standard_normal((2, 3, 16, 16))
        y = np.array([0, 2])
        first = executor_step(model, x, y, order, dropout_seed=7)
        again = executor_step(model, x, y, order, dropout_seed=7)
        other = executor_step(model, x, y, order, dropout_seed=8)
        graph = first[2]
        seeds = [op.attrs["seed"] for op in graph.ops
                 if op.op_type == "dropout"]
        assert len(seeds) == len(set(seeds)) == 4
        assert sum(op.op_type == "dropout_bwd" for op in graph.ops) == 4
        assert first[0] == again[0] and first[0] != other[0]
        for a, b in zip(first[1], again[1]):
            assert a.tobytes() == b.tobytes()
        assert analyze_graph(graph).findings == []


def _bottleneck_model(rng, num_splits):
    """Stem + a downsample-skip and an identity-skip Bottleneck, split."""
    body = Sequential(Conv2d(3, 8, 3, padding=1, rng=rng),
                      Bottleneck(8, 4, stride=2, rng=rng),
                      Bottleneck(16, 4, rng=rng))
    assert body[1].downsample is not None and body[2].downsample is None
    features = Sequential(SplitRegion(body, num_splits), GlobalAvgPool2d())
    return to_float64(ConvClassifier(features, Linear(16, 4, rng=rng),
                                      name="bottlenecks", input_size=16))


class TestBottleneckSplit:
    @pytest.mark.parametrize("order", ORDERS)
    def test_split_executor_matches_split_autograd(self, order):
        rng = np.random.default_rng(5)
        model = _bottleneck_model(rng, (2, 2))
        x = rng.standard_normal((2, 3, 16, 16))
        graph = _assert_matches_autograd(model, x, np.array([2, 0]), order)
        names = {op.name for op in graph.ops}
        assert {"conv.p00.b3", "relu.p11.b2", "conv.p01.ds",
                "relu.p10.join"} <= names

    def test_unsplit_region_is_the_bare_block(self):
        rng = np.random.default_rng(6)
        block = to_float64(Bottleneck(8, 4, stride=2, rng=rng))
        x = Tensor(rng.standard_normal((2, 8, 12, 12)), dtype=np.float64)
        bare = block(x).numpy()
        wrapped = SplitRegion(block, num_splits=(1, 1))(x).numpy()
        assert wrapped.tobytes() == bare.tobytes()
        split = SplitRegion(block, num_splits=(2, 2))(x).numpy()
        assert split.shape == bare.shape


class TestStochasticInferenceGraph:
    """§3.3: a Stochastic Split-CNN is evaluated on the unsplit network,
    and an inference graph is the eval-mode network."""

    @pytest.mark.parametrize("stochastic", [False, True])
    @pytest.mark.parametrize("eval_unsplit", [None, False, True])
    def test_inference_graph_is_model_eval(self, stochastic, eval_unsplit):
        rng = np.random.default_rng(7)
        base = to_float64(small_vgg(num_classes=4, rng=rng))
        model = to_split_cnn(base, depth=0.5, num_splits=(2, 2),
                             stochastic=stochastic, seed=0,
                             eval_unsplit=eval_unsplit)
        x = rng.standard_normal((2, 3, 32, 32))
        eager = model.eval()(Tensor(x, dtype=np.float64)).numpy()
        graph = build_inference_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        logits = GraphExecutor(graph, params).run(x)["logits"]
        assert logits.tobytes() == eager.tobytes()
        unsplit = stochastic if eval_unsplit is None else eval_unsplit
        assert any(op.op_type == "split" for op in graph.ops) != unsplit
        # Training graphs are always planned split.
        assert any(op.op_type == "split"
                   for op in build_training_graph(model, 2).ops)
