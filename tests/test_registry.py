"""Tests for the central op registry (``repro.graph.registry``).

Every model in the model zoo — unsplit, split, and stochastically split —
must build graphs whose ops all resolve through the registry, and the
registry's symbolic shape inference must agree with the shapes the
builder recorded.  The second half covers executor behaviour that rides
on the registry: per-op dropout seeding and intermediate-value release
between runs.
"""

import numpy as np
import pytest

from repro.core import to_split_cnn
from repro.graph import (
    Graph, GraphExecutor, build_forward_graph, build_training_graph,
    infer_op_shapes, op_def,
)
from repro.models import MODEL_REGISTRY, ConvClassifier, small_vgg
from repro.nn import Conv2d, Dropout, Linear, ReLU, Sequential


def _variants(model):
    yield "unsplit", model
    yield "split", to_split_cnn(model, depth=0.5, num_splits=(2, 2))
    yield "stochastic", to_split_cnn(model, depth=0.5, num_splits=(2, 2),
                                     stochastic=True, seed=0)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_registry_covers_model_zoo(name):
    """Every op of every zoo model resolves in the registry, and symbolic
    shape inference reproduces the builder's recorded output shapes."""
    model = MODEL_REGISTRY[name](rng=np.random.default_rng(0))
    for variant, variant_model in _variants(model):
        graph = build_training_graph(variant_model, 2)
        checked = 0
        for op in graph.ops:
            definition = op_def(op.op_type)  # raises if unregistered
            if definition.infer_shapes is None:
                continue
            inferred = infer_op_shapes(
                op.op_type,
                [graph.tensor(i).shape for i in op.inputs],
                op.attrs,
            )
            recorded = [graph.tensor(i).shape for i in op.outputs]
            assert inferred == recorded, (name, variant, op.name)
            checked += 1
        assert checked > 0, (name, variant)


class TestRegistryLookup:
    def test_unknown_op_type_raises(self):
        with pytest.raises(NotImplementedError):
            op_def("fft")

    def test_inference_free_op_raises_on_infer(self):
        # grad_acc has no symbolic inference: asking for it is an error,
        # not a silent passthrough.
        assert op_def("grad_acc").infer_shapes is None
        with pytest.raises(NotImplementedError):
            infer_op_shapes("grad_acc", [(1,)], {})


class TestValidateUsesRegistry:
    def test_unregistered_op_rejected(self):
        graph = Graph("t")
        a = graph.add_tensor("a", (4,))
        b = graph.add_tensor("b", (4,))
        graph.add_op("fft0", "fft", [a], [b])
        with pytest.raises(NotImplementedError):
            graph.validate()

    def test_shape_disagreement_rejected(self):
        graph = Graph("t")
        a = graph.add_tensor("a", (2, 3))
        b = graph.add_tensor("b", (2, 4))  # relu must preserve shape
        graph.add_op("relu0", "relu", [a], [b])
        with pytest.raises(ValueError):
            graph.validate()

    def test_conv_input_channels_must_match_the_weight(self):
        """A conv whose weight expects 4 input channels, at the builder's
        3: rejected when the graph is built (it used to validate, compile
        and fail only inside the GEMM)."""
        rng = np.random.default_rng(0)
        model = ConvClassifier(
            Sequential(Conv2d(4, 4, 3, padding=1, rng=rng), ReLU()),
            Linear(4 * 8 * 8, 2, rng=rng), name="channels", input_size=8)
        for inference in (False, True):
            with pytest.raises(ValueError, match=(
                    r"conv2d input has 3 channels, its weight "
                    r"\(4, 4, 3, 3\) expects 4")):
                build_forward_graph(model, 2, inference=inference)

        graph = Graph("t")
        x = graph.add_tensor("x", (2, 3, 8, 8), kind="input")
        weight = graph.add_tensor("w", (4, 4, 3, 3), kind="parameter")
        y = graph.add_tensor("y", (2, 4, 8, 8))
        attrs = {"kernel": (3, 3), "stride": (1, 1),
                 "padding": ((1, 1), (1, 1)), "out_channels": 4}
        graph.add_op("conv0", "conv2d", [x, weight], [y], attrs=attrs)
        with pytest.raises(ValueError, match="input has 3 channels"):
            graph.validate()
        # The stacked form checks every sibling against the one weight.
        with pytest.raises(ValueError, match="3 channels"):
            infer_op_shapes("conv2d_siblings",
                            [(2, 4, 8, 8), (2, 3, 8, 8), (4, 4, 3, 3)],
                            dict(attrs, siblings=2))


class TestWindowShapeInference:
    """Regression: a window larger than its (padded) input used to infer
    a zero or negative output extent, which ``Graph.validate`` accepted
    and HMMS planned."""

    CONV = {"kernel": (5, 5), "stride": (1, 1), "padding": ((1, 1), (1, 1)),
            "out_channels": 8}
    POOL = {"kernel": (3, 3), "stride": (2, 2), "padding": ((0, 0), (0, 0))}

    @pytest.mark.parametrize("op_type,attrs,in_hw,out_hw", [
        ("conv2d", CONV, (3, 3), (1, 1)),
        ("conv2d", CONV, (8, 3), (6, 1)),
        ("maxpool2d", POOL, (3, 3), (1, 1)),
        pytest.param("maxpool2d", POOL, (7, 4), (3, 1), id="maxpool2d-7x4"),
    ])
    def test_smallest_fitting_input_is_accepted(self, op_type, attrs,
                                                in_hw, out_hw):
        ins = [(2, 4) + in_hw, (8, 4, 5, 5)][:2 if op_type == "conv2d" else 1]
        (shape,) = infer_op_shapes(op_type, ins, attrs)
        assert shape[2:] == out_hw

    @pytest.mark.parametrize("op_type,attrs,in_hw", [
        ("conv2d", CONV, (2, 2)),       # output 0x0
        ("conv2d", CONV, (8, 1)),       # one dim negative
        ("maxpool2d", POOL, (2, 2)),
        ("maxpool2d", POOL, (1, 8)),    # (1 - 3) // 2 + 1 == 0
        ("maxpool2d", POOL, (0, 0)),    # -1 x -1, the alexnet tail
    ])
    def test_window_larger_than_input_raises(self, op_type, attrs, in_hw):
        ins = [(2, 4) + in_hw, (8, 4, 5, 5)][:2 if op_type == "conv2d" else 1]
        with pytest.raises(ValueError, match="does not fit") as info:
            infer_op_shapes(op_type, ins, attrs)
        kernel = attrs["kernel"]
        assert f"{kernel[0]}x{kernel[1]} window" in str(info.value)
        assert f"{in_hw[0]}x{in_hw[1]} input" in str(info.value)


def _dropout_model(rng):
    """Tiny classifier with two Dropout layers (cheap to execute)."""
    features = Sequential(
        Conv2d(3, 4, kernel_size=3, padding=1, rng=rng), ReLU())
    classifier = Sequential(
        Linear(4 * 8 * 8, 16, rng=rng), ReLU(), Dropout(0.5),
        Linear(16, 16, rng=rng), ReLU(), Dropout(0.5),
        Linear(16, 4, rng=rng),
    )
    return ConvClassifier(features, classifier, name="dropout-test",
                          input_size=8)


class TestDropoutSeeding:
    @pytest.fixture()
    def setup(self, rng):
        model = _dropout_model(rng)
        graph = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        x = rng.standard_normal((2, 3, 8, 8), dtype=np.float32)
        y = np.array([0, 1])
        return graph, params, x, y

    @staticmethod
    def _masks(graph, executor):
        return [executor.values[op.outputs[1]]
                for op in graph.forward_ops() if op.op_type == "dropout"]

    def test_distinct_layers_draw_distinct_masks(self, setup):
        # eager_free=False: the masks are inspected after the run.
        graph, params, x, y = setup
        executor = GraphExecutor(graph, params, eager_free=False)
        executor.run(x, y)
        masks = self._masks(graph, executor)
        assert len(masks) == 2
        assert masks[0].shape == masks[1].shape
        assert not np.array_equal(masks[0], masks[1])

    def test_masks_deterministic_per_seed(self, setup):
        graph, params, x, y = setup
        first = GraphExecutor(graph, params, dropout_seed=7, eager_free=False)
        second = GraphExecutor(graph, params, dropout_seed=7, eager_free=False)
        other = GraphExecutor(graph, params, dropout_seed=8, eager_free=False)
        first.run(x, y)
        second.run(x, y)
        other.run(x, y)
        for a, b in zip(self._masks(graph, first), self._masks(graph, second)):
            np.testing.assert_array_equal(a, b)
        assert any(
            not np.array_equal(a, c)
            for a, c in zip(self._masks(graph, first), self._masks(graph, other))
        )


@pytest.fixture()
def small_executor(rng):
    model = small_vgg(num_classes=4, rng=rng)
    graph = build_training_graph(model, 2)
    params = GraphExecutor.parameters_from_model(graph, model)
    x = rng.standard_normal((2, 3, 32, 32), dtype=np.float32)
    y = np.array([1, 3])
    return graph, params, x, y


def _live_ids(executor):
    """Ids of the tensors whose value the executor currently holds."""
    return {tensor_id for tensor_id, value in enumerate(executor.values)
            if value is not None}


class TestReleaseIntermediates:
    def test_values_do_not_grow_across_runs(self, small_executor):
        graph, params, x, y = small_executor
        executor = GraphExecutor(graph, params)
        executor.run(x, y)
        size_after_first = _live_ids(executor)
        executor.run(x, y)
        assert _live_ids(executor) == size_after_first

    def test_release_keeps_only_parameters(self, small_executor):
        graph, params, x, y = small_executor
        executor = GraphExecutor(graph, params)
        executor.run(x, y)
        executor.release_intermediates()
        param_ids = {t.id for t in graph.tensors.values()
                     if t.kind == "parameter"}
        assert _live_ids(executor) == param_ids

    def test_runs_are_repeatable_after_release(self, small_executor):
        graph, params, x, y = small_executor
        executor = GraphExecutor(graph, params)
        first = executor.run(x, y)
        executor.release_intermediates()
        second = executor.run(x, y)
        np.testing.assert_array_equal(first["loss"], second["loss"])
