"""Cross-validation of the IR executor against the autograd engine, and
tests for the measured (§4.3-style) cost model."""

import numpy as np
import pytest

from conftest import autograd_step, executor_step, to_float64
from repro.core import to_split_cnn
from repro.graph import build_training_graph
from repro.graph.executor import GraphExecutor
from repro.hmms import HMMSPlanner
from repro.models import resnet18, small_resnet, small_vgg
from repro.nn import init
from repro.profile.measured import MeasuredCostModel


class TestCrossValidation:
    """The strongest integration test in the suite: the symbolic IR +
    generated backward must agree with the autograd engine bit-for-bit
    (up to float64 rounding) on loss AND every parameter gradient."""

    @pytest.mark.parametrize("make", [small_vgg, small_resnet])
    def test_loss_and_gradients_match(self, make):
        rng = np.random.default_rng(0)
        model = to_float64(make(num_classes=4, rng=rng))
        x = rng.standard_normal((3, 3, 32, 32))
        y = np.array([0, 2, 1])
        auto_loss, auto_grads = autograd_step(model, x, y)
        exec_loss, exec_grads, _ = executor_step(model, x, y)
        assert exec_loss == pytest.approx(auto_loss, rel=1e-12)
        assert len(auto_grads) == len(exec_grads)
        for auto, executed in zip(auto_grads, exec_grads):
            np.testing.assert_allclose(executed, auto, rtol=1e-10, atol=1e-12)

    def test_split_model_graph_matches_split_autograd(self):
        """The split/concat IR path must agree with SplitRegion numerics."""
        rng = np.random.default_rng(1)
        base = to_float64(small_vgg(num_classes=4, rng=rng))
        model = to_split_cnn(base, depth=0.5, num_splits=(2, 2))
        x = rng.standard_normal((2, 3, 32, 32))
        y = np.array([1, 3])
        auto_loss, auto_grads = autograd_step(model, x, y)
        exec_loss, exec_grads, _ = executor_step(model, x, y)
        assert exec_loss == pytest.approx(auto_loss, rel=1e-10)
        for auto, executed in zip(auto_grads, exec_grads):
            np.testing.assert_allclose(executed, auto, rtol=1e-8, atol=1e-10)


class TestExecutorValidation:
    def test_missing_parameter_rejected(self, rng):
        model = small_vgg(num_classes=3, rng=rng)
        graph = build_training_graph(model, 2)
        with pytest.raises(KeyError):
            GraphExecutor(graph, {})

    def test_parameter_shape_mismatch(self, rng):
        model = small_vgg(num_classes=3, rng=rng)
        graph = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        first = next(iter(params))
        params[first] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            GraphExecutor(graph, params)

    def test_input_shape_mismatch(self, rng):
        model = small_vgg(num_classes=3, rng=rng)
        graph = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        with pytest.raises(ValueError):
            GraphExecutor(graph, params).run(np.zeros((5, 3, 32, 32)))

    def test_wrong_input_dtype_rejected(self, rng):
        """An input at any dtype but the graph's width (its model's
        parameter dtype, float32 by default) is rejected, not converted
        silently, by the executor under either of its names."""
        self._check_width_is_enforced(
            small_vgg(num_classes=3, rng=rng), np.float32, np.float64)

    def test_wrong_input_dtype_rejected_at_float64(self, rng):
        """The same holds for a model converted to float64: a float32
        input is rejected rather than upcast."""
        model = small_vgg(num_classes=3, rng=rng)
        to_float64(model)
        self._check_width_is_enforced(model, np.float64, np.float32)

    @staticmethod
    def _check_width_is_enforced(model, width, other):
        from repro.compile import CompiledPlan
        from repro.graph import build_inference_graph
        graph = build_inference_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        assert GraphExecutor(graph, params).width == width
        patch = np.zeros((2, 3, 32, 32), dtype=other)
        message = f"graph's width {np.dtype(width)}"
        with pytest.raises(TypeError, match=message):
            GraphExecutor(graph, params).run(patch)
        with pytest.raises(TypeError, match=message):
            CompiledPlan(graph, params).run(patch)
        # The input at the width still runs, and stays at it.
        out = GraphExecutor(graph, params).run(patch.astype(width))
        assert out["logits"].dtype == width

    def test_graph_without_input_is_a_typed_error(self):
        """Regression: ``next(...)`` over the input tensors escaped as a
        bare StopIteration (from the constructor of the lowered plan,
        from ``run`` of the interpreter)."""
        from repro.graph import Graph
        graph = Graph("no-input")
        weight = graph.add_tensor("w", (2, 2), kind="parameter")
        out = graph.add_tensor("logits", (2, 2))
        graph.add_op("relu", "relu", [weight], [out])
        executor = GraphExecutor(graph, {"w": np.ones((2, 2))})
        with pytest.raises(ValueError, match="no input tensor"):
            executor.run(np.zeros((2, 2)))
        # Nothing to bind is not an error for the explicit surface.
        assert executor.run_with_inputs({})["logits"].shape == (2, 2)

    def test_use_after_free_guards_raise(self, rng):
        """The guards were ``assert``s: stripped by ``python -O``, a freed
        value reached numpy as ``None``."""
        model = small_vgg(num_classes=3, rng=rng)
        graph = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        executor = GraphExecutor(graph, params)
        executor.run(rng.standard_normal((2, 3, 32, 32)).astype(np.float32),
                     np.array([0, 1]))
        forward = graph.ops[1]                # its input was freed eagerly
        with pytest.raises(RuntimeError, match="already freed"):
            executor.input(forward, 0)
        with pytest.raises(RuntimeError, match="already freed"):
            executor.execute_op(forward)
        with pytest.raises(ValueError, match="no forward twin"):
            executor.forward_op(forward)
        # A backward op reads only tensors its op names: a re-run after
        # its gradient input was freed hits the same guard.
        backward = next(op for op in graph.ops
                        if op.forward_of == graph.ops[0].id)
        with pytest.raises(RuntimeError, match="already freed"):
            executor.execute_op(backward)

    def test_memory_efficient_batchnorm_is_rejected(self):
        """In-place ABN's batch-norm backward names neither its forward's
        input nor its output, so no kernel can recompute the normalized
        input: the graph is planned, never run."""
        with init.fast_init():
            model = resnet18(dataset="cifar", memory_efficient=True)
        graph = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        [first] = [op for op in graph.ops if op.op_type == "batchnorm_bwd"
                   and op.attrs["recompute"]][:1]
        with pytest.raises(ValueError, match="in-place ABN") as info:
            GraphExecutor(graph, params)
        assert repr(first.name) in str(info.value)
        assert HMMSPlanner(scheduler="none").plan(graph).graph is graph

    def test_loss_requires_targets(self, rng):
        model = small_vgg(num_classes=3, rng=rng)
        graph = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        with pytest.raises(ValueError):
            GraphExecutor(graph, params).run(
                np.zeros((2, 3, 32, 32), dtype=np.float32), targets=None)


class TestMeasuredCostModel:
    @pytest.fixture(scope="class")
    def measured_setup(self):
        rng = np.random.default_rng(0)
        model = small_vgg(num_classes=3, input_size=16,
                          config=[8, "M", 16, "M"], rng=rng)
        graph = build_training_graph(model, 4)
        params = GraphExecutor.parameters_from_model(graph, model)
        x = rng.standard_normal((4, 3, 16, 16))
        y = np.array([0, 1, 2, 0])
        cost_model = MeasuredCostModel(graph, params, x, y, repetitions=3)
        return graph, cost_model

    def test_every_op_measured(self, measured_setup):
        graph, cost_model = measured_setup
        assert set(cost_model.measured_seconds) == {op.id for op in graph.ops}
        assert all(t >= 0 for t in cost_model.measured_seconds.values())

    def test_cost_uses_measurement(self, measured_setup):
        graph, cost_model = measured_setup
        for op in graph.ops:
            assert cost_model.cost(graph, op).seconds == \
                cost_model.measured_seconds[op.id]

    def test_conv_slower_than_relu(self, measured_setup):
        graph, cost_model = measured_setup
        conv = next(op for op in graph.forward_ops()
                    if op.op_type == "conv2d")
        relu = next(op for op in graph.forward_ops() if op.op_type == "relu")
        assert cost_model.cost(graph, conv).seconds > \
            cost_model.cost(graph, relu).seconds

    def test_planner_accepts_measured_model(self, measured_setup):
        graph, cost_model = measured_setup
        plan = HMMSPlanner(scheduler="hmms", cost_model=cost_model).plan(graph)
        assert plan.device_general_peak > 0

    def test_invalid_repetitions(self, measured_setup):
        graph, _ = measured_setup
        with pytest.raises(ValueError):
            MeasuredCostModel(graph, {}, np.zeros(1), repetitions=0)


class TestFinalGradientResolution:
    """The total gradient of a multiply-consumed parameter is the
    structural end of its grad_acc chain — not the highest tensor id.
    Ids carry no semantics; a renumbered-but-valid graph must still
    yield the right gradients."""

    @staticmethod
    def _renumber_tensors_descending(graph):
        """Remap tensor ids to max_id - old_id (a valid bijection that
        reverses every id-ordering relation)."""
        max_id = max(graph.tensors)
        mapping = {old: max_id - old for old in graph.tensors}
        graph.tensors = {mapping[old]: tensor
                         for old, tensor in graph.tensors.items()}
        for tensor in graph.tensors.values():
            tensor.id = mapping[tensor.id]
        for op in graph.ops:
            op.inputs = [mapping[i] for i in op.inputs]
            op.outputs = [mapping[i] for i in op.outputs]
            op.saved = [mapping[i] for i in op.saved]
            if op.inplace_of is not None:
                op.inplace_of = mapping[op.inplace_of]
        return graph

    @pytest.fixture()
    def split_case(self):
        rng = np.random.default_rng(3)
        base = small_vgg(num_classes=4, rng=rng)
        model = to_split_cnn(base, depth=0.5, num_splits=(2, 2))
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        y = np.array([0, 2])
        return model, x, y

    def test_renumbered_graph_yields_identical_gradients(self, split_case):
        model, x, y = split_case
        graph = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        pristine = GraphExecutor(graph, params).run(x, y)

        renumbered = self._renumber_tensors_descending(
            build_training_graph(model, 2))
        renumbered.validate()            # still a well-formed graph
        for workers in (1, 4):
            outputs = GraphExecutor(renumbered, params,
                                    workers=workers).run(x, y)
            assert pristine.keys() == outputs.keys()
            for key in pristine:
                assert pristine[key].tobytes() == outputs[key].tobytes()

    def test_max_id_heuristic_would_pick_a_partial_gradient(self, split_case):
        """The bug the structural resolution fixes: after renumbering,
        the highest-id candidate is a partial contribution, not the
        accumulated total."""
        model, x, y = split_case
        graph = self._renumber_tensors_descending(
            build_training_graph(model, 2))
        executor = GraphExecutor(
            graph, GraphExecutor.parameters_from_model(
                build_training_graph(model, 2), model))
        mismatch = 0
        for param_name, tail_id in executor._final_grads.items():
            names = (f"grad({param_name})", f"grad_acc({param_name})")
            candidates = [t for t in graph.tensors.values()
                          if t.kind == "gradient" and t.name in names]
            by_max_id = max(candidates, key=lambda t: t.id)
            if by_max_id.id != tail_id:
                mismatch += 1
        # The split model shares every split-region conv parameter across
        # patches, so at least those chains expose the difference.
        assert mismatch > 0
