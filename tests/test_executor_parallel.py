"""Wavefront executor determinism: serial vs parallel, any valid order.

The scheduler's contract is strong — for ANY worker count and ANY
dependency-respecting serialization, losses and gradients are
byte-identical to the serial walk of ``graph.ops``.  The matrix below
covers the model zoo shapes that stress it: split transforms (parallel
patch chains sharing weights through ``grad_acc`` accumulation),
residual graphs (multi-consumer activations), and dropout (per-op
seeded masks).
"""

import numpy as np
import pytest

from repro.core import to_split_cnn
from repro.graph import build_training_graph
from repro.graph.executor import GraphExecutor
from repro.models import ConvClassifier, small_resnet, small_vgg
from repro.nn import Conv2d, Dropout, Linear, ReLU, Sequential


def _dropout_model(rng):
    features = Sequential(
        Conv2d(3, 4, kernel_size=3, padding=1, rng=rng), ReLU())
    classifier = Sequential(
        Linear(4 * 8 * 8, 16, rng=rng), ReLU(), Dropout(0.5),
        Linear(16, 16, rng=rng), ReLU(), Dropout(0.5),
        Linear(16, 4, rng=rng),
    )
    return ConvClassifier(features, classifier, name="dropout-test",
                          input_size=8)


def _case(name):
    """(model, x, y) for one matrix entry; fresh weights per call, ``x``
    at the models' float32 width."""
    rng = np.random.default_rng(0)
    if name == "dropout":
        model = _dropout_model(rng)
        x = rng.standard_normal((2, 3, 8, 8))
    else:
        base, _, splits = name.partition(":")
        make = {"vgg": small_vgg, "resnet": small_resnet}[base]
        model = make(num_classes=4, rng=rng)
        if splits:
            n = int(splits)
            model = to_split_cnn(model, depth=0.5, num_splits=(n, n))
        x = rng.standard_normal((2, 3, 32, 32))
    y = np.array([1, 3])
    return model, x.astype(np.float32), y


CASES = ["vgg", "vgg:2", "vgg:4", "resnet", "resnet:2", "dropout"]


def _outputs_bytes(outputs):
    return {key: value.tobytes() for key, value in outputs.items()}


class TestSerialParallelParity:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_byte_identical_loss_and_gradients(self, case, workers):
        model, x, y = _case(case)
        graph = build_training_graph(model, x.shape[0])
        params = GraphExecutor.parameters_from_model(graph, model)
        serial = GraphExecutor(graph, params).run(x, y)
        parallel = GraphExecutor(graph, params, workers=workers).run(x, y)
        assert serial.keys() == parallel.keys()
        assert _outputs_bytes(serial) == _outputs_bytes(parallel)

    def test_parallel_run_is_repeatable(self):
        model, x, y = _case("vgg:2")
        graph = build_training_graph(model, x.shape[0])
        params = GraphExecutor.parameters_from_model(graph, model)
        executor = GraphExecutor(graph, params, workers=4)
        first = _outputs_bytes(executor.run(x, y))
        second = _outputs_bytes(executor.run(x, y))
        assert first == second


# ----------------------------------------------------------------------
# Seeded-shuffle fuzz: any dependency-respecting serialization agrees
# ----------------------------------------------------------------------
def _shuffled_topo_order(graph, seed):
    """A random topological order of ``graph.ops`` (Kahn's, seeded)."""
    rng = np.random.default_rng(seed)
    deps = graph.op_dependencies()
    remaining = {op_id: len(d) for op_id, d in deps.items()}
    dependents = {}
    for op_id, op_deps in deps.items():
        for dep in op_deps:
            dependents.setdefault(dep, []).append(op_id)
    by_id = {op.id: op for op in graph.ops}
    ready = sorted(op_id for op_id, count in remaining.items() if count == 0)
    order = []
    while ready:
        op_id = ready.pop(int(rng.integers(len(ready))))
        order.append(by_id[op_id])
        for dep_id in dependents.get(op_id, ()):
            remaining[dep_id] -= 1
            if remaining[dep_id] == 0:
                ready.append(dep_id)
    assert len(order) == len(graph.ops), "dependency cycle"
    return order


class TestShuffledSerializationFuzz:
    @pytest.mark.parametrize("case", ["vgg:2", "resnet", "dropout"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_order_byte_identical(self, case, seed):
        model, x, y = _case(case)
        graph = build_training_graph(model, x.shape[0])
        params = GraphExecutor.parameters_from_model(graph, model)
        baseline = _outputs_bytes(GraphExecutor(graph, params).run(x, y))

        shuffled = build_training_graph(model, x.shape[0])
        order = _shuffled_topo_order(shuffled, seed)
        assert [op.id for op in order] != [op.id for op in shuffled.ops] \
            or seed > 0  # seed 0 may coincide, others should reorder
        shuffled.ops = order
        shuffled.validate()      # still a legal serialization
        for workers in (1, 4):
            outputs = GraphExecutor(shuffled, params,
                                    workers=workers).run(x, y)
            assert _outputs_bytes(outputs) == baseline


# ----------------------------------------------------------------------
# Eager freeing and constructor validation
# ----------------------------------------------------------------------
class TestEagerFree:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_intermediates_freed_during_run(self, workers):
        model, x, y = _case("vgg:2")
        graph = build_training_graph(model, x.shape[0])
        params = GraphExecutor.parameters_from_model(graph, model)
        eager = GraphExecutor(graph, params, workers=workers)
        keep = GraphExecutor(graph, params, eager_free=False)
        eager_out = eager.run(x, y)
        keep_out = keep.run(x, y)
        # Same numbers either way...
        assert _outputs_bytes(eager_out) == _outputs_bytes(keep_out)
        # ...but the eager run retired consumed intermediates on the fly
        # instead of holding one whole step.
        def live(table):
            return sum(entry is not None for entry in table)
        assert live(eager.values) < live(keep.values)
        # Outputs and parameters survive the freeing.
        for tensor_id in eager._pinned:
            assert eager.values[tensor_id] is not None

    def test_workers_must_be_positive(self):
        model, x, y = _case("vgg")
        graph = build_training_graph(model, x.shape[0])
        params = GraphExecutor.parameters_from_model(graph, model)
        with pytest.raises(ValueError, match="workers"):
            GraphExecutor(graph, params, workers=0)
