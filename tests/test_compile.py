"""Compiler correctness: byte-identity, pass algebra, and consumers.

The compiler's contract is the executor's, one level up: for every model
in the zoo matrix (split and unsplit, training and inference, serial and
wavefront), running ``compile_graph`` and executing the lowered
:class:`CompiledPlan` produces byte-identical losses, gradients and
logits to the uncompiled interpreter.  On top of identity, the pass
algebra must hold (idempotence, fuse/fold commutativity), compiled
graphs must stay clean under the static analyzer and key serving plan
caches by the compile fingerprint.
"""

from collections import Counter

import numpy as np
import pytest

from repro.analysis import analyze_graph
from repro.compile import (
    FINGERPRINT, CompiledPlan, compile_graph, fold_constants, fuse_ops,
)
from repro.core import to_split_cnn
from repro.graph import GraphExecutor, build_inference_graph, build_training_graph
from repro.graph.builder import model_width
from repro.graph.export import MEMORY_BOUND_TYPES
from repro.graph.ir import OpNode
from repro.graph.registry import op_def
from repro.models import ConvClassifier, small_resnet, small_vgg, vgg11
from repro.nn import Conv2d, Dropout, Linear, ReLU, Sequential
from repro.serve import Request, ServingEngine

from conftest import to_float64


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
    at the model's width (``:f64`` converts the model to float64)."""
    rng = np.random.default_rng(0)
    if name == "dropout":
        model = _dropout_model(rng)
        x = rng.standard_normal((2, 3, 8, 8))
    else:
        base, _, rest = name.partition(":")
        splits, _, width = rest.partition(":")
        make = {"vgg": small_vgg, "resnet": small_resnet}[base]
        model = make(num_classes=4, rng=rng)
        if width == "f64":
            to_float64(model)
        if splits:
            n = int(splits)
            model = to_split_cnn(model, depth=0.5, num_splits=(n, n))
        x = rng.standard_normal((2, 3, 32, 32))
    y = np.array([1, 3])
    return model, x.astype(model_width(model)), y


CASES = ["vgg", "vgg:2", "resnet", "resnet:2", "dropout"]


def _outputs_bytes(outputs):
    return {key: value.tobytes() for key, value in outputs.items()}


def _build(model, batch, mode):
    if mode == "train":
        return build_training_graph(model, batch)
    return build_inference_graph(model, batch)


def _compiled_graph(model, batch, mode):
    graph = _build(model, batch, mode)
    params = GraphExecutor.parameters_from_model(graph, model)
    compile_graph(graph, params=params)
    return graph, params


def _signature(graph):
    """Structural identity modulo tensor/op numbering: ops in order with
    ids renumbered by first appearance, plus constant payload bytes."""
    mapping = {}

    def tid(tensor_id):
        if tensor_id not in mapping:
            mapping[tensor_id] = len(mapping)
        return mapping[tensor_id]

    positions = {op.id: index for index, op in enumerate(graph.ops)}
    ops = tuple(
        (
            op.op_type, op.phase,
            tuple(tid(t) for t in op.inputs),
            tuple(tid(t) for t in op.outputs),
            tuple(sorted(op.attrs.items())),
            tuple(sorted(tid(t) for t in op.saved)),
            positions[op.forward_of] if op.forward_of is not None else None,
            tid(op.inplace_of) if op.inplace_of is not None else None,
        )
        for op in graph.ops
    )
    constants = tuple(sorted(
        (tid(tensor_id), graph.constants[tensor_id].tobytes())
        for tensor_id in graph.constants
    ))
    return ops, constants


# ----------------------------------------------------------------------
# Byte-identity: compiled plan vs interpreter across the zoo matrix
# ----------------------------------------------------------------------
class TestCompiledIdentity:
    @pytest.mark.parametrize("case", CASES + ["resnet:2:f64"])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_compiled_matches_interpreter(self, case, mode, workers):
        model, x, y = _case(case)
        targets = y if mode == "train" else None
        reference = _build(model, x.shape[0], mode)
        params = GraphExecutor.parameters_from_model(reference, model)
        expected = GraphExecutor(reference, params).run(x, targets)

        compiled, params = _compiled_graph(model, x.shape[0], mode)
        plan = CompiledPlan(compiled, params, workers=workers)
        actual = plan.run(x, targets)
        assert expected.keys() == actual.keys()
        assert _outputs_bytes(expected) == _outputs_bytes(actual)

    def test_compiled_run_is_repeatable(self):
        model, x, y = _case("vgg:2")
        compiled, params = _compiled_graph(model, x.shape[0], "train")
        plan = CompiledPlan(compiled, params, workers=4)
        assert _outputs_bytes(plan.run(x, y)) == _outputs_bytes(plan.run(x, y))

    def test_fusion_actually_happened(self):
        """The matrix above would pass vacuously on a no-op pipeline."""
        model, x, y = _case("vgg:2")
        graph = _build(model, x.shape[0], "infer")
        before = len(graph.ops)
        params = GraphExecutor.parameters_from_model(graph, model)
        report = compile_graph(graph, params=params)
        assert report.ops_after < before
        assert any(op.op_type.endswith("_siblings") for op in graph.ops)
        assert any(op.op_type == "conv2d_relu" for op in graph.ops)

    def test_eval_batchnorm_folds_to_affine(self):
        model, x, y = _case("resnet:2")
        graph, params = _compiled_graph(model, x.shape[0], "infer")
        assert not any(op.op_type == "batchnorm_eval" for op in graph.ops)
        assert any("bn_affine" in op.op_type for op in graph.ops)
        # Folded constants are carried by the graph and referenced.
        assert graph.constants
        for tensor_id in graph.constants:
            assert graph.tensor(tensor_id).kind == "constant"

    def test_weight_tied_chain_is_a_typed_error(self):
        """One conv applied twice in a row shares its weight like a split
        layer's patches but feeds itself: stacking it would make it depend
        on its own output, so compiling raises instead of returning that
        graph."""
        rng = np.random.default_rng(0)
        conv = Conv2d(3, 3, kernel_size=3, padding=1, rng=rng)
        model = ConvClassifier(Sequential(conv, ReLU(), conv, ReLU()),
                               Linear(3 * 8 * 8, 4, rng=rng), input_size=8)
        graph = build_inference_graph(model, 2)
        with pytest.raises(ValueError, match="in a dependency cycle"):
            compile_graph(graph)


# ----------------------------------------------------------------------
# ReLU backward fusion
# ----------------------------------------------------------------------
#: Fused type -> the producer whose kernel and price it extends.
PRODUCERS = {"maxpool2d_bwd_relu": "maxpool2d_bwd",
             "conv2d_bwd_data_relu": "conv2d_bwd_data",
             "conv2d_bwd_data_relu_siblings": "conv2d_bwd_data_siblings"}


def _op_types(graph):
    return Counter(op.op_type for op in graph.ops)


def _mask_producers(graph):
    """The producer type of each ``relu_bwd``'s gradient input."""
    return Counter(graph.op_by_id(graph.tensor(op.inputs[0]).producer).op_type
                   for op in graph.ops if op.op_type == "relu_bwd")


def _compiled_vgg11_2x2():
    model = to_split_cnn(vgg11(num_classes=10, rng=np.random.default_rng(0)),
                         depth=1.0, num_splits=(2, 2))
    graph = build_training_graph(model, 2)
    compile_graph(graph)
    return graph


class TestReluBackwardFusion:
    def test_split_vgg_training_graphs_hold_no_relu_bwd(self):
        types = _op_types(_compiled_vgg11_2x2())
        assert types["relu_bwd"] == 0
        assert types["maxpool2d_bwd_relu"] == 17
        assert types["conv2d_bwd_data_relu_siblings"] == 3
        model, x, _ = _case("vgg:2")
        graph, _ = _compiled_graph(model, x.shape[0], "train")
        assert _op_types(graph)["relu_bwd"] == 0

    def test_resnet_keeps_accumulated_and_shared_gradients_unfused(self):
        model, x, _ = _case("resnet")
        graph, _ = _compiled_graph(model, x.shape[0], "train")
        assert _op_types(graph)["conv2d_bwd_data_relu"] == 3
        assert _mask_producers(graph) == {"grad_acc": 3, "gap_bwd": 1}

        # A second reader of one fusable gradient keeps its mask apart.
        graph = _build(model, x.shape[0], "train")
        mask = next(op for op in graph.ops if op.op_type == "relu_bwd"
                    and graph.op_by_id(graph.tensor(op.inputs[0]).producer)
                    .op_type == "conv2d_bwd_data")
        grad, out = (graph.tensor(t) for t in mask.inputs)
        graph.add_op("probe", "relu_bwd", [grad, out],
                     [graph.add_tensor("probe", grad.shape)],
                     phase="backward")
        compile_graph(graph)
        assert _op_types(graph)["conv2d_bwd_data_relu"] == 2
        assert graph.op_by_id(mask.id) is mask
        assert graph.op_by_id(grad.producer).op_type == "conv2d_bwd_data"

    def test_cost_is_the_producers_plus_the_mask(self):
        model, x, _ = _case("vgg")
        graphs = [_compiled_graph(model, x.shape[0], "train")[0],
                  _compiled_vgg11_2x2()]
        fused = [(graph, op) for graph in graphs for op in graph.ops
                 if op.op_type in PRODUCERS]
        assert {op.op_type for _, op in fused} == set(PRODUCERS)
        for graph, op in fused:
            producer = OpNode(
                id=op.id, name=op.name, op_type=PRODUCERS[op.op_type],
                inputs=op.inputs[:len(op.inputs) - len(op.outputs)],
                outputs=op.outputs, attrs=op.attrs, phase=op.phase,
                forward_of=op.forward_of)
            flops, _ = op_def(producer.op_type).characterize(graph, producer)
            masked = sum(graph.tensor(t).num_elements for t in op.outputs)
            moved = sum(graph.tensor(t).nbytes
                        for t in op.inputs + op.outputs)
            assert op_def(op.op_type).characterize(graph, op) \
                == (flops + masked, moved)
            assert op_def(op.op_type).efficiency \
                == op_def(producer.op_type).efficiency
            assert (op.op_type in MEMORY_BOUND_TYPES) \
                == (producer.op_type in MEMORY_BOUND_TYPES)


#: Forward fused type -> the producer it extends (priced as that alone).
FORWARD_PRODUCERS = {"conv2d_relu": "conv2d",
                     "conv2d_relu_siblings": "conv2d_siblings"}


def _relu_read_conv(graph):
    """A ``conv2d`` whose one output only a ``relu`` reads."""
    return next(op for op in graph.ops if op.op_type == "conv2d"
                and [graph.op_by_id(c).op_type
                     for c in graph.tensor(op.outputs[0]).consumers]
                == ["relu"])


class TestReluForwardFold:
    def test_forward_cost_is_the_producers(self):
        model, x, _ = _case("vgg")
        graphs = [_compiled_graph(model, x.shape[0], "infer")[0],
                  _compiled_vgg11_2x2()]
        fused = [(graph, op) for graph in graphs for op in graph.ops
                 if op.op_type in FORWARD_PRODUCERS]
        assert {op.op_type for _, op in fused} == set(FORWARD_PRODUCERS)
        for graph, op in fused:
            producer = OpNode(
                id=op.id, name=op.name, op_type=FORWARD_PRODUCERS[op.op_type],
                inputs=op.inputs, outputs=op.outputs, attrs=op.attrs,
                phase=op.phase)
            assert op_def(op.op_type).characterize(graph, op) \
                == op_def(producer.op_type).characterize(graph, producer)
            assert op_def(op.op_type).efficiency \
                == op_def(producer.op_type).efficiency
            assert (op.op_type in MEMORY_BOUND_TYPES) \
                == (producer.op_type in MEMORY_BOUND_TYPES)

    def _fused_count_with(self, add_probe):
        model, x, _ = _case("vgg")
        graph = _build(model, x.shape[0], "infer")
        conv = _relu_read_conv(graph)
        if add_probe is not None:
            add_probe(graph, graph.tensor(conv.outputs[0]))
        compile_graph(graph)
        return (_op_types(graph)["conv2d_relu"],
                any(op is conv for op in graph.ops))

    def test_a_second_reader_keeps_the_conv_unfused(self):
        unprobed, kept = self._fused_count_with(None)
        assert not kept
        probed, kept = self._fused_count_with(
            lambda graph, out: graph.add_op(
                "probe", "relu", [out], [graph.add_tensor("probe", out.shape)]))
        assert (probed, kept) == (unprobed - 1, True)

    def test_a_saved_conv_output_stays_unfused(self):
        unprobed, _ = self._fused_count_with(None)

        def saver(graph, out):
            tail = graph.ops[-1]
            graph.add_op("probe", "relu", [graph.tensor(tail.outputs[0])],
                         [graph.add_tensor("probe", graph.tensor(
                             tail.outputs[0]).shape)], saved=[out])
        assert self._fused_count_with(saver) == (unprobed - 1, True)


# ----------------------------------------------------------------------
# Pass algebra: idempotence and fuse/fold commutativity
# ----------------------------------------------------------------------
class TestPassAlgebra:
    @pytest.mark.parametrize("case", CASES)
    def test_pipeline_is_idempotent(self, case):
        model, x, y = _case(case)
        graph, params = _compiled_graph(model, x.shape[0], "infer")
        first = _signature(graph)
        assert fuse_ops(graph).changed == 0
        assert fold_constants(graph, params).changed == 0
        assert _signature(graph) == first

    @pytest.mark.parametrize("case", ["vgg:2", "resnet", "resnet:2"])
    def test_fuse_then_fold_equals_fold_then_fuse(self, case):
        model, x, y = _case(case)
        graphs = []
        for fuse_first in (True, False):
            graph = _build(model, x.shape[0], "infer")
            params = GraphExecutor.parameters_from_model(graph, model)
            if fuse_first:
                fuse_ops(graph)
            fold_constants(graph, params)
            if not fuse_first:
                fuse_ops(graph)
            graph.validate()
            graphs.append(graph)
        assert _signature(graphs[0]) == _signature(graphs[1])

    def test_fingerprint_is_pinned(self):
        """Serving caches and stored plan keys read this string: it
        changes only when ``compile_graph``'s output graphs do."""
        assert FINGERPRINT == "aa56545d2eeb"
        model, x, _ = _case("vgg")
        graph = _build(model, x.shape[0], "infer")
        assert f"(pipeline {FINGERPRINT})" in compile_graph(graph).render()


# ----------------------------------------------------------------------
# Consumers: analyzer, serving cache, CLI
# ----------------------------------------------------------------------
class TestAnalyzerOnCompiledGraphs:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_compiled_graphs_lint_clean(self, case, mode):
        model, x, y = _case(case)
        graph, _ = _compiled_graph(model, x.shape[0], mode)
        report = analyze_graph(graph, workers=4, inference=(mode == "infer"))
        assert report.ok, report.render()


class TestServingCache:
    def _engine(self, **kwargs):
        rng = np.random.default_rng(0)
        model = small_vgg(num_classes=4, rng=rng)
        return ServingEngine(model, numeric=True, batch_cap=8, **kwargs)

    def test_fingerprint_separates_cache_keys(self):
        interp = self._engine()
        compiled = self._engine(compile_plans=True)
        assert interp.pipeline_fingerprint == "interpreter"
        assert compiled.pipeline_fingerprint == FINGERPRINT
        for engine in (interp, compiled):
            engine.execute([Request(id=1, arrival_time=0.0, size=2)])
        interp_keys = set(interp.cache._entries)
        compiled_keys = set(compiled.cache._entries)
        assert interp_keys and compiled_keys
        assert not (interp_keys & compiled_keys)

    def test_compiled_engine_serves_identical_logits(self):
        interp = self._engine(seed=7)
        compiled = self._engine(seed=7, compile_plans=True)
        request = Request(id=1, arrival_time=0.0, size=2)
        interp.execute([request])
        expected = interp.logits_for(request).copy()
        compiled.execute([request])
        np.testing.assert_allclose(compiled.logits_for(request), expected,
                                   rtol=1e-9, atol=1e-9)
        assert isinstance(compiled.entry_for(2).executor, CompiledPlan)

    def test_cache_stats_invariant(self):
        engine = self._engine(compile_plans=True)
        for index in range(6):
            engine.execute([Request(id=index, arrival_time=float(index),
                                    size=1 + index % 3)])
        cache = engine.cache
        assert cache.misses == len(cache) + cache.evictions
        assert cache.hits + cache.misses == engine.executed_batches
        assert cache.hits > 0


class TestCompileCli:
    def test_check_passes(self, capsys):
        from repro.cli import main
        # small_resnet's inference graph folds its batch norms into
        # bn_affine ops.
        for argv in (["compile", "small_vgg", "--split", "4", "--check"],
                     ["compile", "small_resnet", "--check"]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "byte-identity check: identical" in out
            assert "compile report" in out

    def test_check_train_mode(self, capsys):
        from repro.cli import main
        assert main(["compile", "small_resnet", "--train", "--check"]) == 0
        assert "identical" in capsys.readouterr().out
