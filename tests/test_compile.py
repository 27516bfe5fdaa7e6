"""Compiler correctness: byte-identity, pass algebra, and consumers.

The compiler's contract is the executor's, one level up: for every model
in the zoo matrix (split and unsplit, training and inference, serial and
wavefront), running the default pipeline and executing the lowered
:class:`CompiledPlan` produces byte-identical losses, gradients and
logits to the uncompiled interpreter.  On top of identity, the pass
algebra must hold (idempotence, fuse/fold commutativity), compiled
graphs must stay clean under the static analyzer, survive the JSON
export roundtrip, and key serving plan caches by pipeline fingerprint.
"""

import numpy as np
import pytest

from repro.analysis import analyze_graph
from repro.compile import (
    FOLD_CONSTANTS, FUSE_OPS, CompiledPlan, Pipeline, compile_graph,
    default_pipeline,
)
from repro.core import to_split_cnn
from repro.graph import GraphExecutor, build_inference_graph, build_training_graph
from repro.graph.export import graph_from_dict, graph_to_dict, load_graph, save_graph
from repro.graph.ir import Graph
from repro.models import ConvClassifier, small_resnet, small_vgg
from repro.nn import Conv2d, Dropout, Linear, ReLU, Sequential
from repro.serve import Request, ServingEngine


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
    """(model, x, y) for one matrix entry; fresh weights per call."""
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
    return model, x, y


CASES = ["vgg", "vgg:2", "resnet", "resnet:2", "dropout"]


def _outputs_bytes(outputs):
    return {key: value.tobytes() for key, value in outputs.items()}


def _build(model, batch, mode):
    if mode == "train":
        return build_training_graph(model, batch)
    return build_inference_graph(model, batch, eval_batchnorm=True)


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
    @pytest.mark.parametrize("case", CASES)
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

    def test_memory_efficient_bn_fuses_conv_bn_relu(self):
        rng = np.random.default_rng(0)
        model = small_resnet(num_classes=4, rng=rng)
        model.memory_efficient_bn = True
        x = rng.standard_normal((2, 3, 32, 32))
        y = np.array([1, 3])
        reference = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(reference, model)
        expected = GraphExecutor(reference, params).run(x, y)

        graph = build_training_graph(model, 2)
        compile_graph(graph, params=params)
        assert any(op.op_type == "conv2d_bn_relu" for op in graph.ops)
        actual = CompiledPlan(graph, params).run(x, y)
        assert _outputs_bytes(expected) == _outputs_bytes(actual)


# ----------------------------------------------------------------------
# Pass algebra: idempotence and fuse/fold commutativity
# ----------------------------------------------------------------------
class TestPassAlgebra:
    @pytest.mark.parametrize("case", CASES)
    def test_pipeline_is_idempotent(self, case):
        model, x, y = _case(case)
        graph, params = _compiled_graph(model, x.shape[0], "infer")
        first = _signature(graph)
        report = default_pipeline().run(graph, params=params)
        assert all(result.changed == 0 for result in report.passes)
        assert _signature(graph) == first

    @pytest.mark.parametrize("case", ["vgg:2", "resnet", "resnet:2"])
    def test_fuse_then_fold_equals_fold_then_fuse(self, case):
        model, x, y = _case(case)
        graphs = []
        for order in ((FUSE_OPS, FOLD_CONSTANTS), (FOLD_CONSTANTS, FUSE_OPS)):
            graph = _build(model, x.shape[0], "infer")
            params = GraphExecutor.parameters_from_model(graph, model)
            Pipeline(order).run(graph, params=params)
            graphs.append(graph)
        assert _signature(graphs[0]) == _signature(graphs[1])

    def test_fingerprint_tracks_pass_list(self):
        default = default_pipeline()
        assert default.fingerprint == default_pipeline().fingerprint
        assert default.fingerprint != Pipeline([FUSE_OPS]).fingerprint


# ----------------------------------------------------------------------
# Consumers: analyzer, export roundtrip, serving cache, CLI
# ----------------------------------------------------------------------
class TestAnalyzerOnCompiledGraphs:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_compiled_graphs_lint_clean(self, case, mode):
        model, x, y = _case(case)
        graph, _ = _compiled_graph(model, x.shape[0], mode)
        report = analyze_graph(graph, workers=4, inference=(mode == "infer"))
        assert report.ok, report.render()


class TestExportRoundtrip:
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_roundtrip_then_execute(self, mode, tmp_path):
        model, x, y = _case("resnet:2")
        graph, params = _compiled_graph(model, x.shape[0], mode)
        expected = _outputs_bytes(
            CompiledPlan(graph, params).run(x, y if mode == "train" else None))

        path = tmp_path / "graph.json"
        save_graph(graph, path)
        restored = load_graph(path)
        assert _signature(restored) == _signature(graph)
        actual = _outputs_bytes(
            CompiledPlan(restored, params).run(
                x, y if mode == "train" else None))
        assert actual == expected

    def test_roundtrip_preserves_links_and_attrs(self):
        model, x, y = _case("vgg:2")
        graph, _ = _compiled_graph(model, x.shape[0], "train")
        restored = graph_from_dict(graph_to_dict(graph))
        by_id = {op.id: op for op in restored.ops}
        for op in graph.ops:
            twin = by_id[op.id]
            assert twin.attrs == op.attrs
            assert twin.forward_of == op.forward_of
            assert twin.inplace_of == op.inplace_of
            assert twin.saved == op.saved

    def test_rejects_foreign_documents(self):
        payload = graph_to_dict(Graph("empty"))
        payload["format"] = "other"
        with pytest.raises(ValueError, match="format"):
            graph_from_dict(payload)
        payload = graph_to_dict(Graph("empty"))
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            graph_from_dict(payload)


class TestServingCache:
    def _engine(self, **kwargs):
        rng = np.random.default_rng(0)
        model = small_vgg(num_classes=4, rng=rng)
        return ServingEngine(model, numeric=True, batch_cap=8, **kwargs)

    def test_fingerprint_separates_cache_keys(self):
        interp = self._engine()
        compiled = self._engine(compile_plans=True)
        assert interp.pipeline_fingerprint == "interpreter"
        assert compiled.pipeline_fingerprint == default_pipeline().fingerprint
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
        assert main(["compile", "small_vgg", "--split", "4", "--check"]) == 0
        out = capsys.readouterr().out
        assert "byte-identity check: identical" in out
        assert "compile report" in out

    def test_check_train_mode(self, capsys):
        from repro.cli import main
        assert main(["compile", "small_resnet", "--train", "--check"]) == 0
        assert "identical" in capsys.readouterr().out
