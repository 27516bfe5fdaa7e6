"""Tests for the whole-stack analyzer additions: the kill matrix,
lowering verification (SCA4xx, also through ``analyze_graph(plan=)``),
and ``repro lint``.

Mutation discipline mirrors test_analysis.py: every new code family has
at least one test that seeds a defect and asserts it is caught by
exactly that code — never by a pre-existing one — plus clean-path tests
proving the analyzers stay quiet on known-good artifacts.
"""

import numpy as np
import pytest

from repro.analysis import analyze_graph, audit_determinism, verify_lowering
from repro.compile import CompiledPlan, compile_graph
from repro.core import to_split_cnn
from repro.graph import build_inference_graph, build_training_graph
from repro.graph.executor import GraphExecutor
from repro.graph.ir import Graph
from repro.models import MODEL_REGISTRY, build_model
from repro.nn import init


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------

def _model(name="small_vgg"):
    with init.fast_init():
        return build_model(name)


@pytest.fixture(scope="module")
def bn_eval_factory():
    """Fresh ``(graph, params)`` of small_resnet eval-mode inference
    graphs (BN running stats become constants) — rebuilt per test so
    mutations don't leak."""
    def build():
        model = _model("small_resnet")
        graph = build_inference_graph(model, 2)
        return graph, GraphExecutor.parameters_from_model(graph, model)
    return build


@pytest.fixture(scope="module")
def compiled_train():
    """(graph, params) for a compiled small_vgg training graph; each test
    builds its own CompiledPlan (cheap) and mutates only the plan."""
    model = _model()
    graph = build_training_graph(model, 2)
    params = GraphExecutor.parameters_from_model(graph, model)
    compile_graph(graph, params)
    return graph, params


@pytest.fixture(scope="module")
def compiled_eval():
    """(graph, params) for a compiled small_resnet eval graph — BN
    folding creates bn_affine constants for the SCA405 poison test."""
    model = _model("small_resnet")
    graph = build_inference_graph(model, 2)
    params = GraphExecutor.parameters_from_model(graph, model)
    compile_graph(graph, params)
    return graph, params


@pytest.fixture(scope="module")
def split_resnet_train():
    """(graph, params) for a split-2x2 small_resnet training graph: the
    per-patch ``grad_acc`` chains and the residual ``add_bwd`` fan-out
    the overwrite table (SCA406) has to get right."""
    model = to_split_cnn(_model("small_resnet"), depth=0.5,
                         num_splits=(2, 2))
    graph = build_training_graph(model, 2)
    return graph, GraphExecutor.parameters_from_model(graph, model)


def _plan(fixture):
    graph, params = fixture
    return CompiledPlan(graph, params, dropout_seed=0, workers=2)


def _only_code(findings, code):
    """Assert the seeded defect is caught by ``code`` and by no
    pre-existing code."""
    codes = {f.code for f in findings}
    assert code in codes, f"expected {code}, got {sorted(codes)}"
    assert codes == {code}, f"unexpected extra codes: {sorted(codes)}"
    return [f for f in findings if f.code == code]


# ----------------------------------------------------------------------
# Kill matrix
# ----------------------------------------------------------------------
def _bn_constant(graph, part):
    return next(t.id for t in graph.tensors.values()
                if t.kind == "constant" and part in t.name)


def _run(executor):
    """One run on seeded inputs; a training graph gets targets too."""
    graph = executor.graph
    [x] = [t for t in graph.tensors.values() if t.kind == "input"]
    training = any(op.phase == "backward" for op in graph.ops)
    targets = np.arange(x.shape[0]) if training else None
    rng = np.random.default_rng(0)
    return executor.run(rng.standard_normal(x.shape).astype(executor.width),
                        targets)


def _training(model):
    graph = build_training_graph(model, 2)
    return graph, GraphExecutor.parameters_from_model(graph, model)


class TestKillMatrix:
    """A code stays only while some mutation gets past every independent
    check: ``Graph.validate``, ``verify_lowering`` on the uncompiled
    executor, and ``run``.  Each surviving code has such a mutation
    here, and it trips that code alone across every pass.  SCA201 is the
    one exception: the executor constructor rejects its mutation too, and
    it stays only while the wavefront executor can reorder a reduction.
    The mutations of deleted codes assert the check that catches them
    instead (SCA0xx in ``test_analysis.py``)."""

    def _caught_only_by(self, code, graph, params, inference=False):
        """Every pass reports ``code`` and nothing else, while validate,
        lowering and run all let the mutation through.  Returns the
        findings and the run outputs."""
        graph.validate()
        executor = GraphExecutor(graph, params)
        assert not verify_lowering(executor)
        report = analyze_graph(graph, inference=inference, plan=executor)
        return _only_code(report.findings, code), _run(executor)

    def test_zoo_eval_graph_is_clean(self, bn_eval_factory):
        graph, params = bn_eval_factory()
        report = analyze_graph(graph, workers=4, inference=True,
                               plan=GraphExecutor(graph, params))
        assert not report.findings, report.render()

    # -- surviving mutations: only their own code catches them ----------
    def test_sca002_unread_op(self):
        """A relu on a forward activation whose output nothing reads."""
        graph, params = _training(_model())
        source = graph.tensors[graph.forward_ops()[0].outputs[0]]
        scratch = graph.add_tensor("scratch", source.shape)
        op = graph.add_op("scratch-relu", "relu", [source], [scratch])
        [finding], outputs = self._caught_only_by("SCA002", graph, params)
        assert finding.op_ids == (op.id,)
        assert np.isfinite(outputs["loss"]).all()

    def test_sca003_unwired_tensor(self):
        graph, params = _training(_model())
        orphan = graph.add_tensor("orphan", (4, 4))
        [finding], outputs = self._caught_only_by("SCA003", graph, params)
        assert finding.tensor_id == orphan.id
        assert np.isfinite(outputs["loss"]).all()

    def test_sca006_training_graph_served(self):
        """Only the declared intent tells this graph from an inference
        graph: it runs, loss and gradients included."""
        graph, params = _training(_model())
        findings, outputs = self._caught_only_by("SCA006", graph, params,
                                                 inference=True)
        assert any("backward op" in f.message for f in findings)
        assert np.isfinite(outputs["loss"]).all()

    def test_sca202_shared_seed(self):
        graph, params = _training(_model("alexnet"))
        first, second = [op for op in graph.forward_ops()
                         if op.op_type == "dropout"]
        second.attrs["seed"] = first.attrs["seed"]
        [finding], outputs = self._caught_only_by("SCA202", graph, params)
        assert set(finding.op_ids) == {first.id, second.id}
        assert np.isfinite(outputs["loss"]).all()

    def test_sca201_executor_rejects_it_too(self):
        """The named exception: an unfrozen reduction fails executor
        construction as well as the determinism audit."""
        model = to_split_cnn(_model(), depth=0.5, num_splits=(2, 2))
        graph, params = _training(model)
        acc = next(op for op in graph.ops
                   if op.op_type == "grad_acc"
                   and graph.tensor(op.outputs[0]).kind == "gradient")
        acc.op_type = "add"
        graph.validate()
        assert {f.code for f in audit_determinism(graph)} == {"SCA201"}
        with pytest.raises(ValueError):
            GraphExecutor(graph, params)

    def test_sca301_negative_running_var(self, bn_eval_factory):
        """Uncompiled eval-BN graph: the logits come back NaN."""
        graph, params = bn_eval_factory()
        var_id = _bn_constant(graph, "running_var")
        graph.constants[var_id] = np.full_like(graph.constants[var_id],
                                               -1.0)
        with np.errstate(invalid="ignore"):
            [finding], outputs = self._caught_only_by("SCA301", graph,
                                                      params)
        assert finding.tensor_id == var_id and "1/sqrt" in finding.message
        assert np.isnan(outputs["logits"]).any()

    def test_sca301_degenerate_dropout_rate(self):
        """p=1 zeroes the layer and p=-0.5 scales it by 1/1.5; both
        train to a finite loss."""
        model = _model("alexnet")
        for p in (1.0, -0.5):
            graph = build_training_graph(model, 2)
            params = GraphExecutor.parameters_from_model(graph, model)
            dropout = next(op for op in graph.forward_ops()
                           if op.op_type == "dropout")
            dropout.attrs["p"] = p
            [finding], outputs = self._caught_only_by("SCA301", graph,
                                                      params)
            assert finding.op_ids == (dropout.id,)
            assert np.isfinite(outputs["loss"]).all()

    def test_sca304_constant_width_disagrees(self, bn_eval_factory):
        graph, params = bn_eval_factory()
        mean_id = _bn_constant(graph, "running_mean")
        # Same values, double width: declared dtype_bytes=4 now lies.
        graph.constants[mean_id] = \
            graph.constants[mean_id].astype(np.float64)
        [finding], outputs = self._caught_only_by("SCA304", graph, params)
        assert finding.tensor_id == mean_id
        assert np.isfinite(outputs["logits"]).all()

    def test_sca304_non_float_constant(self, bn_eval_factory):
        graph, params = bn_eval_factory()
        mean_id = _bn_constant(graph, "running_mean")
        graph.constants[mean_id] = np.zeros(
            graph.constants[mean_id].shape, dtype=np.int32)
        [finding], outputs = self._caught_only_by("SCA304", graph, params)
        assert "non-float" in finding.message
        assert np.isfinite(outputs["logits"]).all()

    def test_sca304_mixed_float_widths(self):
        graph = Graph("widths")
        x = graph.add_tensor("x", (2, 4), kind="input")
        y = graph.add_tensor("logits", (2, 4), dtype_bytes=8)
        op = graph.add_op("head", "relu", [x], [y])
        [finding], outputs = self._caught_only_by("SCA304", graph, {})
        assert finding.op_ids == (op.id,)
        assert np.isfinite(outputs["logits"]).all()

    # -- deleted codes: the check that catches their mutation -----------
    def test_sca302_nan_constant(self, bn_eval_factory):
        """SCA405 on the uncompiled executor; ``repro lint`` hands it
        the executor, so it still reports this."""
        graph, params = bn_eval_factory()
        mean_id = _bn_constant(graph, "running_mean")
        poisoned = graph.constants[mean_id].copy()
        poisoned.flat[0] = np.nan
        graph.constants[mean_id] = poisoned
        report = analyze_graph(graph, inference=True,
                               plan=GraphExecutor(graph, params))
        [finding] = _only_code(report.findings, "SCA405")
        assert finding.tensor_id == mean_id
        assert "non-finite" in finding.message

    def test_sca302_shape_mismatch(self, bn_eval_factory):
        graph, params = bn_eval_factory()
        mean_id = _bn_constant(graph, "running_mean")
        graph.constants[mean_id] = np.zeros((3,), dtype=np.float32)
        report = analyze_graph(graph, inference=True,
                               plan=GraphExecutor(graph, params))
        [finding] = _only_code(report.findings, "SCA405")
        assert finding.tensor_id == mean_id and "shape" in finding.message

    def test_sca302_missing_constant_value(self, bn_eval_factory):
        """Building the executor raises, compiled or not."""
        graph, params = bn_eval_factory()
        mean_id = _bn_constant(graph, "running_mean")
        name = graph.tensors[mean_id].name
        del graph.constants[mean_id]
        with pytest.raises(KeyError, match=name):
            GraphExecutor(graph, params)
        compile_graph(graph, params)
        with pytest.raises(KeyError, match=name):
            CompiledPlan(graph, params)

    def test_sca303_provable_overflow(self):
        """An overflowing op needs all-constant inputs, which no builder
        emits and the compiler does not evaluate (its one fold rewrites
        ``batchnorm_eval``): every check passes it and the run returns
        Inf."""
        graph = Graph("overflow")
        a = graph.add_tensor("a", (2, 2), kind="constant")
        b = graph.add_tensor("b", (2, 2), kind="constant")
        total = graph.add_tensor("sum", (2, 2))
        out = graph.add_tensor("logits", (2, 2))
        graph.constants[a.id] = np.full((2, 2), 3e38, dtype=np.float32)
        graph.constants[b.id] = np.full((2, 2), 3e38, dtype=np.float32)
        graph.add_op("sum", "add", [a, b], [total])
        graph.add_op("head", "relu", [total], [out])
        graph.validate()
        assert not verify_lowering(GraphExecutor(graph, {}))
        assert compile_graph(graph, {}).ops_after == 2
        executor = GraphExecutor(graph, {})
        assert not verify_lowering(executor)
        with np.errstate(over="ignore"):
            logits = executor.run_with_inputs({})["logits"]
        assert np.isinf(logits).all()


# ----------------------------------------------------------------------
# SCA4xx: lowering verification
# ----------------------------------------------------------------------
class TestLoweringMutations:
    def test_clean_plans_verify(self, compiled_train, compiled_eval):
        for fixture in (compiled_train, compiled_eval):
            assert not verify_lowering(_plan(fixture))

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_uncompiled_zoo_graphs_verify(self, name):
        """One executor: the tables of a graph straight from the builder
        are the same lowering, so SCA4xx covers interpreted runs too."""
        model = _model(name)
        split = to_split_cnn(model, depth=0.5, num_splits=(2, 2))
        for variant in (model, split):
            for build in (build_training_graph, build_inference_graph):
                graph = build(variant, 2)
                params = GraphExecutor.parameters_from_model(graph, variant)
                for workers in (1, 4):
                    executor = GraphExecutor(graph, params, workers=workers)
                    assert not verify_lowering(executor)

    def test_sca401_foreign_kernel(self, compiled_train):
        plan = _plan(compiled_train)
        kernel, op = plan._steps[3]
        plan._steps[3] = (lambda ex, o: None, op)
        findings = _only_code(verify_lowering(plan), "SCA401")
        assert any(f.op_ids == (op.id,) for f in findings)

    def test_sca401_dropped_step(self, compiled_train):
        plan = _plan(compiled_train)
        plan._steps.pop()
        findings = verify_lowering(plan)
        assert any(f.code == "SCA401" and "entries" in f.message
                   for f in findings)

    def test_sca402_inflated_dependency_count(self, compiled_train):
        plan = _plan(compiled_train)
        op = plan.graph.ops[-1]
        plan._remaining_template[op.id] += 1
        findings = _only_code(verify_lowering(plan), "SCA402")
        assert any(f.op_ids == (op.id,) for f in findings)

    def test_sca402_dropped_dependents(self, compiled_train):
        plan = _plan(compiled_train)
        op_id = next(op.id for op in plan.graph.ops
                     if plan._dependents[op.id])
        plan._dependents[op_id] = ()
        findings = _only_code(verify_lowering(plan), "SCA402")
        assert any(f.op_ids == (op_id,) for f in findings)

    def test_sca403_inflated_refcount(self, compiled_train):
        plan = _plan(compiled_train)
        tensor_id = next(i for i, c in enumerate(plan._counts_template)
                         if c > 0)
        plan._counts_template[tensor_id] += 1
        findings = _only_code(verify_lowering(plan), "SCA403")
        assert any(f.tensor_id == tensor_id for f in findings)

    def test_sca403_pinned_value_freed(self, compiled_train):
        plan = _plan(compiled_train)
        param = next(t for t in plan.graph.tensors.values()
                     if t.kind == "parameter")
        plan._counts_template[param.id] = 1
        findings = _only_code(verify_lowering(plan), "SCA403")
        assert any("pinned value would be freed" in f.message
                   and f.tensor_id == param.id for f in findings)

    def test_sca404_twin_retargeted(self, compiled_train):
        plan = _plan(compiled_train)
        graph = plan.graph
        bwd = next(op for op in graph.ops if op.forward_of is not None)
        other = next(o for o in graph.ops
                     if o.phase == "forward" and o.id != bwd.forward_of)
        plan._fwd[bwd.id] = other
        findings = _only_code(verify_lowering(plan), "SCA404")
        assert any("not retargeted" in f.message for f in findings)

    def test_sca404_wrong_seed_pair(self, compiled_train):
        plan = _plan(compiled_train)
        op = plan.graph.ops[0]
        plan._seeds[op.id] = (99, 99)
        findings = _only_code(verify_lowering(plan), "SCA404")
        assert any(f.op_ids == (op.id,) for f in findings)

    def test_sca404_forward_op_lowers_a_twin_reference(self,
                                                       compiled_train):
        plan = _plan(compiled_train)
        forward = next(op for op in plan.graph.ops if op.forward_of is None)
        plan._fwd[forward.id] = plan.graph.ops[0]
        findings = _only_code(verify_lowering(plan), "SCA404")
        assert any(f.op_ids == (forward.id,) and "no forward_of link"
                   in f.message for f in findings)

    def test_sca405_missing_parameter_value(self, compiled_train):
        plan = _plan(compiled_train)
        param = next(t for t in plan.graph.tensors.values()
                     if t.kind == "parameter")
        plan._base_values[param.id] = None
        findings = _only_code(verify_lowering(plan), "SCA405")
        assert any(f.tensor_id == param.id and "no seeded value"
                   in f.message for f in findings)

    def test_sca405_poisoned_folded_constant(self, compiled_eval):
        # BN folding materialized bn_affine scale constants; poison one
        # in the plan's persistent table only.
        plan = _plan(compiled_eval)
        const = next(t for t in plan.graph.tensors.values()
                     if t.kind == "constant" and t.name.endswith(".scale"))
        plan._base_values[const.id] = np.full(const.shape, np.nan)
        findings = _only_code(verify_lowering(plan), "SCA405")
        assert any(f.tensor_id == const.id and "non-finite" in f.message
                   for f in findings)

    def test_sca405_nonpersistent_seeded(self, compiled_train):
        plan = _plan(compiled_train)
        activation = next(t for t in plan.graph.tensors.values()
                          if t.kind == "activation")
        plan._base_values[activation.id] = np.zeros(activation.shape)
        findings = _only_code(verify_lowering(plan), "SCA405")
        assert any(f.tensor_id == activation.id for f in findings)

    def _forged(self, fixture, tensor_id):
        """A plan whose table lets ``tensor_id``'s first consumer (or, for
        a tensor nothing consumes, the last op) overwrite it."""
        plan = _plan(fixture)
        consumers = plan.graph.tensors[tensor_id].consumers
        op_id = consumers[0] if consumers else plan.graph.ops[-1].id
        assert not verify_lowering(plan)
        plan._overwrite[op_id] += (tensor_id,)
        findings = _only_code(verify_lowering(plan), "SCA406")
        assert [(f.op_ids, f.tensor_id) for f in findings] == [
            ((op_id,), tensor_id)]
        return findings[0].message

    def test_sca406_second_consumer_still_reads(self, split_resnet_train):
        graph, _ = split_resnet_train
        shared = next(t for t in graph.tensors.values()
                      if t.kind == "gradient_act"
                      and len(set(t.consumers)) == 2)
        assert "consumers [" in self._forged(split_resnet_train, shared.id)

    def test_sca406_pinned_total_gradient(self, split_resnet_train):
        plan = _plan(split_resnet_train)
        total = next(iter(plan._final_grads.values()))
        assert "pinned" in self._forged(split_resnet_train, total)

    def test_sca406_shared_error_term(self, split_resnet_train):
        graph, _ = split_resnet_train
        add_bwd = next(op for op in graph.ops if op.op_type == "add_bwd")
        message = self._forged(split_resnet_train, add_bwd.outputs[0])
        assert "aliasing op" in message and "add_bwd" in message

    def test_lowering_pass_rides_along(self, compiled_train):
        graph, params = compiled_train
        plan = CompiledPlan(graph, params, dropout_seed=0, workers=2)
        plan._seeds[graph.ops[0].id] = (7, 7)
        report = analyze_graph(graph, plan=plan)
        assert "lowering" in report.passes
        assert any(f.code == "SCA404" for f in report.findings)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestLintCli:
    def test_model_required_without_matrix(self, capsys):
        from repro.cli import main
        assert main(["lint"]) == 2
        assert "required unless --matrix" in capsys.readouterr().err

    def test_single_model_clean(self, capsys):
        from repro.cli import main
        assert main(["lint", "small_vgg", "-b", "2"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "lowering" in out     # SCA4xx runs on interpreted configs

    def test_lint_build_always_hands_over_an_executor(self):
        from repro.cli import _lint_build
        for compiled in (False, True):
            for inference in (False, True):
                graph, plan = _lint_build(_model(), 2, inference, compiled,
                                          workers=4)
                assert isinstance(plan, GraphExecutor)
                assert plan.graph is graph and plan.workers == 4

    def test_compile_mode_runs_lowering_pass(self, capsys):
        from repro.cli import main
        assert main(["lint", "small_vgg", "-b", "2", "--compile",
                     "--inference"]) == 0
        assert "lowering" in capsys.readouterr().out
