"""Tests for the whole-stack analyzer additions: abstract interpretation
(SCA3xx), lowering verification (SCA4xx), config lint (SCA5xx), and the
AnalysisSuite policy layer (suppressions, baselines, cache).

Mutation discipline mirrors test_analysis.py: every new code family has
at least one test that seeds a defect and asserts it is caught by
exactly that code — never by a pre-existing one — plus clean-path tests
proving the analyzers stay quiet on known-good artifacts.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis import (
    GRAPH_PASSES, PASS_CONFIG, AnalysisSuite, Diagnostic, Suppression,
    analyze_graph, check_cache_keys, graph_fingerprint, interpret_graph,
    lint_dense_config, lint_engine_config, lint_fleet_config,
    load_baseline, verify_lowering, write_baseline,
)
from repro.analysis.diagnostics import HELP_URI, sarif_rules
from repro.compile import CompiledPlan, default_pipeline
from repro.core import to_split_cnn
from repro.graph import build_inference_graph, build_training_graph
from repro.graph.executor import GraphExecutor
from repro.graph.ir import Graph
from repro.hmms.planner import PlanCache
from repro.models import MODEL_REGISTRY, build_model
from repro.nn import init
from repro.serve import ServingEngine, SLOClass, TenantConfig, FleetScheduler
from repro.infer import PatchInferer
from repro.infer.splitter import GridSplitter


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------

def _model(name="small_vgg"):
    with init.fast_init():
        return build_model(name)


@pytest.fixture(scope="module")
def bn_eval_graph_factory():
    """Fresh small_resnet eval-mode inference graphs (BN running stats
    become constants) — rebuilt per test so mutations don't leak."""
    def build():
        return build_inference_graph(_model("small_resnet"), 2,
                                     eval_batchnorm=True)
    return build


@pytest.fixture(scope="module")
def compiled_train():
    """(graph, params) for a compiled small_vgg training graph; each test
    builds its own CompiledPlan (cheap) and mutates only the plan."""
    model = _model()
    graph = build_training_graph(model, 2)
    params = GraphExecutor.parameters_from_model(graph, model)
    default_pipeline().run(graph, params=params)
    return graph, params


@pytest.fixture(scope="module")
def compiled_eval():
    """(graph, params) for a compiled small_resnet eval graph — BN
    folding creates bn_affine constants for the SCA405 poison test."""
    model = _model("small_resnet")
    graph = build_inference_graph(model, 2, eval_batchnorm=True)
    params = GraphExecutor.parameters_from_model(graph, model)
    default_pipeline().run(graph, params=params)
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
# SCA3xx: abstract interpretation
# ----------------------------------------------------------------------
class TestAbsintMutations:
    def test_zoo_eval_graph_is_clean(self, bn_eval_graph_factory):
        graph = bn_eval_graph_factory()
        report = analyze_graph(graph, workers=4, inference=True)
        assert not report.findings, report.render()

    def test_sca301_negative_running_var(self, bn_eval_graph_factory):
        graph = bn_eval_graph_factory()
        var_id = next(t.id for t in graph.tensors.values()
                      if t.kind == "constant" and "running_var" in t.name)
        graph.constants[var_id] = np.full_like(graph.constants[var_id],
                                               -1.0)
        findings = _only_code(interpret_graph(graph), "SCA301")
        assert any("1/sqrt" in f.message or "var" in f.message.lower()
                   for f in findings)
        # The provable hazard survives the full pass stack unchanged.
        report = analyze_graph(graph, workers=4, inference=True)
        assert report.by_code("SCA301") and not report.ok

    def test_sca301_degenerate_dropout_rate(self):
        graph = build_training_graph(_model("alexnet"), 2)
        dropout = next(op for op in graph.forward_ops()
                       if op.op_type == "dropout")
        dropout.attrs["p"] = 1.0       # keep-scale 1/(1-p) divides by zero
        findings = interpret_graph(graph)
        assert any(f.code == "SCA301" and f.op_ids == (dropout.id,)
                   for f in findings)

    def test_sca302_nan_constant(self, bn_eval_graph_factory):
        graph = bn_eval_graph_factory()
        mean_id = next(t.id for t in graph.tensors.values()
                       if t.kind == "constant" and "running_mean" in t.name)
        poisoned = graph.constants[mean_id].copy()
        poisoned.flat[0] = np.nan
        graph.constants[mean_id] = poisoned
        [finding] = _only_code(interpret_graph(graph), "SCA302")
        assert finding.tensor_id == mean_id
        assert "non-finite" in finding.message

    def test_sca302_shape_mismatch(self, bn_eval_graph_factory):
        graph = bn_eval_graph_factory()
        mean_id = next(t.id for t in graph.tensors.values()
                       if t.kind == "constant" and "running_mean" in t.name)
        graph.constants[mean_id] = np.zeros((3,), dtype=np.float32)
        findings = interpret_graph(graph)
        assert any(f.code == "SCA302" and f.tensor_id == mean_id
                   and "shape" in f.message for f in findings)

    def test_sca302_missing_constant_value(self, bn_eval_graph_factory):
        graph = bn_eval_graph_factory()
        mean_id = next(t.id for t in graph.tensors.values()
                       if t.kind == "constant" and "running_mean" in t.name)
        del graph.constants[mean_id]
        findings = interpret_graph(graph)
        assert any(f.code == "SCA302" and f.tensor_id == mean_id
                   and "no value" in f.message for f in findings)

    def test_sca303_provable_overflow(self):
        """Two float32-width constants whose sum provably exceeds the
        declared 4-byte float maximum."""
        graph = Graph("overflow")
        a = graph.add_tensor("a", (2, 2), kind="constant")
        b = graph.add_tensor("b", (2, 2), kind="constant")
        out = graph.add_tensor("logits", (2, 2))
        graph.constants[a.id] = np.full((2, 2), 3e38, dtype=np.float32)
        graph.constants[b.id] = np.full((2, 2), 3e38, dtype=np.float32)
        graph.add_op("sum", "add", [a, b], [out])
        graph.validate()
        [finding] = _only_code(interpret_graph(graph), "SCA303")
        assert finding.tensor_id == out.id
        assert "6e+38" in finding.message

    def test_sca304_constant_width_disagrees(self, bn_eval_graph_factory):
        graph = bn_eval_graph_factory()
        mean_id = next(t.id for t in graph.tensors.values()
                       if t.kind == "constant" and "running_mean" in t.name)
        # Same values, double width: declared dtype_bytes=4 now lies.
        graph.constants[mean_id] = \
            graph.constants[mean_id].astype(np.float64)
        [finding] = _only_code(interpret_graph(graph), "SCA304")
        assert finding.tensor_id == mean_id

    def test_sca304_non_float_constant(self, bn_eval_graph_factory):
        graph = bn_eval_graph_factory()
        mean_id = next(t.id for t in graph.tensors.values()
                       if t.kind == "constant" and "running_mean" in t.name)
        graph.constants[mean_id] = np.zeros(
            graph.constants[mean_id].shape, dtype=np.int32)
        findings = interpret_graph(graph)
        assert any(f.code == "SCA304" and "non-float" in f.message
                   for f in findings)

    def test_sca304_mixed_float_widths(self):
        graph = Graph("widths")
        x = graph.add_tensor("x", (2, 4), kind="input")
        y = graph.add_tensor("logits", (2, 4), dtype_bytes=8)
        op = graph.add_op("head", "relu", [x], [y])
        graph.validate()
        findings = interpret_graph(graph)
        assert any(f.code == "SCA304" and f.op_ids == (op.id,)
                   for f in findings)

    def test_provable_only_policy_stays_quiet_on_unbounded(self):
        # Inputs/params are TOP: data-dependent hazards must NOT fire.
        graph = build_training_graph(_model(), 2)
        assert not interpret_graph(graph)


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

    def test_sca404_wrong_context_count(self, compiled_train):
        plan = _plan(compiled_train)
        fid = next(op.forward_of for op in plan.graph.ops
                   if op.forward_of is not None)
        plan._ctx_template[fid] += 1
        findings = _only_code(verify_lowering(plan), "SCA404")
        assert any(f.op_ids == (fid,) for f in findings)

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


# ----------------------------------------------------------------------
# SCA5xx: config lint
# ----------------------------------------------------------------------

def _small_fleet(**kwargs):
    tenants = [TenantConfig(name="a", model="small_resnet", batch_cap=4,
                            rps=100.0),
               TenantConfig(name="b", model="small_resnet", batch_cap=4,
                            rps=100.0)]
    kwargs.setdefault("autoscale", False)
    return FleetScheduler(tenants, **kwargs)


class TestConfigLint:
    def test_clean_engine_config(self):
        engine = ServingEngine.from_zoo("small_resnet")
        engine.entry_for(engine.max_batch)   # populate the cache
        assert not lint_engine_config(engine)

    def test_sca503_no_batch_fits(self):
        engine = ServingEngine.from_zoo("small_vgg", memory_budget=1)
        findings = _only_code(lint_engine_config(engine), "SCA503")
        assert "no batch fits" in findings[0].message

    def test_clean_fleet_config(self):
        assert not lint_fleet_config(_small_fleet())

    def test_sca501_reservation_below_bucket_peak(self):
        fleet = _small_fleet()
        tenant = fleet.tenants["a"]
        tenant.reservation = 1
        findings = lint_fleet_config(fleet)
        assert any(f.code == "SCA501" and "below the bucket" in f.message
                   for f in findings)

    def test_sca501_ledger_overcommit(self):
        fleet = _small_fleet()
        for tenant in fleet.tenants.values():
            tenant.reservation = fleet.ledger.capacity
        findings = lint_fleet_config(fleet)
        assert any(f.code == "SCA501" and "cannot co-reside" in f.message
                   for f in findings)

    def test_sca502_infeasible_deadline_is_error(self):
        fleet = _small_fleet()
        tenant = fleet.tenants["a"]
        tenant.config = dataclasses.replace(
            tenant.config,
            slo=SLOClass("tight", deadline=1e-9, flush_timeout=1e-10))
        findings = _only_code(lint_fleet_config(fleet), "SCA502")
        assert findings[0].severity == "error"
        assert "every request expires" in findings[0].message

    def test_sca502_capped_bucket_overrun_is_warning(self):
        fleet = _small_fleet()
        tenant = fleet.tenants["a"]
        single = tenant.engine.entry_for(1).latency
        cap = tenant.engine.entry_for(tenant.bucket_cap).latency
        assert cap > single
        deadline = (single + cap) / 2.0
        tenant.config = dataclasses.replace(
            tenant.config,
            slo=SLOClass("mid", deadline=deadline,
                         flush_timeout=deadline / 10.0))
        findings = _only_code(lint_fleet_config(fleet), "SCA502")
        assert findings[0].severity == "warning"
        assert "full buckets expire" in findings[0].message

    def test_sca503_patch_batch_over_budget(self):
        model = _model("small_vgg")
        probe = PatchInferer(model)
        grid, in_hw = (2, 2), (32, 32)
        depth = probe.plan_dense(in_hw, grid).join_depth
        variants = list(GridSplitter(grid, 0).plan(
            model, in_hw, depth=depth).variants())
        feasible = probe.max_patch_batch(variants)
        inferer = PatchInferer(
            model, patch_batch=feasible + 1,
            memory_budget=probe.entry_for(variants[0], feasible)
            .plan.device_peak)
        findings = lint_dense_config(inferer, in_hw, grid)
        assert any(f.code == "SCA503" and f"join_depth {depth}" in f.message
                   for f in findings)

    def test_clean_dense_config(self):
        model = _model("small_vgg")
        inferer = PatchInferer(model)
        assert not lint_dense_config(inferer, (32, 32), (2, 2))
        # The linter read the inferer's own decision, tail included: the
        # report plans nothing the lint had not.
        misses = inferer.cache.misses
        report = inferer.plan_dense((32, 32), (2, 2))
        assert report.join_depth < len(inferer.layers)
        assert inferer.cache.misses == misses == report.executions

    def test_clean_dense_config_when_only_the_full_body_fits(self):
        """A configured patch batch the head fits, under a budget below
        every candidate's tail: the tiles run the whole body and there
        is no tail to flag."""
        model = _model("small_vgg")
        in_hw, grid, overlap = (256, 256), (4, 4), 1
        probe = PatchInferer(model, numeric=False)
        budget = max(
            probe.entry_for(variant, 1).plan.device_peak
            for variant in GridSplitter(grid, overlap).plan(
                model, in_hw).variants())
        inferer = PatchInferer(model, numeric=False, patch_batch=1,
                               memory_budget=budget)
        assert not lint_dense_config(inferer, in_hw, grid, overlap)
        report = inferer.plan_dense(in_hw, grid, overlap)
        assert report.join_depth == len(inferer.layers)
        assert report.peak_bytes <= budget

    def test_sca504_unfingerprinted_cache_key(self):
        cache = PlanCache()
        cache.get_or_build(("small_vgg", 4), lambda: object())
        [finding] = _only_code(check_cache_keys(cache, "test"), "SCA504")
        assert "('small_vgg', 4)" in finding.message

    def test_fingerprinted_keys_accepted(self):
        cache = PlanCache()
        cache.get_or_build(("m", 4, "interpreter"), lambda: object())
        cache.get_or_build(("m", 8, "1f2e3d4c5b6a"), lambda: object())
        assert not check_cache_keys(cache, "test")


# ----------------------------------------------------------------------
# AnalysisSuite: suppressions, baselines, cache, SARIF
# ----------------------------------------------------------------------

def _dead_op_graph(num_dead=1):
    """small_vgg training graph with ``num_dead`` dead relu ops — each
    yields one SCA002 warning anchored at its op."""
    graph = build_training_graph(_model(), 2)
    dead = []
    for index in range(num_dead):
        source = graph.tensors[graph.forward_ops()[0].outputs[0]]
        scratch = graph.add_tensor(f"scratch{index}", source.shape)
        dead.append(graph.add_op(f"dead{index}", "relu", [source],
                                 [scratch]))
    return graph, dead


class TestSuitePolicy:
    def test_inline_suppression_silences_one_location(self):
        graph, (d0, d1) = _dead_op_graph(2)
        d0.attrs["lint_suppress"] = "SCA002"
        report = AnalysisSuite().analyze(graph)
        assert [f for f, kind in report.suppressed if kind == "inline"]
        active_ops = {f.op_ids for f in report.by_code("SCA002")}
        assert (d1.id,) in active_ops and (d0.id,) not in active_ops

    def test_inline_suppression_is_code_specific(self):
        graph, (dead,) = _dead_op_graph(1)
        dead.attrs["lint_suppress"] = "SCA101"     # wrong code: no effect
        report = AnalysisSuite().analyze(graph)
        assert report.by_code("SCA002") and not report.suppressed

    def test_baseline_matches_exact_anchor(self):
        graph, _ = _dead_op_graph(1)
        [finding] = AnalysisSuite().analyze(graph).by_code("SCA002")
        entry = Suppression(code="SCA002", graph=graph.name,
                            anchor=finding.anchor(), reason="known")
        report = AnalysisSuite(baseline=[entry]).analyze(graph)
        assert not report.by_code("SCA002")
        assert [f for f, kind in report.suppressed if kind == "baseline"]
        assert not report.expired_baseline

    def test_baseline_entry_expires_when_finding_disappears(self):
        graph, _ = _dead_op_graph(1)
        stale = Suppression(code="SCA002", graph=graph.name,
                            anchor="op 99999", reason="gone")
        report = AnalysisSuite(baseline=[stale]).analyze(graph)
        assert stale in report.expired_baseline
        # Wildcard entries have no single home graph and never expire.
        wildcard = Suppression(code="SCA002", graph="*", anchor="op 99999")
        report = AnalysisSuite(baseline=[wildcard]).analyze(graph)
        assert not report.expired_baseline

    def test_strict_ignores_both_channels(self):
        graph, (dead,) = _dead_op_graph(1)
        dead.attrs["lint_suppress"] = "SCA002"
        [finding] = AnalysisSuite().analyze(
            graph, passes=GRAPH_PASSES).findings or \
            [Diagnostic("SCA002", "placeholder", op_ids=(dead.id,))]
        entry = Suppression(code="SCA002", graph=graph.name,
                            anchor=f"op {dead.id}")
        report = AnalysisSuite(baseline=[entry], strict=True).analyze(graph)
        assert report.by_code("SCA002") and not report.suppressed

    def test_result_cache_hits_by_fingerprint(self):
        graph, _ = _dead_op_graph(1)
        suite = AnalysisSuite()
        first = suite.analyze(graph)
        second = suite.analyze(graph)
        assert not first.cache_hit and second.cache_hit
        assert suite.cache_hits == 1 and suite.cache_misses == 1
        assert [f.code for f in second.findings] == \
            [f.code for f in first.findings]
        # A structural change moves the fingerprint: miss again.
        graph.ops[-1].attrs["note"] = "mutated"
        assert not suite.analyze(graph).cache_hit

    def test_fingerprint_tracks_constants(self):
        model = _model("small_resnet")
        graph = build_inference_graph(model, 2, eval_batchnorm=True)
        before = graph_fingerprint(graph)
        tensor_id = next(iter(graph.constants))
        poisoned = graph.constants[tensor_id].copy()
        poisoned.flat[0] += 1.0
        graph.constants[tensor_id] = poisoned
        assert graph_fingerprint(graph) != before

    def test_lowering_pass_rides_along(self, compiled_train):
        graph, params = compiled_train
        plan = CompiledPlan(graph, params, dropout_seed=0, workers=2)
        plan._seeds[graph.ops[0].id] = (7, 7)
        report = AnalysisSuite().analyze(graph, plan=plan)
        assert "lowering" in report.passes
        assert report.by_code("SCA404")

    def test_report_for_applies_policy_to_config_findings(self):
        finding = Diagnostic("SCA504", "bad key")
        suite = AnalysisSuite(baseline=[
            Suppression(code="SCA504", graph="cfg", anchor="")])
        report = suite.report_for("cfg", [finding], (PASS_CONFIG,))
        assert not report.findings and report.suppressed

    def test_baseline_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        entries = [Suppression(code="SCA002", graph="g", anchor="op 3",
                               reason="r")]
        write_baseline(path, entries)
        assert load_baseline(path) == entries
        with pytest.raises(ValueError, match="unknown code"):
            load_baseline_path = str(tmp_path / "bad.json")
            with open(load_baseline_path, "w") as handle:
                json.dump({"suppressions": [{"code": "SCA999"}]}, handle)
            load_baseline(load_baseline_path)


class TestSuiteSarif:
    def test_suppressed_results_carry_baseline_state(self):
        graph, (d0, d1) = _dead_op_graph(2)
        d0.attrs["lint_suppress"] = "SCA002"
        report = AnalysisSuite().analyze(graph)
        log = report.to_sarif()
        run = log["runs"][0]
        states = {r["baselineState"] for r in run["results"]}
        assert states == {"new", "unchanged"}
        suppressed = [r for r in run["results"]
                      if r["baselineState"] == "unchanged"]
        assert suppressed[0]["suppressions"] == [{"kind": "inSource"}]
        assert run["properties"]["fingerprint"] == report.fingerprint
        assert run["properties"]["strict"] is False

    def test_external_suppression_kind_for_baseline(self):
        graph, _ = _dead_op_graph(1)
        [finding] = AnalysisSuite().analyze(graph).by_code("SCA002")
        entry = Suppression(code="SCA002", graph=graph.name,
                            anchor=finding.anchor())
        log = AnalysisSuite(baseline=[entry]).analyze(graph).to_sarif()
        suppressed = [r for r in log["runs"][0]["results"]
                      if r.get("suppressions")]
        assert suppressed[0]["suppressions"] == [{"kind": "external"}]

    def test_rules_metadata_is_complete(self):
        for rule in sarif_rules():
            assert rule["id"].startswith("SCA")
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]
            assert rule["helpUri"] == \
                f"{HELP_URI}#{rule['id'].lower()}"
            assert rule["defaultConfiguration"]["level"] in \
                ("error", "warning")


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

    def test_config_mode(self, capsys):
        from repro.cli import main
        assert main(["lint", "small_resnet", "--config"]) == 0
        assert "config-lint" in capsys.readouterr().out

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        path = str(tmp_path / "bl.json")
        assert main(["lint", "small_vgg", "-b", "2",
                     "--write-baseline", path]) == 0
        assert load_baseline(path) == []
