"""Tests for repro.analysis: lint, race detector, determinism audit.

Three layers of coverage:

- the **zoo matrix**: every registered model × {unsplit, 2x2 split} ×
  {serial, 4 workers} × {training, inference} must lint completely
  clean — the analyzer is only trustworthy on dirty graphs if it stays
  quiet on known-good ones;
- **mutation tests**: each diagnostic code is tripped by exactly the
  corruption it documents, pinning code assignments; a deleted code's
  mutation asserts the check that catches it now (``Graph.validate``,
  the executor constructor, or ``run``);
- the **framework**: diagnostics, report emitters, entry points.
"""

import json

import numpy as np
import pytest

from repro.analysis import (
    CODES, PASS_DETERMINISM, PASS_LINT, PASS_LOWERING, PASS_RACES,
    AnalysisReport, Diagnostic, GraphAnalysisError, analyze_graph,
    ancestor_masks, audit_determinism, detect_races, lint_graph,
)
from repro.core import to_split_cnn
from repro.graph import build_inference_graph, build_training_graph
from repro.graph.backward import prune_dead_gradients
from repro.graph.checkpoint import build_checkpointed_training_graph
from repro.graph.executor import GraphExecutor
from repro.graph.ir import Graph
from repro.hmms.storage import assign_storage
from repro.models import MODEL_REGISTRY, ConvClassifier, build_model
from repro.nn import Conv2d, Dropout, Linear, ReLU, Sequential, init


GRAPH_PASSES = (PASS_LINT, PASS_RACES, PASS_DETERMINISM)


def _of(findings, code):
    return [f for f in findings if f.code == code]


def _zoo_graph(name, split=False, inference=False, batch=2):
    with init.fast_init():
        model = build_model(name)
        if split:
            model = to_split_cnn(model, depth=0.5, num_splits=(2, 2))
    if inference:
        return build_inference_graph(model, batch)
    return build_training_graph(model, batch)


def _small_vgg_executor_parts():
    """A small_vgg training graph, its parameters and seeded inputs."""
    with init.fast_init():
        model = build_model("small_vgg")
    graph = build_training_graph(model, 2)
    params = GraphExecutor.parameters_from_model(graph, model)
    [x] = [t for t in graph.tensors.values() if t.kind == "input"]
    inputs = (np.random.default_rng(0).standard_normal(x.shape)
              .astype(graph.width), np.arange(x.shape[0]))
    return graph, params, inputs


def _dropout_graph():
    rng = np.random.default_rng(0)
    features = Sequential(
        Conv2d(3, 4, kernel_size=3, padding=1, rng=rng), ReLU())
    classifier = Sequential(
        Linear(4 * 8 * 8, 16, rng=rng), ReLU(), Dropout(0.5),
        Linear(16, 8, rng=rng), ReLU(), Dropout(0.5),
        Linear(8, 4, rng=rng),
    )
    model = ConvClassifier(features, classifier, name="dropout-test",
                           input_size=8)
    return build_training_graph(model, 2)


def _branch_graph():
    """x feeds two parallel relu branches merged by an add."""
    graph = Graph("branches")
    x = graph.add_tensor("x", (2, 8), kind="input")
    a = graph.add_tensor("a", (2, 8))
    b = graph.add_tensor("b", (2, 8))
    c = graph.add_tensor("c", (2, 8))
    out = graph.add_tensor("logits", (2, 8))
    graph.add_op("branch-a", "relu", [x], [a])
    graph.add_op("branch-b", "relu", [x], [b])
    graph.add_op("merge", "add", [a, b], [c])
    graph.add_op("head", "relu", [c], [out])
    graph.validate()
    return graph


# ----------------------------------------------------------------------
# Zoo matrix: every model/split/worker/mode combination lints clean
# ----------------------------------------------------------------------
class TestZooMatrix:
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_training_graphs_lint_clean(self, name, split):
        graph = _zoo_graph(name, split=split)
        for workers in (1, 4):
            report = analyze_graph(graph, workers=workers)
            assert report.ok and not report.findings, report.render()

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_inference_graphs_lint_clean(self, name):
        report = analyze_graph(_zoo_graph(name, inference=True),
                               workers=4, inference=True)
        assert report.ok and not report.findings, report.render()

    def test_checkpointed_graph_lints_clean(self):
        with init.fast_init():
            model = build_model("vgg11")
        graph = build_checkpointed_training_graph(model, 2)
        report = analyze_graph(graph, workers=4)
        assert not report.findings, report.render()

    def test_dropout_graph_lints_clean(self):
        report = analyze_graph(_dropout_graph(), workers=4)
        assert not report.findings, report.render()


# ----------------------------------------------------------------------
# Regression tests for the real findings the analyzer surfaced
# ----------------------------------------------------------------------
class TestDeadGradientPruning:
    """SCA002 findings on the original zoo: the first layer's bwd_data
    (and split graphs' split_bwd chain) produced a ``grad(input)`` that
    nothing consumed.  ``prune_dead_gradients`` now removes them."""

    @pytest.mark.parametrize("split", [False, True])
    def test_no_input_gradient_is_materialized(self, split):
        graph = _zoo_graph("small_vgg", split=split)
        assert not _of(analyze_graph(graph).findings, "SCA002")
        input_tensor = next(t for t in graph.tensors.values()
                            if t.kind == "input")
        names = {t.name for t in graph.tensors.values()}
        assert f"grad({input_tensor.name})" not in names

    def test_split_bwd_chain_pruned_transitively(self):
        # With the split at the input, the whole patch input-gradient
        # chain (per-patch bwd_data -> grad_acc -> split_bwd) is dead.
        graph = _zoo_graph("small_vgg", split=True)
        assert not any(op.op_type == "split_bwd" for op in graph.ops)

    def test_checkpoint_has_no_dead_recompute_clones(self):
        # The recomputed clone of each segment's last op went unread.
        with init.fast_init():
            model = build_model("vgg11")
        graph = build_checkpointed_training_graph(model, 2)
        assert not _of(analyze_graph(graph).findings, "SCA002")

    def test_prune_runs_to_fixpoint(self):
        graph = _branch_graph()
        logits = next(t for t in graph.tensors.values()
                      if t.name == "logits")
        g1 = graph.add_tensor("g1", logits.shape, kind="gradient_act")
        g2 = graph.add_tensor("g2", logits.shape, kind="gradient_act")
        op1 = graph.add_op("dead-1", "relu", [logits], [g1],
                           phase="backward")
        graph.add_op("dead-2", "relu", [g1], [g2], phase="backward")
        # dead-2 is dead immediately; dead-1 only once dead-2 is gone.
        assert prune_dead_gradients(graph) == 2
        assert [op.name for op in graph.ops] == \
            ["branch-a", "branch-b", "merge", "head"]
        assert op1.id not in logits.consumers
        assert g1.id not in graph.tensors and g2.id not in graph.tensors

    def test_parameter_gradients_never_pruned(self):
        graph = _zoo_graph("small_vgg")
        grads = [t for t in graph.tensors.values() if t.kind == "gradient"]
        assert grads
        assert prune_dead_gradients(graph) == 0


# ----------------------------------------------------------------------
# Mutation tests: one corruption per diagnostic code
# ----------------------------------------------------------------------
class TestLintMutations:
    def test_sca001_shape_mismatch(self):
        """Deleted code: ``Graph.validate`` raises, and so does
        ``analyze_graph`` — a broken graph is never reported clean."""
        graph = _zoo_graph("small_vgg")
        conv = next(op for op in graph.forward_ops()
                    if op.op_type == "conv2d")
        graph.tensors[conv.outputs[0]].shape = (1, 2, 3)
        with pytest.raises(ValueError, match="registry inference"):
            graph.validate()
        with pytest.raises(ValueError, match="registry inference"):
            analyze_graph(graph)

    def test_sca002_dead_op(self):
        graph = _zoo_graph("small_vgg")
        source = graph.tensors[graph.forward_ops()[0].outputs[0]]
        scratch = graph.add_tensor("scratch", source.shape)
        graph.add_op("scratch-relu", "relu", [source], [scratch])
        [finding] = _of(lint_graph(graph), "SCA002")
        assert "scratch-relu" in finding.message
        assert analyze_graph(graph).ok    # warnings don't fail the analysis

    def test_sca003_orphan_tensor(self):
        graph = _zoo_graph("small_vgg")
        orphan = graph.add_tensor("orphan", (4, 4))
        [finding] = _of(lint_graph(graph), "SCA003")
        assert finding.tensor_id == orphan.id

    def test_sca004_saved_without_backward(self):
        """Deleted code, and now harmless: a twin reads only the tensors
        and attrs its own op names, so re-pointing ``forward_of`` moves
        no byte of the run."""
        graph, params, inputs = _small_vgg_executor_parts()
        expected = GraphExecutor(graph, params).run(*inputs)
        saver = next(op for op in graph.forward_ops()
                     if op.op_type == "maxpool2d")
        target = next(op.id for op in graph.forward_ops()
                      if op.id != saver.id)
        for op in graph.backward_ops():
            if op.forward_of == saver.id:
                op.forward_of = target
        graph.validate()
        out = GraphExecutor(graph, params).run(*inputs)
        assert sorted(out) == sorted(expected)
        for key in expected:
            assert out[key].tobytes() == expected[key].tobytes(), key

    def test_sca005_dangling_forward_of(self):
        """Deleted code: ``Graph.validate`` raises."""
        graph = _zoo_graph("small_vgg")
        graph.backward_ops()[0].forward_of = 10_000
        with pytest.raises(ValueError, match="earlier forward op"):
            graph.validate()

    def test_sca005_forward_of_must_point_at_forward_op(self):
        """Deleted code: ``Graph.validate`` raises."""
        graph = _zoo_graph("small_vgg")
        backward = graph.backward_ops()
        backward[-1].forward_of = backward[0].id
        with pytest.raises(ValueError, match="earlier forward op"):
            graph.validate()

    def test_sca005_dangling_inplace_of(self):
        """Deleted code: ``Graph.validate`` raises (``analyze_graph``
        used to crash in storage assignment with a bare ``KeyError``)."""
        graph = _zoo_graph("small_vgg")
        relu = next(op for op in graph.ops if op.inplace_of is not None)
        relu.inplace_of = 10_000
        with pytest.raises(ValueError, match="not one of its inputs"):
            analyze_graph(graph)

    def test_sca006_training_structure_in_inference_graph(self):
        graph = _zoo_graph("small_vgg")       # a training graph...
        findings = lint_graph(graph, inference=True)  # ...declared inference
        assert {finding.code for finding in findings} == {"SCA006"}
        assert not analyze_graph(graph, inference=True).ok

    def test_sca007_use_before_def(self):
        """Deleted code: ``Graph.validate`` raises."""
        graph = _zoo_graph("small_vgg")
        graph.ops.insert(0, graph.ops.pop())
        with pytest.raises(ValueError, match="before it is produced"):
            analyze_graph(graph)


class TestRaceMutations:
    def test_sca101_injected_shared_tso_names_pair_and_tso(self):
        """The acceptance scenario: fake a shared TSO between two
        DAG-unordered ops of a real split model; the witness must name
        the op pair and the TSO."""
        graph = _zoo_graph("small_vgg", split=True)
        assignment = assign_storage(graph)
        masks = ancestor_masks(graph)
        position = graph.op_positions()
        convs = [op for op in graph.forward_ops()
                 if op.op_type == "conv2d"]
        pair = next(
            ((a, b) for i, a in enumerate(convs) for b in convs[i + 1:]
             if not (masks[position[b.id]] >> position[a.id]) & 1
             and not (masks[position[a.id]] >> position[b.id]) & 1),
            None)
        assert pair, "split graph should have unordered patch convs"
        a, b = pair
        keep = assignment.tso_of[a.outputs[0]]
        absorb = assignment.tso_of[b.outputs[0]]
        tso = assignment.tsos[keep]
        for tensor_id in list(assignment.tsos[absorb].tensor_ids):
            tso.add_tensor(tensor_id, graph.tensor(tensor_id).nbytes)
            assignment.tso_of[tensor_id] = keep
        del assignment.tsos[absorb]

        races = _of(detect_races(graph, assignment, workers=4), "SCA101")
        assert races
        witness = next(d for d in races if set(d.op_ids) == {a.id, b.id})
        assert witness.tso_id == keep
        assert str(a.id) in witness.message and str(b.id) in witness.message
        # One worker serializes every pair: same plan, no hazard.
        assert not detect_races(graph, assignment, workers=1)

    def test_sca102_read_write_on_shared_tso(self):
        graph = _branch_graph()
        assignment = assign_storage(graph)
        x = next(t for t in graph.tensors.values() if t.name == "x")
        a = next(t for t in graph.tensors.values() if t.name == "a")
        # Map branch-a's output onto the TSO branch-b reads from.
        keep = assignment.tso_of[x.id]
        assignment.tsos[keep].add_tensor(a.id, a.nbytes)
        del assignment.tsos[assignment.tso_of[a.id]]
        assignment.tso_of[a.id] = keep

        findings = detect_races(graph, assignment, workers=4)
        [finding] = _of(findings, "SCA102")
        branch_a = next(op for op in graph.ops if op.name == "branch-a")
        branch_b = next(op for op in graph.ops if op.name == "branch-b")
        assert set(finding.op_ids) == {branch_a.id, branch_b.id}
        assert finding.tso_id == keep
        assert not _of(findings, "SCA101")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sca103_unaccounted_reader(self, workers):
        graph = _branch_graph()
        x = next(t for t in graph.tensors.values() if t.name == "x")
        branch_b = next(op for op in graph.ops if op.name == "branch-b")
        # Corrupt the refcount bookkeeping: branch-b still reads x but
        # is no longer counted, so the free plan drops x after branch-a
        # alone retires — before (or while) branch-b reads it.
        x.consumers.remove(branch_b.id)
        findings = detect_races(graph, assign_storage(graph),
                                workers=workers)
        [finding] = _of(findings, "SCA103")
        assert finding.op_ids == (branch_b.id,)
        assert finding.tensor_id == x.id

    def test_clean_branch_graph_has_no_hazards(self):
        report = analyze_graph(_branch_graph(), workers=4)
        assert not report.findings, report.render()


class TestDeterminismMutations:
    def test_sca201_broken_accumulation_chain(self):
        graph = _zoo_graph("small_vgg", split=True)
        acc = next(op for op in graph.ops
                   if op.op_type == "grad_acc"
                   and graph.tensor(op.outputs[0]).kind == "gradient")
        acc.op_type = "add"          # same shapes, no longer a frozen merge
        assert _of(audit_determinism(graph), "SCA201")

    def test_sca201_reduction_tree(self):
        graph = _zoo_graph("small_vgg", split=True)
        acc = next(op for op in graph.ops
                   if op.op_type == "grad_acc"
                   and graph.tensor(op.outputs[0]).kind == "gradient")
        contribution = graph.tensor(acc.inputs[0])
        other = graph.tensor(acc.inputs[1])
        dup = graph.add_tensor(graph.tensor(acc.outputs[0]).name,
                               contribution.shape, kind="gradient")
        graph.add_op("dup-acc", "grad_acc", [contribution, other], [dup],
                     phase="backward", forward_of=acc.forward_of)
        findings = _of(audit_determinism(graph), "SCA201")
        assert any(f.tensor_id == contribution.id for f in findings)

    def test_sca202_missing_seed(self):
        graph = _dropout_graph()
        dropout = next(op for op in graph.forward_ops()
                       if op.op_type == "dropout")
        del dropout.attrs["seed"]
        [finding] = _of(audit_determinism(graph), "SCA202")
        assert finding.op_ids == (dropout.id,)

    def test_sca202_duplicate_seed(self):
        graph = _dropout_graph()
        dropouts = [op for op in graph.forward_ops()
                    if op.op_type == "dropout"]
        assert len(dropouts) >= 2
        dropouts[1].attrs["seed"] = dropouts[0].attrs["seed"]
        [finding] = _of(audit_determinism(graph), "SCA202")
        assert set(finding.op_ids) == {dropouts[0].id, dropouts[1].id}


# ----------------------------------------------------------------------
# Happens-before machinery
# ----------------------------------------------------------------------
class TestAncestorMasks:
    def test_branches_are_unordered_head_sees_all(self):
        graph = _branch_graph()
        masks = ancestor_masks(graph)
        # positions: 0 branch-a, 1 branch-b, 2 merge, 3 head
        assert not (masks[1] >> 0) & 1 and not (masks[0] >> 1) & 1
        assert masks[2] == 0b11
        assert masks[3] == 0b111

    def test_chain_is_totally_ordered(self):
        graph = Graph("chain")
        prev = graph.add_tensor("x", (2, 4), kind="input")
        for index in range(4):
            nxt = graph.add_tensor(f"t{index}", (2, 4))
            graph.add_op(f"relu{index}", "relu", [prev], [nxt])
            prev = nxt
        masks = ancestor_masks(graph)
        for pos in range(4):
            assert masks[pos] == (1 << pos) - 1


# ----------------------------------------------------------------------
# Framework: diagnostics, report emitters, entry points
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="SCA999"):
            Diagnostic("SCA999", "nope")

    def test_severity_defaults_from_spec(self):
        finding = Diagnostic("SCA002", "boom", op_ids=(3,))
        assert finding.severity == "warning"
        rendered = str(finding)
        assert "SCA002" in rendered and "dead-op" in rendered
        assert "op 3" in rendered

    def test_every_code_has_pass_and_description(self):
        assert len(CODES) >= 12
        for spec in CODES.values():
            assert spec.pass_name in GRAPH_PASSES + (PASS_LOWERING,)
            assert spec.description and spec.title

    def test_report_ok_ignores_warnings(self):
        report = AnalysisReport(
            graph_name="g", num_ops=1, num_tensors=1, workers=4,
            passes=GRAPH_PASSES,
            findings=[Diagnostic("SCA002", "warn only")])
        assert report.ok and report.warnings and not report.errors
        assert report.raise_if_failed() is report

    def test_error_report_raises_with_attached_report(self):
        report = AnalysisReport(
            graph_name="g", num_ops=1, num_tensors=1, workers=4,
            passes=GRAPH_PASSES,
            findings=[Diagnostic("SCA101", "race", op_ids=(1, 2),
                                 tso_id=7)])
        with pytest.raises(GraphAnalysisError) as excinfo:
            report.raise_if_failed()
        assert excinfo.value.report is report
        assert "SCA101" in str(excinfo.value)


class TestEmitters:
    def _report(self):
        return AnalysisReport(
            graph_name="demo", num_ops=5, num_tensors=9, workers=4,
            passes=GRAPH_PASSES,
            findings=[
                Diagnostic("SCA101", "racy", op_ids=(1, 2), tso_id=3),
                Diagnostic("SCA002", "dead", op_ids=(4,)),
            ])

    def test_render(self):
        text = self._report().render()
        assert "1 errors, 1 warnings" in text
        assert "SCA101" in text and "TSO 3" in text

    def test_render_clean(self):
        report = AnalysisReport(graph_name="demo", num_ops=1,
                                num_tensors=1, workers=1,
                                passes=GRAPH_PASSES)
        assert "clean" in report.render()
        assert "serial" in report.render()

    def test_json_payload(self):
        payload = json.loads(self._report().to_json())
        assert payload["ok"] is False
        assert [f["code"] for f in payload["findings"]] == \
            ["SCA101", "SCA002"]
        assert payload["findings"][0]["tso_id"] == 3
        assert payload["findings"][0]["pass"] == "concurrency"


class TestEntryPoints:
    # The guard before running a graph is analyze_graph(...).raise_if_failed().
    def test_preflight_accepts_clean_graph(self):
        with init.fast_init():
            model = build_model("small_vgg")
        graph = build_training_graph(model, 2)
        analyze_graph(graph, workers=4).raise_if_failed()
        params = GraphExecutor.parameters_from_model(graph, model)
        GraphExecutor(graph, params, workers=4)

    def test_preflight_rejects_broken_graph(self):
        graph = _zoo_graph("small_vgg")
        conv = next(op for op in graph.forward_ops()
                    if op.op_type == "conv2d")
        graph.tensors[conv.outputs[0]].shape = (9, 9, 9, 9)
        with pytest.raises(ValueError, match="registry inference"):
            analyze_graph(graph, workers=4).raise_if_failed()

    def test_passes_name_what_ran(self):
        graph = _zoo_graph("small_vgg", inference=True)
        assert analyze_graph(graph).passes == GRAPH_PASSES
        assert analyze_graph(graph, inference=True).passes == \
            (PASS_LINT, PASS_RACES)
