"""Tests for TSO storage assignment and the §4.2 optimizations."""

import numpy as np
import pytest

from repro.analysis import verify_lowering
from repro.compile import compile_graph
from repro.core import to_split_cnn
from repro.graph import (
    GraphExecutor, build_checkpointed_training_graph, build_training_graph,
)
from repro.graph.executor import resolve_final_gradients
from repro.hmms import POOL_DEVICE_GENERAL, POOL_DEVICE_PARAM, assign_storage
from repro.models import MODEL_REGISTRY, build_model, small_resnet, small_vgg
from repro.nn import init


@pytest.fixture(scope="module")
def vgg_graph():
    return build_training_graph(small_vgg(rng=np.random.default_rng(0)), 4)


@pytest.fixture(scope="module")
def resnet_graph():
    return build_training_graph(small_resnet(rng=np.random.default_rng(0)), 4)


def _split(name, splits=2, depth=1.0):
    with init.fast_init():
        model = build_model(name)
    if splits == 1:
        return model
    return to_split_cnn(model, depth=depth, num_splits=(splits, splits))


def _compiled(model, batch):
    graph = build_training_graph(model, batch)
    compile_graph(graph,
                  params=GraphExecutor.parameters_from_model(graph, model))
    return graph


POOL_GRAPHS = {
    "unsplit-vgg11": lambda: build_training_graph(_split("vgg11", 1), 2),
    "split-vgg11": lambda: build_training_graph(_split("vgg11"), 2),
    "split-small_resnet":
        lambda: build_training_graph(_split("small_resnet"), 2),
    "checkpointed":
        lambda: build_checkpointed_training_graph(_split("small_vgg"), 2),
    "compiled": lambda: _compiled(_split("small_resnet"), 2),
}


def _accumulators(graph):
    return [op for op in graph.ops if op.op_type == "grad_acc"]


def _check_pool_rule(graph, inplace):
    """Parameters and *final* gradients are static; a partial some
    ``grad_acc`` folds in is a general-pool transient unless the chain
    ends in its TSO.  So the pool is twice the parameter bytes however
    many patches share a weight."""
    assignment = assign_storage(graph, inplace_relu=inplace)
    static = {t.id for t in graph.tensors.values()
              if t.kind in ("parameter", "constant")}
    static |= set(resolve_final_gradients(graph).values())
    for tso in assignment.tsos.values():
        holds_static = bool(static.intersection(tso.tensor_ids))
        assert (tso.pool == POOL_DEVICE_PARAM) == holds_static, tso
    assert assignment.total_bytes(POOL_DEVICE_PARAM) == \
        2 * graph.parameter_bytes()
    folded_in = [t for op in _accumulators(graph) for t in op.inputs
                 if graph.tensor(t).kind == "gradient"]
    transient = [t for t in folded_in if assignment.tso_for_tensor(
        t).pool == POOL_DEVICE_GENERAL]
    return assignment, folded_in, transient


class TestAssignment:
    def test_every_tensor_mapped(self, vgg_graph):
        assignment = assign_storage(vgg_graph)
        assert set(assignment.tso_of) == set(vgg_graph.tensors)

    def test_parameters_in_param_pool(self, vgg_graph):
        assert not _accumulators(vgg_graph)      # unsplit: all are final
        _check_pool_rule(vgg_graph, inplace=True)

    @pytest.mark.parametrize("inplace", [True, False],
                             ids=["inplace", "no-inplace"])
    @pytest.mark.parametrize("name", sorted(POOL_GRAPHS))
    def test_pool_rule_where_gradients_accumulate(self, name, inplace):
        graph = POOL_GRAPHS[name]()
        assignment, folded_in, transient = _check_pool_rule(graph, inplace)
        if name != "unsplit-vgg11":
            assert folded_in and transient       # the rule is exercised
        if not inplace:
            assert assignment.accumulate_shares_applied == 0
            assert len(transient) == len(folded_in)
            for op in _accumulators(graph):
                assert assignment.tso_of[op.outputs[0]] not in {
                    assignment.tso_of[t] for t in op.inputs}, op.name

    def test_split_and_unsplit_plan_the_same_parameter_pool(self):
        pools = {name: assign_storage(POOL_GRAPHS[name]()).total_bytes(
            POOL_DEVICE_PARAM) for name in ("unsplit-vgg11", "split-vgg11")}
        assert pools["split-vgg11"] == pools["unsplit-vgg11"] > 0

    def test_tso_size_is_max_of_tensors(self, vgg_graph):
        assignment = assign_storage(vgg_graph)
        for tso in assignment.tsos.values():
            largest = max(vgg_graph.tensor(t).nbytes for t in tso.tensor_ids)
            assert tso.size == largest

    def test_refcount_matches_tensor_count(self, vgg_graph):
        assignment = assign_storage(vgg_graph)
        for tso in assignment.tsos.values():
            assert tso.refcount == len(tso.tensor_ids)


class TestInPlaceRelu:
    def test_relu_shares_input_tso(self, vgg_graph):
        assignment = assign_storage(vgg_graph)
        assert assignment.inplace_relu_applied > 0
        relu_ops = [op for op in vgg_graph.forward_ops()
                    if op.op_type == "relu"]
        shared = sum(
            assignment.tso_of[op.outputs[0]] == assignment.tso_of[op.inputs[0]]
            for op in relu_ops
        )
        assert shared == len(relu_ops)  # every VGG ReLU input is reusable

    def test_optimization_can_be_disabled(self, vgg_graph):
        on = assign_storage(vgg_graph, inplace_relu=True)
        off = assign_storage(vgg_graph, inplace_relu=False)
        assert off.inplace_relu_applied == 0
        assert len(off.tsos) > len(on.tsos)

    def test_disabled_relu_outputs_get_own_tso(self, vgg_graph):
        off = assign_storage(vgg_graph, inplace_relu=False)
        relu = next(op for op in vgg_graph.forward_ops()
                    if op.op_type == "relu")
        assert off.tso_of[relu.outputs[0]] != off.tso_of[relu.inputs[0]]

    def test_legality_multi_consumer_input_not_shared(self, resnet_graph):
        """A block-input tensor feeding both conv1 and the residual add must
        never be overwritten in place by a downstream ReLU."""
        assignment = assign_storage(resnet_graph)
        for op in resnet_graph.forward_ops():
            if op.inplace_of is None:
                continue
            source = resnet_graph.tensor(op.inplace_of)
            if assignment.tso_of[op.outputs[0]] == assignment.tso_of[source.id]:
                consumers = set(source.consumers)
                assert consumers == {op.id}, \
                    f"{op.name} overwrote multi-consumer {source.name}"


class TestAccumulateInPlace:
    @pytest.mark.parametrize("splits", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_one_fact_three_readers(self, name, splits):
        """The planner shares a ``grad_acc`` output with exactly the
        operand the executor's kernel adds into (input 0, the chain so
        far, when the overwrite table grants it; else the incoming
        partial), and SCA406's independent derivation objects to none."""
        model = _split(name, splits, depth=0.5)
        graph = build_training_graph(model, 2)
        executor = GraphExecutor(
            graph, GraphExecutor.parameters_from_model(graph, model))
        assert not [d for d in verify_lowering(executor)
                    if d.code == "SCA406"]
        assignment = assign_storage(graph)
        for op in _accumulators(graph):
            output = assignment.tso_of[op.outputs[0]]
            shared = [assignment.tso_of[t] == output for t in op.inputs]
            granted = [executor.may_overwrite(op, 0),
                       not executor.may_overwrite(op, 0)
                       and executor.may_overwrite(op, 1)]
            assert shared == granted, (
                f"{op.name}: storage shares operands {shared}, the kernel "
                f"writes into {granted}")
        if splits > 1:
            assert assignment.accumulate_shares_applied > 0

    def test_skip_connection_error_chains_share(self, resnet_graph):
        assignment = assign_storage(resnet_graph)
        chains = [op for op in _accumulators(resnet_graph)
                  if resnet_graph.tensor(op.outputs[0]).kind == "gradient_act"]
        assert chains
        for op in chains:
            assert assignment.tso_of[op.outputs[0]] in {
                assignment.tso_of[t] for t in op.inputs}, op.name


class TestSummationSharing:
    def test_residual_error_terms_share(self, resnet_graph):
        assignment = assign_storage(resnet_graph)
        assert assignment.summation_shares_applied > 0
        for op in resnet_graph.backward_ops():
            if op.op_type != "add_bwd":
                continue
            upstream = assignment.tso_of[op.inputs[0]]
            for grad in op.outputs:
                assert assignment.tso_of[grad] == upstream

    def test_disabled_creates_distinct_tsos(self, resnet_graph):
        off = assign_storage(resnet_graph, share_summation=False)
        assert off.summation_shares_applied == 0
        for op in resnet_graph.backward_ops():
            if op.op_type != "add_bwd":
                continue
            tso_ids = {off.tso_of[g] for g in op.outputs}
            assert len(tso_ids) == len(op.outputs)

    def test_sharing_reduces_total_bytes(self, resnet_graph):
        on = assign_storage(resnet_graph, share_summation=True)
        off = assign_storage(resnet_graph, share_summation=False)
        assert on.total_bytes(POOL_DEVICE_GENERAL) < \
            off.total_bytes(POOL_DEVICE_GENERAL)


class TestViews:
    def test_flatten_aliases(self, vgg_graph):
        assignment = assign_storage(vgg_graph)
        flatten = next(op for op in vgg_graph.forward_ops()
                       if op.op_type == "flatten")
        assert assignment.tso_of[flatten.outputs[0]] == \
            assignment.tso_of[flatten.inputs[0]]
        assert assignment.view_shares_applied > 0
