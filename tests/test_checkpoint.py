"""Tests for the gradient-checkpointing (recompute) graph transform."""

import numpy as np
import pytest

from repro.graph import build_training_graph
from repro.graph.checkpoint import (
    append_checkpointed_backward, build_checkpointed_training_graph,
)
from repro.hmms import HMMSPlanner
from repro.models import small_resnet, small_vgg
from repro.profile import CostModel
from repro.sim import GPUSimulator


@pytest.fixture(scope="module")
def model():
    return small_vgg(rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def checkpointed(model):
    return build_checkpointed_training_graph(model, 16)


@pytest.fixture(scope="module")
def plain(model):
    return build_training_graph(model, 16)


class TestStructure:
    def test_validates(self, checkpointed):
        checkpointed.validate()

    def test_recompute_ops_present(self, checkpointed):
        recompute = [op for op in checkpointed.backward_ops()
                     if op.name.endswith(".re")]
        assert recompute
        # Recompute clones carry forward op types but run in backward.
        assert {op.op_type for op in recompute} & {"conv2d", "relu"}

    def test_trunk_saves_nothing(self, checkpointed):
        flatten_seen = False
        for op in checkpointed.forward_ops():
            if op.op_type == "flatten":
                flatten_seen = True
            if not flatten_seen:
                assert op.saved == [], op.name

    def test_classifier_keeps_saved(self, checkpointed):
        linear_ops = [op for op in checkpointed.forward_ops()
                      if op.op_type == "linear"]
        assert any(op.saved for op in linear_ops)

    def test_every_parameter_gets_gradient(self, checkpointed, plain):
        def grad_names(graph):
            return {t.name.split("(")[-1].rstrip(")") for t in
                    graph.tensors.values() if t.kind == "gradient"}
        assert grad_names(checkpointed) == grad_names(plain)

    def test_more_ops_than_plain(self, checkpointed, plain):
        assert len(checkpointed.ops) > len(plain.ops)

    def test_single_segment_degenerates(self):
        # A two-op trunk rounds sqrt(2) to one segment.
        from repro.models.base import ConvClassifier
        from repro.nn import Conv2d, Linear, ReLU, Sequential
        rng = np.random.default_rng(0)
        model = ConvClassifier(
            Sequential(Conv2d(3, 2, 3, padding=1, rng=rng), ReLU()),
            Linear(2 * 8 * 8, 2, rng=rng), input_size=8)
        graph = build_checkpointed_training_graph(model, 4)
        recomputed = [op.op_type for op in graph.backward_ops()
                      if op.name.endswith(".re")]
        assert recomputed == ["conv2d", "relu"]
        graph.validate()

    def test_resnet_blocks_checkpoint(self):
        model = small_resnet(rng=np.random.default_rng(0))
        graph = build_checkpointed_training_graph(model, 4)
        graph.validate()
        GPUSimulator().run(HMMSPlanner(scheduler="none").plan(graph))


class TestTradeoffs:
    def test_recompute_costs_time(self, checkpointed, plain):
        cost = CostModel()
        assert cost.total_time(checkpointed) > cost.total_time(plain)
        # ... but less than a full second forward pass on top of everything.
        assert cost.total_time(checkpointed) < \
            cost.total_time(plain) + 2 * cost.total_time(plain, "forward")

    def test_saved_bytes_shrink(self, checkpointed, plain):
        saved_plain = sum(t.nbytes for t in plain.saved_tensors())
        saved_ckpt = sum(t.nbytes for t in checkpointed.saved_tensors())
        assert saved_ckpt < saved_plain

    def test_simulates_safely_with_all_schedulers(self, checkpointed):
        for scheduler in ("none", "layerwise", "hmms"):
            plan = HMMSPlanner(scheduler=scheduler).plan(checkpointed)
            result = GPUSimulator().run(plan)
            assert result.total_time > 0

    def test_composes_with_offloading(self, model):
        """Checkpoint boundary tensors are offload candidates, so the two
        memory strategies compose."""
        from repro.graph import build_forward_graph
        from repro.graph.checkpoint import append_checkpointed_backward
        graph = build_forward_graph(model, 64, workspace_cap=0)
        append_checkpointed_backward(graph)
        plan = HMMSPlanner(scheduler="hmms").plan(graph)
        assert plan.offload_plan.transfers  # checkpoints do get offloaded
        GPUSimulator().run(plan)
