"""Tests for split-region patch scheduling order (§3.2 scheduling freedom)."""

import numpy as np
import pytest

from repro.core import to_split_cnn
from repro.graph import build_training_graph
from repro.graph.builder import GraphBuilder
from repro.graph.executor import GraphExecutor
from repro.hmms import HMMSPlanner
from repro.models import small_vgg
from repro.profile import CostModel


@pytest.fixture(scope="module")
def split_model():
    return to_split_cnn(small_vgg(rng=np.random.default_rng(0)),
                        depth=0.5, num_splits=(2, 2))


class TestPatchOrder:
    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            GraphBuilder(batch_size=4, patch_order="diagonal")

    def test_both_orders_validate(self, split_model):
        for order in ("depth_first", "breadth_first"):
            graph = build_training_graph(split_model, 4, patch_order=order)
            graph.validate()

    def test_same_op_multiset(self, split_model):
        """Scheduling changes order, not the set of operations."""
        depth = build_training_graph(split_model, 4,
                                     patch_order="depth_first")
        breadth = build_training_graph(split_model, 4,
                                       patch_order="breadth_first")
        count = lambda g: sorted(op.op_type for op in g.ops)
        assert count(depth) == count(breadth)

    def test_same_total_time(self, split_model):
        cost = CostModel()
        depth = build_training_graph(split_model, 4,
                                     patch_order="depth_first")
        breadth = build_training_graph(split_model, 4,
                                       patch_order="breadth_first")
        assert cost.total_time(depth) == pytest.approx(
            cost.total_time(breadth), rel=1e-9)

    def test_depth_first_uses_less_memory(self, split_model):
        """The point of the option: with offloading active, depth-first
        lets each patch's tensors drain over the link before the next
        patch produces its own (without offloading both schedules keep
        every saved tensor resident, so they tie)."""
        depth = HMMSPlanner(scheduler="hmms").plan(
            build_training_graph(split_model, 32,
                                 patch_order="depth_first"))
        breadth = HMMSPlanner(scheduler="hmms").plan(
            build_training_graph(split_model, 32,
                                 patch_order="breadth_first"))
        # At this miniature scale the gap is small (see the ablation
        # benchmark for the VGG-19-scale 1.9 vs 3.2 GiB difference).
        assert depth.device_general_peak <= breadth.device_general_peak

    def test_breadth_first_numerics_match(self, split_model):
        """Both schedules compute the same training step."""
        rng = np.random.default_rng(3)
        for param in split_model.parameters():
            param.data = param.data.astype(np.float64)
        x = rng.standard_normal((2, 3, 32, 32))
        y = np.array([1, 2])
        losses = {}
        for order in ("depth_first", "breadth_first"):
            graph = build_training_graph(split_model, 2, patch_order=order)
            params = GraphExecutor.parameters_from_model(graph, split_model)
            outputs = GraphExecutor(graph, params).run(x, y)
            losses[order] = float(outputs["loss"][0])
        assert losses["depth_first"] == pytest.approx(
            losses["breadth_first"], rel=1e-12)
