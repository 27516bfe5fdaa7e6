"""Tests for the roofline cost model and Figure-1 offload analysis."""

import numpy as np
import pytest

from repro.graph import build_forward_graph, build_training_graph
from repro.models import resnet18, resnet50, small_vgg, vgg19
from repro.nn import init
from repro.profile import (
    CostModel, P100_NVLINK, analyze_offloadability,
)


@pytest.fixture(scope="module")
def vgg_graph():
    rng = np.random.default_rng(0)
    return build_training_graph(small_vgg(rng=rng), batch_size=8)


class TestCostModel:
    def test_all_ops_costed(self, vgg_graph):
        model = CostModel()
        costs = model.profile(vgg_graph)
        assert set(costs) == {op.id for op in vgg_graph.ops}
        assert all(c.seconds >= 0 for c in costs.values())

    def test_time_scales_with_batch(self, rng):
        model = CostModel()
        small = build_forward_graph(small_vgg(rng=rng), 4)
        large = build_forward_graph(small_vgg(rng=rng), 64)
        # Per-op FLOPs/bytes scale 16x with batch; total time grows strictly
        # (kernel-launch overhead is batch-invariant, so less than 16x).
        assert model.total_time(large) > 2 * model.total_time(small)
        conv_small = next(op for op in small.ops if op.op_type == "conv2d")
        conv_large = next(op for op in large.ops if op.op_type == "conv2d")
        assert model.cost(large, conv_large).flops == \
            16 * model.cost(small, conv_small).flops

    def test_phase_filter(self, vgg_graph):
        model = CostModel()
        fwd = model.total_time(vgg_graph, "forward")
        bwd = model.total_time(vgg_graph, "backward")
        assert model.total_time(vgg_graph) == pytest.approx(fwd + bwd)
        # Backward does roughly twice the conv work of forward.
        assert bwd > fwd

    def test_view_ops_are_free(self, vgg_graph):
        model = CostModel()
        for op in vgg_graph.ops:
            if op.op_type in ("flatten", "flatten_bwd", "add_bwd"):
                assert model.cost(vgg_graph, op).seconds == 0.0

    def test_memory_bound_layer_on_bandwidth_roof(self, vgg_graph):
        """ReLU cost equals its bytes over effective bandwidth (+ overhead)."""
        device = P100_NVLINK
        model = CostModel(device)
        relu = next(op for op in vgg_graph.forward_ops() if op.op_type == "relu")
        cost = model.cost(vgg_graph, relu)
        expected = device.kernel_overhead + cost.bytes_moved / (
            device.mem_bandwidth * device.mem_efficiency)
        assert cost.seconds == pytest.approx(expected)

    def test_conv_on_compute_roof(self, rng):
        with init.fast_init():
            graph = build_forward_graph(vgg19(), 16)
        device = P100_NVLINK
        model = CostModel(device)
        # A big mid-network conv is compute-bound.
        convs = [op for op in graph.forward_ops() if op.op_type == "conv2d"]
        cost = model.cost(graph, convs[3])
        effective = device.peak_flops * device.conv_efficiency * device.winograd_gain
        expected = device.kernel_overhead + cost.flops / effective
        assert cost.seconds == pytest.approx(expected)

    def test_winograd_only_for_3x3_stride1(self, rng):
        with init.fast_init():
            graph = build_forward_graph(
                resnet18(dataset="imagenet", num_classes=1000), 16)
        base = CostModel(P100_NVLINK.with_(winograd_gain=1.0))
        fast = CostModel(P100_NVLINK)
        for op in graph.forward_ops():
            if op.op_type != "conv2d":
                continue
            ratio = base.cost(graph, op).seconds / fast.cost(graph, op).seconds
            if op.attrs["kernel"] == (3, 3) and op.attrs["stride"] == (1, 1):
                assert ratio > 1.5
            else:
                assert ratio == pytest.approx(1.0)

    def test_unknown_op_type_raises(self):
        from repro.graph import Graph
        graph = Graph("t")
        a = graph.add_tensor("a", (1,))
        b = graph.add_tensor("b", (1,))
        graph.add_op("op", "fft", [a], [b])
        with pytest.raises(NotImplementedError):
            CostModel().cost(graph, graph.ops[0])

    def test_device_with_override(self):
        fast = P100_NVLINK.with_(peak_flops=2 * P100_NVLINK.peak_flops)
        assert fast.peak_flops == 2 * P100_NVLINK.peak_flops
        assert fast.nvlink_bandwidth == P100_NVLINK.nvlink_bandwidth


class TestOffloadAnalysis:
    """Calibration targets from the paper (§2.4, §6.2, §6.3); see
    EXPERIMENTS.md for measured-vs-paper discussion."""

    @pytest.fixture(scope="class")
    def analyses(self):
        result = {}
        with init.fast_init():
            for name, builder in {
                "vgg19": lambda: vgg19(),
                "resnet18": lambda: resnet18(dataset="imagenet",
                                             num_classes=1000),
                "resnet18-me": lambda: resnet18(dataset="imagenet",
                                                num_classes=1000,
                                                memory_efficient=True),
                "resnet50": lambda: resnet50(),
            }.items():
                graph = build_training_graph(builder(), 64)
                result[name] = analyze_offloadability(graph)
        return result

    def test_vgg19_fully_offloadable(self, analyses):
        # Paper Figure 1a: VGG-19's intermediate results can be completely
        # offloaded (cumulative offload-able eventually exceeds generated).
        assert analyses["vgg19"].fully_offloadable()

    def test_resnet18_partial(self, analyses):
        # Paper: ~55% for ResNet-18.
        ratio = (analyses["resnet18"].total_offloadable
                 / analyses["resnet18"].total_generated)
        assert 0.40 < ratio < 0.75

    def test_resnet50_lowest(self, analyses):
        # Paper §6.2: ~40% for ResNet-50 — lower than ResNet-18.
        r50 = (analyses["resnet50"].total_offloadable
               / analyses["resnet50"].total_generated)
        r18 = (analyses["resnet18"].total_offloadable
               / analyses["resnet18"].total_generated)
        assert r50 < r18
        assert 0.30 < r50 < 0.65

    def test_memory_efficient_raises_fraction(self, analyses):
        # Paper §6.3: in-place ABN lifts ResNet-18 from ~55% to ~70%,
        # still short of full offload-ability.
        plain = (analyses["resnet18"].total_offloadable
                 / analyses["resnet18"].total_generated)
        efficient = (analyses["resnet18-me"].total_offloadable
                     / analyses["resnet18-me"].total_generated)
        assert efficient > plain
        assert efficient < 1.0

    def test_memory_bound_layers_starved(self, analyses):
        # Paper Figure 1: pooling and BN layers almost never have enough
        # time to offload what they generate.
        for analysis in analyses.values():
            starved_types = {r.op_type for r in analysis.starved_layers()}
            assert starved_types & {"maxpool2d", "batchnorm", "relu"}

    def test_cumulative_series_monotone(self, analyses):
        for analysis in analyses.values():
            generated = [r.cumulative_generated for r in analysis.rows]
            offloadable = [r.cumulative_offloadable for r in analysis.rows]
            assert generated == sorted(generated)
            assert offloadable == sorted(offloadable)

    def test_fraction_capped_at_one(self, analyses):
        assert analyses["vgg19"].offloadable_fraction == 1.0
