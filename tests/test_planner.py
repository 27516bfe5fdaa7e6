"""Tests for the 5-step HMMS planner and its MemoryPlan invariants."""

from collections import Counter

import numpy as np
import pytest

from repro.core import to_split_cnn
from repro.graph import build_inference_graph, build_training_graph, \
    compute_lifetimes
from repro.hmms import HMMSPlanner, MemoryPlan, assign_storage, plan_offload, \
    plan_prefetch, verify_plan
from repro.models import small_resnet, small_vgg
from repro.profile import CostModel, OpCost, P100_NVLINK, \
    analyze_offloadability
from repro.sim import GPUSimulator


@pytest.fixture(scope="module")
def vgg_graph():
    return build_training_graph(small_vgg(rng=np.random.default_rng(0)), 16)


class TestPlannerBasics:
    def test_invalid_scheduler(self):
        with pytest.raises(ValueError):
            HMMSPlanner(scheduler="magic")

    @pytest.mark.parametrize("scheduler", ["none", "layerwise", "hmms"])
    def test_plan_builds(self, vgg_graph, scheduler):
        plan = HMMSPlanner(scheduler=scheduler).plan(vgg_graph)
        assert isinstance(plan, MemoryPlan)
        assert plan.scheduler == scheduler
        assert plan.device_general_peak > 0
        assert plan.device_param_bytes > 0

    def test_none_has_no_transfers(self, vgg_graph):
        plan = HMMSPlanner(scheduler="none").plan(vgg_graph)
        assert not plan.offload_plan.transfers
        assert plan.host_pool_bytes == 0

    def test_host_pool_equals_offloaded_bytes(self, vgg_graph):
        plan = HMMSPlanner(scheduler="hmms").plan(vgg_graph)
        assert plan.host_pool_bytes == sum(
            t.size for t in plan.offload_plan.transfers.values())

    def test_auto_fraction_is_theoretical_limit(self, vgg_graph):
        plan = HMMSPlanner(scheduler="hmms").plan(vgg_graph)
        expected = analyze_offloadability(vgg_graph).offloadable_fraction
        assert plan.offload_fraction_used == pytest.approx(expected)

    def test_fits(self, vgg_graph):
        plan = HMMSPlanner(scheduler="hmms").plan(vgg_graph)
        assert plan.fits(plan.device_peak)
        assert not plan.fits(plan.device_peak - 1)


class TestScheduleInvariants:
    @pytest.fixture(params=["none", "layerwise", "hmms"])
    def plan(self, vgg_graph, request):
        return HMMSPlanner(scheduler=request.param).plan(vgg_graph)

    def test_every_general_tso_allocated_and_freed_once(self, plan):
        allocs, frees = [], []
        for entry in plan.schedule:
            allocs.extend(entry.allocs_before)
            allocs.extend(entry.prefetch_allocs_before)
            frees.extend(entry.offload_syncs_after)
            frees.extend(entry.frees_after)
        general = [t.id for t in plan.assignment.tsos.values()
                   if t.pool == "device_general"]
        assert sorted(allocs) == sorted(
            general + [t for t in plan.offload_plan.transfers])
        assert sorted(frees) == sorted(allocs)

    def test_alloc_precedes_free(self, plan):
        alloc_at, free_at = {}, {}
        for entry in plan.schedule:
            for tso in entry.allocs_before:
                alloc_at.setdefault(tso, entry.op_index)
            for tso in entry.offload_syncs_after + entry.frees_after:
                free_at[tso] = entry.op_index
        for tso, start in alloc_at.items():
            assert free_at[tso] >= start

    def test_workspace_recorded(self, plan):
        graph_ws = [op.workspace_bytes for op in plan.graph.ops]
        plan_ws = [entry.workspace_bytes for entry in plan.schedule]
        assert graph_ws == plan_ws


class TestMemoryEffects:
    """Peak-memory effects are asserted on workspace-free graphs: conv
    workspace is a large batch-dependent transient that both schedulers pay
    identically, and at miniature scale it swamps the saved-activation
    footprint the schedulers actually differ on."""

    @pytest.fixture(scope="class")
    def clean_graph(self):
        from repro.graph import build_forward_graph, append_backward_graph
        graph = build_forward_graph(
            small_vgg(rng=np.random.default_rng(0)), 64, workspace_cap=0)
        return append_backward_graph(graph)

    def test_offloading_reduces_peak(self, clean_graph):
        baseline = HMMSPlanner(scheduler="none").plan(clean_graph)
        hmms = HMMSPlanner(scheduler="hmms").plan(clean_graph)
        assert hmms.device_general_peak < baseline.device_general_peak

    def test_optimizations_reduce_total_storage(self, clean_graph):
        with_opts = HMMSPlanner(scheduler="none").plan(clean_graph)
        without = HMMSPlanner(scheduler="none", inplace_relu=False,
                              share_summation=False).plan(clean_graph)
        assert with_opts.assignment.total_bytes("device_general") < \
            without.assignment.total_bytes("device_general")
        assert len(with_opts.assignment.tsos) < len(without.assignment.tsos)

    def test_workspace_contributes_to_peak(self):
        model = small_vgg(rng=np.random.default_rng(0))
        with_ws = HMMSPlanner(scheduler="none").plan(
            build_training_graph(model, 64))
        from repro.graph import build_forward_graph, append_backward_graph
        without_ws = HMMSPlanner(scheduler="none").plan(
            append_backward_graph(build_forward_graph(model, 64,
                                                      workspace_cap=0)))
        assert with_ws.device_general_peak > without_ws.device_general_peak

    def test_first_fit_beats_bump(self, vgg_graph):
        first_fit = HMMSPlanner(scheduler="hmms", first_fit=True).plan(vgg_graph)
        bump = HMMSPlanner(scheduler="hmms", first_fit=False).plan(vgg_graph)
        assert first_fit.device_general_peak < bump.device_general_peak

    def test_peak_scales_with_batch(self):
        rng = np.random.default_rng(0)
        model = small_vgg(rng=rng)
        small = HMMSPlanner(scheduler="none").plan(
            build_training_graph(model, 8))
        large = HMMSPlanner(scheduler="none").plan(
            build_training_graph(model, 32))
        assert large.device_general_peak > 2 * small.device_general_peak

    def test_split_plus_hmms_beats_hmms_alone(self):
        """The paper's central synergy at a miniature scale."""
        rng = np.random.default_rng(0)
        base = small_vgg(rng=rng)
        split = to_split_cnn(base, depth=0.75, num_splits=(2, 2))
        plain_plan = HMMSPlanner(scheduler="hmms").plan(
            build_training_graph(base, 64))
        split_plan = HMMSPlanner(scheduler="hmms").plan(
            build_training_graph(split, 64))
        assert split_plan.device_general_peak < plain_plan.device_general_peak

    def test_param_pool_independent_of_scheduler(self, vgg_graph):
        peaks = {HMMSPlanner(scheduler=s).plan(vgg_graph).device_param_bytes
                 for s in ("none", "layerwise", "hmms")}
        assert len(peaks) == 1


class TestHostPool:
    def test_none_scheduler_needs_no_host_pool(self, vgg_graph):
        plan = HMMSPlanner(scheduler="none").plan(vgg_graph)
        assert plan.host_pool_bytes == 0
        assert plan.host_pool_peak == 0

    def test_host_peak_bounded_by_static(self, vgg_graph):
        for scheduler in ("layerwise", "hmms"):
            plan = HMMSPlanner(scheduler=scheduler).plan(vgg_graph)
            assert plan.host_pool_peak <= plan.host_pool_bytes

    def test_host_peak_equals_static_for_fwd_bwd_plans(self, vgg_graph):
        """Every offload happens in forward and every prefetch consumes in
        backward, so all host slots coexist: reuse cannot help within one
        training step (it would across pipelined steps)."""
        plan = HMMSPlanner(scheduler="hmms").plan(vgg_graph)
        assert plan.host_pool_peak == plan.host_pool_bytes


class CountingCostModel(CostModel):
    """Counts ``cost()`` calls per op id."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def cost(self, graph, op):
        self.calls[op.id] += 1
        return super().cost(graph, op)


class FastConvCostModel(CountingCostModel):
    """``MeasuredCostModel``-style: ``cost`` is overridden and answers with
    durations of its own (convolutions four times faster than the
    roofline, so less of the graph is offload-able)."""

    def cost(self, graph, op):
        analytical = super().cost(graph, op)
        scale = 0.25 if op.op_type.startswith("conv2d") else 1.0
        return OpCost(analytical.flops, analytical.bytes_moved,
                      analytical.seconds * scale)


class TestPricingCounts:
    """§4.3 profiles each layer once and plans from that table.  Planner,
    verifier and simulator are independent, so each prices an op once —
    exact counts, because re-pricing is a cost no output shows."""

    @pytest.mark.parametrize("scheduler", ["hmms", "layerwise"])
    def test_planner_prices_each_op_at_most_once(self, vgg_graph, scheduler):
        model = CountingCostModel()
        plan = HMMSPlanner(scheduler=scheduler, cost_model=model).plan(vgg_graph)
        assert plan.offload_plan.transfers
        assert model.calls and max(model.calls.values()) == 1

    @pytest.mark.parametrize("kwargs", [
        dict(scheduler="none"),
        dict(scheduler="none", inference=True),
        dict(scheduler="layerwise", inference=True),
    ])
    def test_plans_that_read_no_duration_price_nothing(self, vgg_graph, kwargs):
        """No offloading, or an inference graph: nothing lives past the
        forward pass for an offload to hide behind."""
        graph = vgg_graph
        if kwargs.get("inference"):
            graph = build_inference_graph(
                small_vgg(rng=np.random.default_rng(0)), 16)
        model = CountingCostModel()
        plan = HMMSPlanner(cost_model=model,
                           scheduler=kwargs["scheduler"]).plan(graph)
        assert not model.calls and not plan.offload_plan.transfers

    def test_inference_graph_prices_nothing(self):
        graph = build_inference_graph(
            small_vgg(rng=np.random.default_rng(0)), 16)
        model = CountingCostModel()
        plan = HMMSPlanner(scheduler="hmms", cost_model=model).plan(graph)
        assert not model.calls and not plan.offload_plan.transfers

    @pytest.mark.parametrize("scheduler", ["none", "layerwise", "hmms"])
    def test_simulator_and_verifier_price_each_op_exactly_once(
            self, vgg_graph, scheduler):
        plan = HMMSPlanner(scheduler=scheduler).plan(vgg_graph)
        once = {op.id: 1 for op in vgg_graph.ops}

        model = CountingCostModel()
        result = GPUSimulator(cost_model=model).run(plan)
        assert model.calls == once
        assert result.compute_time == CostModel().total_time(vgg_graph)

        model = CountingCostModel()
        assert verify_plan(plan, cost_model=model).ok
        assert model.calls == once

    def test_table_path_honours_an_overridden_cost(self, vgg_graph):
        model = FastConvCostModel()
        plan = HMMSPlanner(scheduler="hmms", cost_model=model).plan(vgg_graph)
        assert max(model.calls.values()) == 1

        # The same plan assembled by hand from the subclass's own answers.
        table = {op.id: model.cost(vgg_graph, op) for op in vgg_graph.ops}
        fraction = analyze_offloadability(
            vgg_graph, P100_NVLINK, table).offloadable_fraction
        assignment = assign_storage(vgg_graph)
        lifetimes = compute_lifetimes(vgg_graph)
        expected = plan_prefetch(
            vgg_graph, assignment, lifetimes, table, P100_NVLINK,
            plan_offload(vgg_graph, assignment, lifetimes, table,
                         P100_NVLINK, fraction))
        assert plan.offload_fraction_used == fraction
        assert plan.offload_plan.transfers == expected.transfers

        # ... and not the roofline's plan: the override reached the table.
        roofline = HMMSPlanner(scheduler="hmms").plan(vgg_graph)
        assert plan.offload_fraction_used < roofline.offload_fraction_used
        assert plan.offload_plan.transfers != roofline.offload_plan.transfers
