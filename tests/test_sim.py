"""Tests for the event-driven GPU simulator and timeline rendering."""

import numpy as np
import pytest

from repro.graph import build_training_graph
from repro.hmms import HMMSPlanner
from repro.hmms.planner import OpSchedule
from repro.models import small_resnet, small_vgg
from repro.profile import CostModel, P100_NVLINK
from repro.sim import (
    GPUSimulator, SimulationError, render_timeline, stall_profile,
    utilization_summary,
)


@pytest.fixture(scope="module")
def vgg_graph():
    return build_training_graph(small_vgg(rng=np.random.default_rng(0)), 16)


def run(graph, scheduler, **planner_kwargs):
    plan = HMMSPlanner(scheduler=scheduler, **planner_kwargs).plan(graph)
    return GPUSimulator().run(plan), plan


class TestBaseline:
    def test_no_offload_no_stalls(self, vgg_graph):
        result, _ = run(vgg_graph, "none")
        assert result.stall_time == 0.0
        assert result.transfer_time == 0.0
        assert result.offloaded_bytes == 0

    def test_total_equals_kernel_time(self, vgg_graph):
        result, plan = run(vgg_graph, "none")
        expected = CostModel().total_time(vgg_graph)
        assert result.total_time == pytest.approx(expected)

    def test_throughput(self, vgg_graph):
        result, _ = run(vgg_graph, "none")
        assert result.throughput(16) == pytest.approx(16 / result.total_time)

    def test_events_cover_all_ops(self, vgg_graph):
        result, _ = run(vgg_graph, "none")
        op_events = [e for e in result.events if e.kind == "op"]
        costed = [op for op in vgg_graph.ops
                  if CostModel().cost(vgg_graph, op).seconds > 0]
        assert len(op_events) == len(costed)


class TestOffloadReplay:
    def test_hmms_transfers_happen(self, vgg_graph):
        result, plan = run(vgg_graph, "hmms")
        assert result.offloaded_bytes == plan.offload_plan.offloaded_bytes
        assert result.transfer_time > 0

    def test_hmms_beats_layerwise(self, vgg_graph):
        hmms, _ = run(vgg_graph, "hmms")
        layerwise, _ = run(vgg_graph, "layerwise")
        assert hmms.total_time <= layerwise.total_time

    def test_layerwise_stalls_on_memory_bound_layers(self, vgg_graph):
        result, _ = run(vgg_graph, "layerwise")
        assert result.stall_time > 0

    def test_transfer_events_on_memory_streams(self, vgg_graph):
        result, _ = run(vgg_graph, "hmms")
        for event in result.events:
            if event.kind in ("offload", "prefetch"):
                assert event.stream.startswith("mem")

    def test_full_duplex_stream_separation(self, vgg_graph):
        result, _ = run(vgg_graph, "hmms")
        offload_streams = {e.stream for e in result.events if e.kind == "offload"}
        prefetch_streams = {e.stream for e in result.events if e.kind == "prefetch"}
        assert offload_streams == {"mem0"}
        assert prefetch_streams <= {"mem1"}

    def test_peak_live_consistent_with_plan(self, vgg_graph):
        result, plan = run(vgg_graph, "hmms")
        # The live-byte tracker (sum of sizes) can never exceed the
        # address-space peak of the first-fit pool.
        assert result.peak_live_bytes <= plan.device_general_peak


class TestSafetyChecks:
    def test_use_after_free_detected(self, vgg_graph):
        """Regression: frees used to pop the TSO from the state map, so a
        later read fell back to the RESIDENT default and passed silently."""
        plan = HMMSPlanner(scheduler="none").plan(vgg_graph)
        moved = False
        for index, entry in enumerate(plan.schedule):
            if moved:
                break
            for tso_id in list(entry.frees_after):
                tso = plan.assignment.tsos[tso_id]
                reads_at_free_op = any(
                    t in vgg_graph.ops[index].inputs for t in tso.tensor_ids)
                alloc_index = next(
                    i for i, e in enumerate(plan.schedule)
                    if tso_id in e.allocs_before)
                if reads_at_free_op and alloc_index < index:
                    # Free one op early: the op at `index` still reads it.
                    entry.frees_after.remove(tso_id)
                    plan.schedule[index - 1].frees_after.append(tso_id)
                    moved = True
                    break
        assert moved, "expected a TSO read by its freeing op"
        with pytest.raises(SimulationError, match="freed"):
            GPUSimulator().run(plan)

    def test_double_free_detected(self, vgg_graph):
        plan = HMMSPlanner(scheduler="none").plan(vgg_graph)
        entry = next(e for e in plan.schedule if e.frees_after)
        entry.frees_after.append(entry.frees_after[0])
        with pytest.raises(SimulationError, match="freed twice"):
            GPUSimulator().run(plan)

    def test_workspace_counts_against_capacity(self, vgg_graph):
        """Regression: transient workspace bumped live bytes but skipped
        the capacity check, so oversized workspaces passed silently."""
        plan = HMMSPlanner(scheduler="none").plan(vgg_graph)
        plan.schedule[0].workspace_bytes = P100_NVLINK.memory_capacity + 1
        with pytest.raises(SimulationError, match="memory exceeded"):
            GPUSimulator(check_capacity=True).run(plan)

    def test_read_of_offloaded_tso_detected(self, vgg_graph):
        plan = HMMSPlanner(scheduler="hmms").plan(vgg_graph)
        # Corrupt the plan: sync (and free) every offload immediately after
        # it starts, then delete the prefetches so the data never returns.
        for entry in plan.schedule:
            entry.prefetch_allocs_before.clear()
            entry.prefetch_syncs_before.clear()
            entry.prefetch_starts.clear()
        with pytest.raises(SimulationError):
            GPUSimulator().run(plan)

    def test_sync_on_unissued_prefetch_detected(self, vgg_graph):
        plan = HMMSPlanner(scheduler="hmms").plan(vgg_graph)
        for entry in plan.schedule:
            entry.prefetch_starts.clear()
        with pytest.raises(SimulationError):
            GPUSimulator().run(plan)

    def test_capacity_check(self, vgg_graph):
        plan = HMMSPlanner(scheduler="none").plan(vgg_graph)
        tiny = P100_NVLINK.with_(memory_capacity=1 << 20)
        with pytest.raises(SimulationError):
            GPUSimulator(tiny, check_capacity=True).run(plan)

    def test_capacity_check_passes_when_fits(self, vgg_graph):
        plan = HMMSPlanner(scheduler="none").plan(vgg_graph)
        GPUSimulator(check_capacity=True).run(plan)  # 16 GB is plenty


class TestTimelines:
    def test_render_contains_streams(self, vgg_graph):
        result, _ = run(vgg_graph, "hmms")
        text = render_timeline(result, width=60)
        assert "compute" in text
        assert "total" in text

    def test_render_glyphs(self, vgg_graph):
        result, _ = run(vgg_graph, "layerwise")
        text = render_timeline(result, width=60)
        assert "#" in text          # kernels
        assert ">" in text          # offloads

    def test_stall_profile_sorted(self, vgg_graph):
        result, _ = run(vgg_graph, "layerwise")
        stalls = stall_profile(result)
        durations = [s.duration for s in stalls]
        assert durations == sorted(durations, reverse=True)

    def test_utilization_summary(self, vgg_graph):
        result, _ = run(vgg_graph, "hmms")
        summary = utilization_summary(result)
        assert 0 < summary["compute"] <= 1.0
        assert all(0 <= v <= 1.0 for v in summary.values())

    def test_empty_timeline(self):
        from repro.sim import SimResult
        empty = SimResult(total_time=0, compute_time=0, stall_time=0,
                          transfer_time=0, offloaded_bytes=0,
                          peak_live_bytes=0)
        assert render_timeline(empty) == "(empty timeline)"
        assert utilization_summary(empty) == {}
