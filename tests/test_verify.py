"""Tests for the independent static plan verifier (repro.hmms.verify).

The verifier shares no replay code with the simulator, so these tests
exercise both directions of the cross-check: clean plans from every
scheduler must verify error-free, and targeted single-field corruptions
must be detected with the right invariant family named.
"""

import copy

import numpy as np
import pytest

from repro.core import to_split_cnn
from repro.graph import build_training_graph
from repro.hmms import (
    POOL_DEVICE_GENERAL, POOL_DEVICE_PARAM, HMMSPlanner,
    PlanVerificationError, VerificationReport, verify_plan,
)
from repro.hmms.verify import (
    FAMILY_COMPLETENESS, FAMILY_OVERLAP, FAMILY_REFCOUNT, FAMILY_RESIDENCY,
    FAMILY_TRANSFER, INVARIANT_FAMILIES,
)
from repro.models import small_resnet, small_vgg
from repro.sim import GPUSimulator


@pytest.fixture(scope="module")
def vgg_graph():
    return build_training_graph(small_vgg(rng=np.random.default_rng(0)), 16)


@pytest.fixture(scope="module")
def resnet_graph():
    return build_training_graph(small_resnet(rng=np.random.default_rng(1)), 8)


@pytest.fixture(scope="module")
def hmms_plan(vgg_graph):
    return HMMSPlanner(scheduler="hmms").plan(vgg_graph)


def fresh_plan(graph, **kwargs):
    kwargs.setdefault("scheduler", "hmms")
    return HMMSPlanner(**kwargs).plan(graph)


class TestCleanPlans:
    @pytest.mark.parametrize("scheduler", ["none", "layerwise", "hmms"])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_all_schedulers_verify_clean(self, vgg_graph, scheduler, grouped):
        plan = fresh_plan(vgg_graph, scheduler=scheduler, grouped_sync=grouped)
        report = verify_plan(plan)
        assert report.ok, report.render()
        assert report.families_violated() == ()

    def test_resnet_verifies_clean(self, resnet_graph):
        report = verify_plan(fresh_plan(resnet_graph))
        assert report.ok, report.render()

    def test_no_offload_plan_is_stall_free(self, vgg_graph):
        report = verify_plan(fresh_plan(vgg_graph, scheduler="none"))
        assert report.stall_free
        assert report.num_transfers == 0

    def test_layerwise_is_not_stall_free(self, vgg_graph):
        """The vDNN baseline stalls (Figure 8) — the verifier must agree,
        but only as warnings: stalls are a performance bug, not safety."""
        report = verify_plan(fresh_plan(vgg_graph, scheduler="layerwise"))
        assert not report.stall_free
        assert report.ok
        assert report.warnings

    def test_strict_stalls_promotes_to_error(self, vgg_graph):
        plan = fresh_plan(vgg_graph, scheduler="layerwise")
        report = verify_plan(plan, strict_stalls=True)
        assert not report.ok
        assert FAMILY_TRANSFER in report.families_violated()

    def test_verifier_agrees_with_simulator_on_stalls(self, vgg_graph):
        """Cross-check: the FIFO link replay flags a stall iff the
        independent event-driven simulator measures one."""
        for scheduler in ("none", "layerwise", "hmms"):
            plan = fresh_plan(vgg_graph, scheduler=scheduler)
            report = verify_plan(plan)
            result = GPUSimulator().run(plan)
            assert report.stall_free == (result.stall_time == 0.0), scheduler


class TestReportApi:
    def test_report_metadata(self, hmms_plan):
        report = verify_plan(hmms_plan)
        assert isinstance(report, VerificationReport)
        assert report.num_ops == len(hmms_plan.schedule)
        assert report.num_tsos == len(hmms_plan.assignment.tsos)
        assert report.num_transfers == len(hmms_plan.offload_plan.transfers)

    def test_render_names_every_family(self, hmms_plan):
        text = verify_plan(hmms_plan).render()
        for family in INVARIANT_FAMILIES:
            assert family in text
        assert "PASS" in text

    def test_render_fail_and_raise(self, hmms_plan):
        plan = copy.deepcopy(hmms_plan)
        plan.schedule[0].allocs_before.extend(plan.schedule[0].allocs_before)
        report = verify_plan(plan)
        assert "FAIL" in report.render()
        with pytest.raises(PlanVerificationError) as excinfo:
            report.raise_if_failed()
        assert excinfo.value.report is report

    def test_violation_str_names_family(self, hmms_plan):
        plan = copy.deepcopy(hmms_plan)
        plan.schedule[0].allocs_before.extend(plan.schedule[0].allocs_before)
        violation = verify_plan(plan).errors[0]
        assert FAMILY_RESIDENCY in str(violation)


class TestCapacity:
    def test_capacity_violation(self, hmms_plan):
        report = verify_plan(hmms_plan, capacity=1 << 20)
        assert not report.ok
        assert report.families_violated() == (FAMILY_OVERLAP,)

    def test_capacity_ok(self, hmms_plan):
        report = verify_plan(hmms_plan, capacity=64 << 30)
        assert report.ok


class TestTargetedCorruptions:
    """One unit test per corruption shape; the zoo-wide mutation matrix
    lives in test_pipeline_fuzz.py."""

    def test_unknown_tso_rejected(self, hmms_plan):
        plan = copy.deepcopy(hmms_plan)
        plan.schedule[0].allocs_before.append(999_999)
        report = verify_plan(plan)
        assert FAMILY_RESIDENCY in report.families_violated()

    def test_wrong_op_index_rejected(self, hmms_plan):
        plan = copy.deepcopy(hmms_plan)
        plan.schedule[3].op_index = 7
        report = verify_plan(plan)
        assert FAMILY_COMPLETENESS in report.families_violated()

    def test_offload_of_unallocated_tso(self, hmms_plan):
        plan = copy.deepcopy(hmms_plan)
        entry = next(e for e in plan.schedule if e.offload_starts)
        tso_id = entry.offload_starts[0]
        alloc_entry = next(e for e in plan.schedule
                           if tso_id in e.allocs_before)
        alloc_entry.allocs_before.remove(tso_id)
        report = verify_plan(plan)
        assert FAMILY_RESIDENCY in report.families_violated()

    def test_leaked_tso_rejected(self, hmms_plan):
        plan = copy.deepcopy(hmms_plan)
        entry = next(e for e in plan.schedule if e.frees_after)
        entry.frees_after.pop()
        report = verify_plan(plan)
        assert FAMILY_REFCOUNT in report.families_violated()

    def test_missing_prefetch_rejected(self, hmms_plan):
        plan = copy.deepcopy(hmms_plan)
        for entry in plan.schedule:
            entry.prefetch_allocs_before.clear()
            entry.prefetch_starts.clear()
            entry.prefetch_syncs_before.clear()
        report = verify_plan(plan)
        assert FAMILY_COMPLETENESS in report.families_violated()

    def test_understated_peak_rejected(self, hmms_plan):
        plan = copy.deepcopy(hmms_plan)
        plan.device_general_peak //= 2
        report = verify_plan(plan)
        assert FAMILY_OVERLAP in report.families_violated()

    def test_sync_on_unissued_offload(self, hmms_plan):
        plan = copy.deepcopy(hmms_plan)
        entry = next(e for e in plan.schedule if e.offload_starts)
        tso_id = entry.offload_starts[0]
        entry.offload_starts.remove(tso_id)
        report = verify_plan(plan)
        assert FAMILY_TRANSFER in report.families_violated()


class TestGradientStorageCorruptions:
    """What `assign_storage` decides for gradients, broken by hand: the
    verifier derives none of it from storage.py, so each must be caught
    here (the first only by a check this class's PR added)."""

    @staticmethod
    def split_graph():
        model = to_split_cnn(small_vgg(rng=np.random.default_rng(0)),
                             depth=1.0, num_splits=(2, 2))
        return build_training_graph(model, 4)

    @staticmethod
    def first_chain(graph):
        """The first two ``grad_acc`` ops of one weight's chain."""
        first = next(op for op in graph.ops if op.op_type == "grad_acc"
                     and graph.tensor(op.outputs[0]).kind == "gradient")
        second = next(op for op in graph.ops if op.op_type == "grad_acc"
                      and op.inputs[0] == first.outputs[0])
        return first, second

    def test_clean_split_plan(self):
        plan = fresh_plan(self.split_graph())
        assert plan.assignment.accumulate_shares_applied > 0
        assert verify_plan(plan).ok

    def test_accumulating_over_an_operand_still_read(self):
        graph = self.split_graph()
        first, _ = self.first_chain(graph)
        chain_so_far = graph.tensor(first.inputs[0])
        late = graph.add_tensor("late", chain_so_far.shape,
                                kind="gradient_act")
        graph.add_op("late-reader", "grad_acc", [chain_so_far, chain_so_far],
                     [late], phase="backward")
        plan = fresh_plan(graph)
        assignment = plan.assignment
        # The planner saw the late reader and kept the operand's TSO to
        # itself; nothing else about the plan changes when the partial sum
        # is forced into it (the TSO is held until the late reader anyway).
        assert assignment.tso_of[first.outputs[0]] \
            != assignment.tso_of[chain_so_far.id]
        assert verify_plan(plan).ok
        moved = first.outputs[0]
        assignment.tso_for_tensor(moved).tensor_ids.remove(moved)
        assignment.tso_of[moved] = assignment.tso_of[chain_so_far.id]
        assignment.tso_for_tensor(moved).tensor_ids.append(moved)
        report = verify_plan(plan)
        assert report.families_violated() == (FAMILY_REFCOUNT,)
        (violation,) = report.errors
        assert first.name in violation.message
        assert "still read" in violation.message

    def test_partial_released_before_its_accumulation(self):
        graph = self.split_graph()
        plan = fresh_plan(graph)
        _, second = self.first_chain(graph)
        partial = plan.assignment.tso_for_tensor(second.inputs[1])
        assert partial.pool == POOL_DEVICE_GENERAL       # a transient
        position = graph.op_positions()
        free_entry = plan.schedule[position[second.id]]
        assert partial.id in free_entry.frees_after
        free_entry.frees_after.remove(partial.id)
        plan.schedule[position[second.id] - 1].frees_after.append(partial.id)
        report = verify_plan(plan)
        assert {FAMILY_RESIDENCY, FAMILY_REFCOUNT} <= \
            set(report.families_violated())
        assert any("use-after-free" in v.message and second.name in v.message
                   for v in report.errors)

    def test_final_gradient_in_the_general_pool(self):
        graph = self.split_graph()
        plan = fresh_plan(graph)
        final = next(t for t in graph.tensors.values()
                     if t.kind == "gradient" and not t.consumers)
        tso = plan.assignment.tso_for_tensor(final.id)
        assert tso.pool == POOL_DEVICE_PARAM
        # Moved with a schedule every other check accepts: allocated at
        # its first touch, freed after its last.
        tso.pool = POOL_DEVICE_GENERAL
        position = graph.op_positions()
        produced = [position[graph.tensor(t).producer]
                    for t in tso.tensor_ids]
        plan.schedule[min(produced)].allocs_before.append(tso.id)
        plan.schedule[max(produced)].frees_after.append(tso.id)
        plan.device_general_peak += tso.size
        report = verify_plan(plan)
        assert report.families_violated() == (FAMILY_REFCOUNT,)
        (violation,) = report.errors
        assert final.name in violation.message
        assert "outlives the step" in violation.message


class TestIntegrationHooks:
    """Gating a plan is ``verify_plan(...).raise_if_failed()`` composed
    before the planner's caller or the simulator uses it."""

    def test_planner_verify_flag(self, vgg_graph):
        plan = HMMSPlanner(scheduler="hmms").plan(vgg_graph)
        verify_plan(plan).raise_if_failed()
        assert plan.device_general_peak > 0

    def test_simulator_verify_flag_clean(self, hmms_plan):
        verify_plan(hmms_plan).raise_if_failed()
        result = GPUSimulator().run(hmms_plan)
        assert result.total_time > 0

    def test_simulator_verify_flag_rejects_corrupt_plan(self, hmms_plan):
        plan = copy.deepcopy(hmms_plan)
        entry = next(e for e in plan.schedule if e.frees_after)
        entry.frees_after.pop()
        with pytest.raises(PlanVerificationError):
            verify_plan(plan).raise_if_failed()
