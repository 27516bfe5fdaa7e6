"""Tests for Algorithm-1 offload planning, prefetch planning, and the
vDNN-style layer-wise baseline."""

import numpy as np
import pytest

from repro.graph import build_training_graph, compute_lifetimes
from repro.hmms import assign_storage, plan_layerwise, plan_offload, plan_prefetch
from repro.hmms.offload import select_offload_candidates
from repro.models import small_resnet, small_vgg
from repro.profile import CostModel, P100_NVLINK


@pytest.fixture(scope="module")
def planned():
    graph = build_training_graph(small_vgg(rng=np.random.default_rng(0)), 16)
    assignment = assign_storage(graph)
    lifetimes = compute_lifetimes(graph)
    profile = CostModel().profile(graph)
    return graph, assignment, lifetimes, profile


class TestCandidates:
    def test_candidates_cross_boundary(self, planned):
        graph, assignment, lifetimes, _ = planned
        for tso in select_offload_candidates(graph, assignment, lifetimes):
            assert any(
                lifetimes[t].crosses_boundary() for t in tso.tensor_ids
            )

    def test_candidates_in_general_pool(self, planned):
        graph, assignment, lifetimes, _ = planned
        for tso in select_offload_candidates(graph, assignment, lifetimes):
            assert tso.pool == "device_general"

    def test_candidates_unique(self, planned):
        graph, assignment, lifetimes, _ = planned
        ids = [t.id for t in
               select_offload_candidates(graph, assignment, lifetimes)]
        assert len(ids) == len(set(ids))


class TestAlgorithm1:
    def test_full_fraction_offloads_everything_drainable(self, planned):
        graph, assignment, lifetimes, profile = planned
        plan = plan_offload(graph, assignment, lifetimes, profile,
                            P100_NVLINK, fraction_cap=1.0)
        assert plan.offloaded_bytes > 0
        assert plan.offloaded_bytes <= plan.candidate_bytes

    def test_fraction_cap_respected(self, planned):
        graph, assignment, lifetimes, profile = planned
        for cap in (0.25, 0.5, 0.75):
            plan = plan_offload(graph, assignment, lifetimes, profile,
                                P100_NVLINK, fraction_cap=cap)
            assert plan.offloaded_bytes <= cap * plan.candidate_bytes + 1

    def test_zero_cap_offloads_nothing(self, planned):
        graph, assignment, lifetimes, profile = planned
        plan = plan_offload(graph, assignment, lifetimes, profile,
                            P100_NVLINK, fraction_cap=0.0)
        assert not plan.transfers

    def test_sync_never_before_start(self, planned):
        graph, assignment, lifetimes, profile = planned
        plan = plan_offload(graph, assignment, lifetimes, profile,
                            P100_NVLINK)
        for transfer in plan.transfers.values():
            assert transfer.offload_sync >= transfer.offload_start >= 0

    def test_offload_starts_after_last_forward_touch(self, planned):
        graph, assignment, lifetimes, profile = planned
        plan = plan_offload(graph, assignment, lifetimes, profile,
                            P100_NVLINK)
        for tso_id, transfer in plan.transfers.items():
            for tensor_id in assignment.tensors_of(tso_id):
                last_forward = lifetimes[tensor_id].last_forward_use
                if last_forward is not None:
                    assert transfer.offload_start >= last_forward

    def test_grouped_mode_syncs_at_nonnegative_balance(self, planned):
        """Paper-literal mode: replaying the plan's balance ledger must show
        a non-negative balance at every group sync point."""
        graph, assignment, lifetimes, profile = planned
        plan = plan_offload(graph, assignment, lifetimes, profile,
                            P100_NVLINK, grouped_sync=True)
        starts = {}
        for transfer in plan.transfers.values():
            starts.setdefault(transfer.offload_start, []).append(transfer)
        balance = 0.0
        bandwidth = P100_NVLINK.nvlink_bandwidth
        sync_points = sorted(set(t.offload_sync
                                 for t in plan.transfers.values()))
        forward = graph.forward_ops()
        for index, op in enumerate(forward):
            for transfer in starts.get(index, ()):  # losses
                balance -= transfer.size
            balance += profile[op.id].seconds * bandwidth
            if index in sync_points and index != len(forward) - 1:
                assert balance >= 0.0
                balance = 0.0

    def test_fifo_mode_frees_earlier_than_grouped(self, planned):
        graph, assignment, lifetimes, profile = planned
        fifo = plan_offload(graph, assignment, lifetimes, profile,
                            P100_NVLINK, grouped_sync=False)
        grouped = plan_offload(graph, assignment, lifetimes, profile,
                               P100_NVLINK, grouped_sync=True)
        common = set(fifo.transfers) & set(grouped.transfers)
        assert common
        assert sum(fifo.transfers[t].offload_sync for t in common) <= \
            sum(grouped.transfers[t].offload_sync for t in common)

    def test_invalid_fraction(self, planned):
        graph, assignment, lifetimes, profile = planned
        with pytest.raises(ValueError):
            plan_offload(graph, assignment, lifetimes, profile,
                         P100_NVLINK, fraction_cap=1.5)

    def test_invalid_horizon(self, planned):
        graph, assignment, lifetimes, profile = planned
        with pytest.raises(ValueError):
            plan_offload(graph, assignment, lifetimes, profile,
                         P100_NVLINK, sync_horizon=0)


class TestPrefetch:
    @pytest.fixture()
    def full_plan(self, planned):
        graph, assignment, lifetimes, profile = planned
        plan = plan_offload(graph, assignment, lifetimes, profile,
                            P100_NVLINK)
        return plan_prefetch(graph, assignment, lifetimes, profile,
                             P100_NVLINK, plan)

    def test_every_offload_gets_prefetch(self, planned, full_plan):
        for transfer in full_plan.transfers.values():
            assert transfer.prefetch_start is not None
            assert transfer.prefetch_sync is not None

    def test_prefetch_completes_before_use(self, planned, full_plan):
        graph, assignment, lifetimes, _ = planned
        for tso_id, transfer in full_plan.transfers.items():
            first_use = min(
                lifetimes[t].first_backward_use
                for t in assignment.tensors_of(tso_id)
                if lifetimes[t].first_backward_use is not None
            )
            assert transfer.prefetch_sync == first_use
            assert transfer.prefetch_start <= transfer.prefetch_sync

    def test_prefetch_after_offload_sync(self, planned, full_plan):
        for transfer in full_plan.transfers.values():
            assert transfer.prefetch_start > transfer.offload_sync

    def test_prefetch_in_backward_phase(self, planned, full_plan):
        graph, _, lifetimes, _ = planned
        boundary = next(iter(lifetimes.values())).boundary
        for transfer in full_plan.transfers.values():
            assert transfer.prefetch_start > boundary

    def test_grouped_prefetch_mode(self, planned):
        graph, assignment, lifetimes, profile = planned
        plan = plan_offload(graph, assignment, lifetimes, profile,
                            P100_NVLINK, grouped_sync=True)
        plan = plan_prefetch(graph, assignment, lifetimes, profile,
                             P100_NVLINK, plan, grouped_sync=True)
        for transfer in plan.transfers.values():
            assert transfer.prefetch_start is not None
            assert transfer.prefetch_start <= transfer.prefetch_sync


class TestLayerwise:
    def test_eager_sync_same_op(self, planned):
        graph, assignment, lifetimes, _ = planned
        plan = plan_layerwise(graph, assignment, lifetimes)
        for transfer in plan.transfers.values():
            assert transfer.offload_sync == transfer.offload_start

    def test_prefetch_one_op_ahead(self, planned):
        graph, _, lifetimes, _ = planned
        assignment = assign_storage(graph)
        plan = plan_layerwise(graph, assignment, lifetimes)
        for transfer in plan.transfers.values():
            assert transfer.prefetch_sync - transfer.prefetch_start <= 1

    def test_fraction_cap(self, planned):
        graph, assignment, lifetimes, _ = planned
        plan = plan_layerwise(graph, assignment, lifetimes, fraction_cap=0.3)
        assert plan.offloaded_bytes <= 0.3 * plan.candidate_bytes + 1

    def test_conv_only_filter(self, planned):
        graph, assignment, lifetimes, _ = planned
        everything = plan_layerwise(graph, assignment, lifetimes)
        conv_only = plan_layerwise(graph, assignment, lifetimes,
                                   conv_only=True)
        assert set(conv_only.transfers) <= set(everything.transfers)
        for tso_id in conv_only.transfers:
            consumers = {
                graph.op_by_id(c).op_type
                for t in assignment.tensors_of(tso_id)
                for c in graph.tensor(t).consumers
                if graph.op_by_id(c).phase == "forward"
            }
            assert "conv2d" in consumers

    def test_invalid_fraction(self, planned):
        graph, assignment, lifetimes, _ = planned
        with pytest.raises(ValueError):
            plan_layerwise(graph, assignment, lifetimes, fraction_cap=-0.1)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(fraction=st.floats(0.0, 1.0), horizon=st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_plan_invariants_property(planned_module_scope, fraction, horizon):
    """Any (fraction, horizon) combination yields a structurally valid plan
    whose replay passes the simulator's safety checks."""
    graph, assignment, lifetimes, profile = planned_module_scope
    plan = plan_offload(graph, assignment, lifetimes, profile,
                        P100_NVLINK, fraction_cap=fraction,
                        sync_horizon=horizon)
    plan = plan_prefetch(graph, assignment, lifetimes, profile,
                         P100_NVLINK, plan)
    boundary = next(iter(lifetimes.values())).boundary
    assert plan.offloaded_bytes <= fraction * plan.candidate_bytes + 1
    for transfer in plan.transfers.values():
        assert 0 <= transfer.offload_start <= transfer.offload_sync <= boundary
        assert boundary < transfer.prefetch_start <= transfer.prefetch_sync


@pytest.fixture(scope="module")
def planned_module_scope():
    graph = build_training_graph(small_vgg(rng=np.random.default_rng(0)), 16)
    assignment = assign_storage(graph)
    lifetimes = compute_lifetimes(graph)
    return graph, assignment, lifetimes, CostModel().profile(graph)
