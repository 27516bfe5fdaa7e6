"""End-to-end integration tests across the whole stack.

These are the "does the paper's pipeline hold together" checks: split
models train numerically; the same split models plan + simulate safely;
stochastic training transfers to the unsplit network; the full five-step
HMMS flow is consistent with the simulator's safety checker.
"""

import numpy as np
import pytest

from repro.core import to_split_cnn
from repro.data import ShapesDataset
from repro.experiments.training import evaluate, train_classifier
from repro.graph import build_training_graph
from repro.hmms import HMMSPlanner, verify_plan
from repro.models import small_resnet, small_vgg
from repro.profile import P100_NVLINK
from repro.sim import GPUSimulator


@pytest.fixture(scope="module")
def tiny_data():
    train = ShapesDataset(num_samples=96, image_size=16, num_classes=3,
                          seed=2, noise=0.1)
    test = ShapesDataset(num_samples=48, image_size=16, num_classes=3,
                         seed=77, noise=0.1)
    return train, test


class TestSplitTraining:
    def test_split_model_trains(self, tiny_data):
        train, test = tiny_data
        base = small_resnet(num_classes=3, input_size=16, widths=(8, 16),
                            rng=np.random.default_rng(0))
        split = to_split_cnn(base, depth=0.7, num_splits=(2, 2))
        result = train_classifier(split, train, test, epochs=4,
                                  batch_size=16, lr=0.05, seed=0)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_stochastic_training_transfers_to_unsplit(self, tiny_data):
        """Train SSCNN, then evaluate the ORIGINAL unsplit model: weights
        are shared, so the unsplit network must perform comparably —
        the §3.3 deployment story."""
        train, test = tiny_data
        base = small_resnet(num_classes=3, input_size=16, widths=(8, 16),
                            rng=np.random.default_rng(0))
        split = to_split_cnn(base, depth=0.7, num_splits=(2, 2),
                             stochastic=True, seed=5)
        train_classifier(split, train, test, epochs=4, batch_size=16,
                         lr=0.05, seed=0)
        unsplit_error = evaluate(base, test, batch_size=16)
        split_eval_error = evaluate(split, test, batch_size=16)
        # SSCNN evaluates unsplit by default -> identical numbers.
        assert unsplit_error == pytest.approx(split_eval_error)
        assert unsplit_error < 0.55  # far better than the 0.67 chance level

    def test_split_does_not_change_parameter_count(self):
        base = small_vgg(rng=np.random.default_rng(0))
        split = to_split_cnn(base, depth=0.5, num_splits=(2, 2))
        assert split.num_parameters() == base.num_parameters()


class TestFullPipeline:
    @pytest.mark.parametrize("scheduler", ["none", "layerwise", "hmms"])
    def test_plan_and_simulate_split_model(self, scheduler):
        model = to_split_cnn(small_vgg(rng=np.random.default_rng(0)),
                             depth=0.75, num_splits=(2, 2))
        graph = build_training_graph(model, 16)
        plan = HMMSPlanner(scheduler=scheduler).plan(graph)
        result = GPUSimulator().run(plan)   # raises on any safety violation
        assert result.total_time > 0

    def test_hmms_plans_are_stall_light(self):
        """HMMS's whole point: its syncs are planned post-drain, so stalls
        stay a tiny fraction of the makespan even at full offload."""
        model = small_vgg(rng=np.random.default_rng(0))
        graph = build_training_graph(model, 64)
        plan = HMMSPlanner(scheduler="hmms").plan(graph)
        result = GPUSimulator().run(plan)
        assert result.stall_time < 0.1 * result.total_time

    def test_scheduler_ordering_matches_paper(self):
        """baseline >= hmms >> layerwise in throughput (Figure 8's shape)."""
        model = small_vgg(rng=np.random.default_rng(0))
        graph = build_training_graph(model, 64)
        times = {}
        for scheduler in ("none", "layerwise", "hmms"):
            plan = HMMSPlanner(scheduler=scheduler).plan(graph)
            times[scheduler] = GPUSimulator().run(plan).total_time
        assert times["none"] <= times["hmms"] <= times["layerwise"]

    def test_simulated_peak_respects_capacity_at_planned_batch(self):
        model = to_split_cnn(small_vgg(rng=np.random.default_rng(0)),
                             depth=0.75, num_splits=(2, 2))
        graph = build_training_graph(model, 32)
        plan = HMMSPlanner(scheduler="hmms").plan(graph)
        device = P100_NVLINK.with_(
            memory_capacity=plan.device_peak + (1 << 20))
        assert verify_plan(plan, capacity=device.memory_capacity).ok
        result = GPUSimulator(device).run(plan)
        assert result.peak_live_bytes + plan.device_param_bytes \
            <= device.memory_capacity

    def test_grouped_mode_end_to_end(self):
        """Paper-literal Algorithm 1 (grouped syncs) also replays safely."""
        from repro.graph import compute_lifetimes
        from repro.hmms import assign_storage, plan_offload, plan_prefetch
        from repro.hmms.planner import HMMSPlanner as Planner
        from repro.profile import CostModel

        model = small_vgg(rng=np.random.default_rng(0))
        graph = build_training_graph(model, 32)

        class GroupedPlanner(Planner):
            def _plan_transfers(self, graph, assignment, lifetimes, fraction,
                                profile):
                plan = plan_offload(graph, assignment, lifetimes,
                                    profile, self.device, fraction,
                                    grouped_sync=True)
                return plan_prefetch(graph, assignment, lifetimes,
                                     profile, self.device, plan,
                                     grouped_sync=True)

        plan = GroupedPlanner(scheduler="hmms").plan(graph)
        result = GPUSimulator().run(plan)
        assert result.total_time > 0
