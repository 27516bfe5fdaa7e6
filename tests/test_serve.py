"""Tests for the serving runtime: queue, batcher, engine, server, bench."""

import hashlib

import numpy as np
import pytest

from repro.core import to_split_cnn
from repro.graph import (
    GraphExecutor, build_inference_graph, build_training_graph,
)
from repro.hmms import (
    POOL_DEVICE_PARAM, HMMSPlanner, PlanCache, verify_plan,
)
from repro.models import build_model, small_resnet, small_vgg
from repro.nn import init
from repro.serve import (
    AdmissionQueue, BenchConfig, DenseRequest, DynamicBatcher,
    OversizeRequestError, Request, Server, ServingEngine, ServingMetrics,
    percentile, poisson_arrivals, run_bench,
)


def make_engine(**kwargs) -> ServingEngine:
    """Small engine: CIFAR-scale model, capacity search capped at 8."""
    kwargs.setdefault("batch_cap", 8)
    model = small_resnet(rng=np.random.default_rng(0))
    return ServingEngine(model, **kwargs)


# ----------------------------------------------------------------------
# Inference graphs (builder + planner)
# ----------------------------------------------------------------------
class TestInferenceGraph:
    def test_stops_at_logits_without_backward(self):
        with init.fast_init():
            model = build_model("small_vgg")
        graph = build_inference_graph(model, 4)
        assert not graph.backward_ops()
        assert all(op.phase == "forward" for op in graph.ops)
        assert not any(op.op_type == "cross_entropy" for op in graph.ops)
        names = {t.name for t in graph.tensors.values()}
        assert "logits" in names and "loss" not in names

    def test_marks_nothing_saved(self):
        with init.fast_init():
            model = build_model("small_vgg")
        graph = build_inference_graph(model, 4)
        assert not graph.saved_tensors()
        training = build_training_graph(model, 4)
        assert training.saved_tensors()   # the training twin does save

    def test_dropout_vanishes(self):
        with init.fast_init():
            model = build_model("vgg11", dataset="imagenet",
                                num_classes=1000)
        inference = build_inference_graph(model, 2)
        assert not any(op.op_type == "dropout" for op in inference.ops)
        training = build_training_graph(model, 2)
        assert any(op.op_type == "dropout" for op in training.ops)

    def test_inference_peak_below_training_peak(self):
        with init.fast_init():
            model = build_model("small_vgg")
        planner = HMMSPlanner(scheduler="none")
        inference = planner.plan(build_inference_graph(model, 8))
        training = planner.plan(build_training_graph(model, 8))
        assert inference.device_peak < training.device_peak

    @pytest.mark.parametrize("name", ["alexnet", "vgg11", "resnet18"])
    @pytest.mark.parametrize("split", [False, True])
    def test_zoo_inference_plans_verifier_clean(self, name, split):
        with init.fast_init():
            model = build_model(name, dataset="imagenet", num_classes=1000)
            if split:
                model = to_split_cnn(model, depth=0.5, num_splits=(2, 2))
        graph = build_inference_graph(model, 4)
        planner = HMMSPlanner(scheduler="hmms")
        plan = planner.plan(graph)
        # Inference planning short-circuits offloading: nothing outlives
        # the forward pass, so there is nothing to hide a transfer behind.
        assert plan.offload_fraction_used == 0.0
        assert not plan.offload_plan.transfers
        report = verify_plan(plan, device=planner.device,
                             cost_model=planner.cost_model)
        assert report.ok, report.render()
        # No gradient/error TSOs: the device pools hold only forward state.
        for tso in plan.assignment.tsos.values():
            kinds = {graph.tensor(t).kind for t in tso.tensor_ids}
            assert not any("gradient" in kind for kind in kinds)
            if tso.pool == POOL_DEVICE_PARAM:
                assert kinds == {"parameter"}


# ----------------------------------------------------------------------
# Queue + batcher edge cases
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_rejects_when_full(self):
        queue = AdmissionQueue(max_depth=2, max_request_size=8)
        assert queue.offer(Request(id=0, arrival_time=0.0))
        assert queue.offer(Request(id=1, arrival_time=0.1))
        assert not queue.offer(Request(id=2, arrival_time=0.2))
        assert len(queue) == 2

    def test_oversize_request_raises_with_clear_error(self):
        queue = AdmissionQueue(max_depth=4, max_request_size=8)
        with pytest.raises(OversizeRequestError, match="16 images"):
            queue.offer(Request(id=0, arrival_time=0.0, size=16))

    def test_queue_full_counted_by_server(self):
        engine = make_engine()
        server = Server(engine, queue_depth=1)
        assert server.submit(Request(id=0, arrival_time=0.0))
        assert not server.submit(Request(id=1, arrival_time=0.0))
        assert server.metrics.rejected_queue_full == 1
        assert server.metrics.arrived == 2 and server.metrics.admitted == 1


class TestDynamicBatcher:
    def test_flush_timer_vs_full_batch(self):
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        queue.offer(Request(id=0, arrival_time=1.0))
        assert batcher.ready_at(queue) == pytest.approx(1.01)
        for i in range(1, 4):
            queue.offer(Request(id=i, arrival_time=1.0 + i * 1e-3))
        # Full batch: ready the moment the fourth request was admitted.
        assert batcher.ready_at(queue) == pytest.approx(1.003)

    def test_batch_respects_image_cap(self):
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        for i in range(3):
            queue.offer(Request(id=i, arrival_time=0.0, size=2))
        batch = batcher.form_batch(queue, 0.01, ServingMetrics())
        assert [r.id for r in batch] == [0, 1]
        assert len(queue) == 1            # third request waits

    def test_deadline_expiry_while_queued(self):
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        metrics = ServingMetrics()
        queue.offer(Request(id=0, arrival_time=0.0, deadline=0.004))
        queue.offer(Request(id=1, arrival_time=0.001))
        batch = batcher.form_batch(queue, 0.01, metrics)
        assert [r.id for r in batch] == [1]
        assert metrics.expired == 1

    def test_empty_flush_on_timeout(self):
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        metrics = ServingMetrics()
        queue.offer(Request(id=0, arrival_time=0.0, deadline=0.002))
        batch = batcher.form_batch(queue, 0.01, metrics)
        assert batch == [] and metrics.expired == 1 and not len(queue)

    def test_server_counts_empty_flushes(self):
        engine = make_engine()
        server = Server(engine, flush_timeout=0.01)
        arrivals = [Request(id=0, arrival_time=0.0, deadline=0.002)]
        metrics = server.run(arrivals)
        assert metrics.empty_flushes == 1
        assert metrics.completed_requests == 0
        assert engine.executed_batches == 0


# ----------------------------------------------------------------------
# Engine: discovery, bucketing, cache, numeric execution
# ----------------------------------------------------------------------
class TestServingEngine:
    def test_max_batch_discovered_on_dyadic_grid(self):
        engine = make_engine()
        assert engine.max_batch == 8      # capped by batch_cap
        assert engine.bucket(3) == 4 and engine.bucket(4) == 4
        with pytest.raises(ValueError, match="exceeds the discovered"):
            engine.bucket(9)

    def test_split_model_discovers_larger_batch(self):
        # Splitting lowers forward peaks, so against the same 16 GiB
        # device the split model's discovered serving capacity beats the
        # unsplit baseline — Figure 10's gain on the serving side.
        base = ServingEngine.from_zoo("vgg11")
        split = ServingEngine.from_zoo("vgg11", split=4)
        assert split.max_batch > base.max_batch

    def test_every_executed_plan_is_verified(self):
        engine = make_engine()
        engine.execute([Request(id=0, arrival_time=0.0, size=3)])
        assert engine.replans == 1
        assert engine.plans_verified == engine.replans

    def test_steady_state_hits_cache_zero_replans_after_warmup(self):
        engine = make_engine()
        config = BenchConfig(rps=200, duration=1.0, flush_timeout=0.002)
        run_bench(engine, config)
        warm_plans = engine.replans
        assert warm_plans > 0
        metrics = run_bench(engine, BenchConfig(rps=200, duration=1.0,
                                                flush_timeout=0.002, seed=1))
        assert engine.replans == warm_plans   # zero replans after warmup
        assert engine.cache.hits > 0
        assert metrics.completed_requests > 0

    def test_numeric_execution_returns_logits(self):
        engine = make_engine(numeric=True)
        requests = [Request(id=0, arrival_time=0.0, size=2),
                    Request(id=1, arrival_time=0.0, size=1)]
        latency = engine.execute(requests)
        assert latency > 0
        assert engine.logits_for(requests[0]).shape == (2, 10)
        assert engine.logits_for(requests[1]).shape == (1, 10)
        assert np.isfinite(engine.logits_for(requests[0])).all()

    def test_latency_grows_with_bucket(self):
        engine = make_engine()
        small = engine.entry_for(1).latency
        large = engine.entry_for(8).latency
        assert large > small


class TestPlanCache:
    def test_hit_miss_accounting(self):
        cache = PlanCache(capacity=4)
        assert cache.get_or_build("a", lambda: 1) == 1
        assert cache.get_or_build("a", lambda: 2) == 1
        assert cache.snapshot() == (1, 1, 1)

    def test_fifo_eviction(self):
        cache = PlanCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.get_or_build(key, lambda k=key: k)
        assert "a" not in cache and "b" in cache and "c" in cache
        assert cache.evictions == 1

    def test_rejects_none_values(self):
        cache = PlanCache()
        with pytest.raises(ValueError):
            cache.get_or_build("a", lambda: None)

    def test_a_build_that_raised_is_not_a_miss(self):
        """Regression: ``misses`` was bumped before ``build()`` ran, so a
        raising builder broke ``misses == len(cache) + evictions`` (and
        every owner's ``plans_verified == cache.misses``) for good."""
        cache = PlanCache()

        def failing():
            raise ValueError("window does not fit")

        for key in ("a", "b"):
            with pytest.raises(ValueError, match="does not fit"):
                cache.get_or_build(key, failing)
        with pytest.raises(ValueError):
            cache.get_or_build("c", lambda: None)
        assert (cache.hits, cache.misses, cache.evictions, len(cache)) \
            == (0, 0, 0, 0)
        assert cache.get_or_build("a", lambda: 1) == 1
        assert cache.snapshot() == (0, 1, 1)
        assert cache.misses == len(cache) + cache.evictions


# ----------------------------------------------------------------------
# Bench loop
# ----------------------------------------------------------------------
class TestBench:
    def test_poisson_trace_is_deterministic(self):
        config = BenchConfig(rps=100, duration=2.0, seed=7)
        first = poisson_arrivals(config)
        second = poisson_arrivals(config)
        assert [r.arrival_time for r in first] \
            == [r.arrival_time for r in second]
        assert all(r.arrival_time < config.duration for r in first)

    def test_bench_is_deterministic(self):
        results = []
        for _ in range(2):
            engine = make_engine()
            metrics = run_bench(engine, BenchConfig(rps=300, duration=1.0))
            results.append((metrics.completed_requests, metrics.batches,
                            metrics.latency.p(99)))
        assert results[0] == results[1]

    def test_overload_rejects_instead_of_queueing_forever(self):
        # Single-image batches cap service at ~1/latency req/s; offer far
        # more and the bounded queue must start rejecting.
        engine = make_engine()
        config = BenchConfig(rps=50_000, duration=0.1, queue_depth=16,
                             flush_timeout=0.0, max_batch_images=1)
        metrics = run_bench(engine, config)
        assert metrics.rejected_queue_full > 0
        assert metrics.completed_requests > 0
        # Reject-on-full keeps the queue (and so queueing delay) bounded.
        assert metrics.queue_depth_p95() <= 16

    def test_deadlines_drop_stale_requests(self):
        engine = make_engine()
        config = BenchConfig(rps=5000, duration=0.5, deadline=0.002,
                             flush_timeout=0.005)
        metrics = run_bench(engine, config)
        assert metrics.expired > 0
        completed = metrics.completed_requests
        assert completed + metrics.expired \
            + metrics.rejected_queue_full == metrics.arrived


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 100) == 100.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_histogram_buckets(self):
        from repro.serve import LatencyHistogram
        hist = LatencyHistogram()
        hist.record(0.0005)     # <= 1 ms
        hist.record(0.003)      # <= 4 ms
        hist.record(5.0)        # > 1024 ms
        assert hist.buckets[1] == 1
        assert hist.buckets[4] == 1
        assert hist.buckets[None] == 1
        assert "> 1024 ms" in hist.render()


# ----------------------------------------------------------------------
# Dispatch timestamps, deadline boundary, request accounting
# ----------------------------------------------------------------------
class TestFullBatchCrossingTime:
    def test_admissions_past_threshold_do_not_drift_ready_at(self):
        # Four size-1 requests fill the batch at 1.003; two stragglers
        # admitted much later must not move the dispatch timestamp.
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        for i in range(4):
            queue.offer(Request(id=i, arrival_time=1.0 + i * 1e-3))
        assert batcher.ready_at(queue) == pytest.approx(1.003)
        queue.offer(Request(id=4, arrival_time=1.5))
        queue.offer(Request(id=5, arrival_time=2.0))
        assert batcher.ready_at(queue) == pytest.approx(1.003)

    def test_crossing_is_the_request_that_completes_the_batch(self):
        # Sizes 3 + 2 cross a 4-image threshold at the second admission,
        # even though a third request arrives afterwards.
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        queue.offer(Request(id=0, arrival_time=0.1, size=3))
        queue.offer(Request(id=1, arrival_time=0.5, size=2))
        queue.offer(Request(id=2, arrival_time=0.9, size=1))
        assert batcher.ready_at(queue) == pytest.approx(0.5)

    def test_partial_batch_still_uses_flush_timer(self):
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        queue.offer(Request(id=0, arrival_time=1.0))
        queue.offer(Request(id=1, arrival_time=1.2))
        assert batcher.ready_at(queue) == pytest.approx(1.01)


class TestDeadlineBoundary:
    """Pinned semantics: the deadline instant itself is still servable
    (``expired_at`` is strictly greater-than)."""

    def test_expired_at_is_strict(self):
        request = Request(id=0, arrival_time=0.0, deadline=5.0)
        assert not request.expired_at(4.999)
        assert not request.expired_at(5.0)
        assert request.expired_at(5.0 + 1e-9)

    def test_no_deadline_never_expires(self):
        request = Request(id=0, arrival_time=0.0)
        assert not request.expired_at(float("inf"))

    def test_dispatch_exactly_at_deadline_is_served(self):
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        metrics = ServingMetrics()
        queue.offer(Request(id=0, arrival_time=0.0, deadline=0.01))
        batch = batcher.form_batch(queue, 0.01, metrics)
        assert [r.id for r in batch] == [0]
        assert metrics.expired == 0


class TestRequestAccounting:
    """arrived == rejected_queue_full + expired + completed + still_queued
    after every bench run — enforced inside run_bench via
    ServingMetrics.check_accounting."""

    def test_check_accounting_raises_on_imbalance(self):
        metrics = ServingMetrics()
        metrics.arrived = 3
        metrics.completed_requests = 1
        with pytest.raises(AssertionError, match="accounting imbalance"):
            metrics.check_accounting()
        metrics.check_accounting(still_queued=2)   # balanced: no raise

    @pytest.mark.parametrize("config", [
        BenchConfig(rps=300, duration=1.0),
        BenchConfig(rps=50_000, duration=0.1, queue_depth=16,
                    flush_timeout=0.0, max_batch_images=1),
        BenchConfig(rps=5000, duration=0.5, deadline=0.002,
                    flush_timeout=0.005),
    ])
    def test_invariant_holds_across_bench_regimes(self, config):
        # run_bench calls check_accounting itself; re-check explicitly so
        # the invariant is asserted even if the driver changes.
        metrics = run_bench(make_engine(), config)
        metrics.check_accounting(still_queued=0)
        assert metrics.arrived == (metrics.rejected_queue_full
                                   + metrics.expired
                                   + metrics.completed_requests)


class TestExpiredAwareReadyAt:
    """Regression: requests already expired at ``now`` must count toward
    neither the full-batch threshold nor the flush-timer anchor."""

    def test_expired_requests_do_not_complete_a_batch(self):
        # Three of four queued requests are corpses at now=1.0; the one
        # survivor cannot fill a 4-image batch, so the crossing must be
        # None and ready_at falls back to the survivor's flush timer.
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        for i in range(3):
            queue.offer(Request(id=i, arrival_time=0.1 * i, deadline=0.5))
        queue.offer(Request(id=3, arrival_time=0.9))
        now = 1.0
        assert batcher._full_batch_crossing(queue, now) is None
        assert batcher.ready_at(queue, now) == pytest.approx(0.91)

    def test_expired_oldest_does_not_anchor_flush_timer(self):
        # Pre-fix the expired head anchored the timer at 0.0 + 0.01 —
        # an instant that can only produce an empty flush.
        queue = AdmissionQueue(max_depth=16, max_request_size=8)
        batcher = DynamicBatcher(max_batch_images=8, flush_timeout=0.01)
        queue.offer(Request(id=0, arrival_time=0.0, deadline=0.05))
        queue.offer(Request(id=1, arrival_time=0.2))
        assert batcher.ready_at(queue, now=0.1) == pytest.approx(0.21)

    def test_all_expired_returns_now_for_immediate_purge(self):
        queue = AdmissionQueue(max_depth=16, max_request_size=8)
        batcher = DynamicBatcher(max_batch_images=8, flush_timeout=0.01)
        queue.offer(Request(id=0, arrival_time=0.0, deadline=0.001))
        queue.offer(Request(id=1, arrival_time=0.0, deadline=0.002))
        now = 1.0
        assert batcher.ready_at(queue, now) == now
        metrics = ServingMetrics()
        assert batcher.form_batch(queue, now, metrics) == []
        assert metrics.expired == 2 and not len(queue)

    def test_crossing_skips_corpses_but_counts_survivors(self):
        # Sizes 2 (expired) + 2 + 2: the *third* request completes the
        # 4-image batch once the corpse is skipped.
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        queue.offer(Request(id=0, arrival_time=0.0, size=2, deadline=0.1))
        queue.offer(Request(id=1, arrival_time=0.3, size=2))
        queue.offer(Request(id=2, arrival_time=0.5, size=2))
        assert batcher.ready_at(queue, now=0.6) == pytest.approx(0.5)

    def test_default_now_preserves_no_deadline_semantics(self):
        # Callers without a clock (the original single-tenant tests) get
        # the legacy behavior: nothing is treated as expired.
        queue = AdmissionQueue(max_depth=16, max_request_size=4)
        batcher = DynamicBatcher(max_batch_images=4, flush_timeout=0.01)
        for i in range(4):
            queue.offer(Request(id=i, arrival_time=float(i), deadline=0.5))
        assert batcher.ready_at(queue) == pytest.approx(3.0)


class TestDiscoveryServesTheSameGraph:
    """Regression: the Figure-10 capacity search must plan the graph the
    engine will actually execute.  With ``compile_plans`` the served
    graph is compiled (BN folded, chains fused); pre-fix discovery
    planned the uncompiled twin, so the searched capacity belonged to a
    different graph."""

    def _spy_plans(self, engine):
        seen = []
        original = engine.planner.plan

        def spying(graph):
            seen.append(graph)
            return original(graph)

        engine.planner.plan = spying
        return seen

    def test_discovery_plans_the_compiled_graph(self):
        engine = make_engine(compile_plans=True)
        seen = self._spy_plans(engine)
        _ = engine.max_batch
        assert seen                        # discovery planned something
        served_ops = sorted(op.op_type
                            for op in engine.entry_for(1).graph.ops)
        discovery_ops = sorted(op.op_type for op in seen[0].ops)
        assert discovery_ops == served_ops
        # The compiled graph is actually different from the raw builder
        # output — otherwise this test couldn't catch the regression.
        raw_ops = sorted(
            op.op_type
            for op in build_inference_graph(engine.model, 1).ops)
        assert discovery_ops != raw_ops

    def test_memory_budget_bounds_discovery(self):
        # A fleet hands each engine a slice of the device; the search
        # must respect the slice, not the whole card.
        whole = make_engine()
        budget = whole.entry_for(whole.max_batch).plan.device_peak - 1
        capped = make_engine(memory_budget=budget)
        assert capped.max_batch < whole.max_batch

    def test_impossible_budget_raises(self):
        with pytest.raises(ValueError, match="memory budget"):
            _ = make_engine(memory_budget=1).max_batch


class TestNumericLogitsOwnership:
    """Regression: ``_run_numeric`` must copy each request's logits
    slice.  A view would pin the whole padded bucket-sized buffer (and
    through it the executor's value table) alive until the next batch."""

    def test_logits_own_their_memory(self):
        engine = make_engine(numeric=True)
        requests = [Request(id=0, arrival_time=0.0, size=2),
                    Request(id=1, arrival_time=0.0, size=1)]
        engine.execute(requests)
        for request in requests:
            assert engine.logits_for(request).base is None

    def test_logits_survive_release_of_intermediates(self):
        engine = make_engine(numeric=True)
        request = Request(id=0, arrival_time=0.0, size=3)
        engine.execute([request])
        before = engine.logits_for(request).copy()
        # execute() already released intermediates; the retained logits
        # must be stable, finite data — not a view of freed storage.
        after = engine.logits_for(request)
        assert np.array_equal(before, after)
        assert np.isfinite(after).all()


class TestQueuePeekAndPendingImages:
    """Regression: ``peek`` raises on empty (no Optional hole) and
    ``pending_images`` is an O(1) counter that tracks offers and pops."""

    def test_peek_empty_raises(self):
        queue = AdmissionQueue(max_depth=4, max_request_size=8)
        with pytest.raises(IndexError, match="empty AdmissionQueue"):
            queue.peek()

    def test_peek_returns_head_without_removal(self):
        queue = AdmissionQueue(max_depth=4, max_request_size=8)
        queue.offer(Request(id=0, arrival_time=0.0))
        queue.offer(Request(id=1, arrival_time=0.1))
        assert queue.peek().id == 0
        assert len(queue) == 2            # unchanged

    def test_pending_images_tracks_mixed_sizes(self):
        queue = AdmissionQueue(max_depth=16, max_request_size=8)
        sizes = [3, 1, 5, 2, 8, 1]
        for i, size in enumerate(sizes):
            queue.offer(Request(id=i, arrival_time=0.0, size=size))
            assert queue.pending_images == sum(r.size for r in queue)
        while len(queue):
            queue.pop()
            assert queue.pending_images == sum(r.size for r in queue)
        assert queue.pending_images == 0

    def test_rejected_offers_do_not_count(self):
        queue = AdmissionQueue(max_depth=1, max_request_size=8)
        queue.offer(Request(id=0, arrival_time=0.0, size=2))
        assert not queue.offer(Request(id=1, arrival_time=0.0, size=5))
        assert queue.pending_images == 2


# ----------------------------------------------------------------------
# Percentile boundary semantics (p=0 / p=100 regression pins)
# ----------------------------------------------------------------------
class TestPercentileBoundaries:
    """p=0 must return the minimum: ``ceil(0) == 0`` used to index
    ``ordered[-1]`` — the *maximum* — via negative indexing."""

    def test_p0_returns_minimum(self):
        assert percentile([5.0, 1.0, 9.0], 0) == 1.0

    def test_p100_returns_maximum(self):
        assert percentile([5.0, 1.0, 9.0], 100) == 9.0

    def test_single_sample_any_p(self):
        for p in (0, 1, 50, 99, 100):
            assert percentile([7.0], p) == 7.0

    def test_nearest_rank_returns_actual_samples(self):
        samples = [0.4, 0.1, 0.3, 0.2]
        for p in (0, 25, 50, 75, 100):
            assert percentile(samples, p) in samples

    def test_queue_depth_p95_is_exact_sample(self):
        metrics = ServingMetrics()
        metrics.queue_depths = list(range(1, 21))
        depth = metrics.queue_depth_p95()
        # Nearest-rank over 20 integer samples: rank ceil(0.95*20)=19.
        assert depth == 19
        assert metrics.queue_depth_p95() == percentile(
            metrics.queue_depths, 95)

    def test_queue_depth_p95_empty_is_none(self):
        assert ServingMetrics().queue_depth_p95() is None


# ----------------------------------------------------------------------
# Dense requests: derived size, admission, dispatch-alone batching
# ----------------------------------------------------------------------
class TestDenseRequest:
    def test_size_is_the_patch_total(self):
        request = DenseRequest(id=0, arrival_time=0.0,
                               image_hw=(256, 256), grid=(4, 4))
        assert request.size == 16
        assert request.patches == 16

    def test_constructor_size_is_overridden(self):
        # Counting a dense request as 1 is the accounting bug; the
        # derived size wins over whatever the caller passes.
        request = DenseRequest(id=0, arrival_time=0.0, size=1,
                               image_hw=(64, 64), grid=(2, 3))
        assert request.size == 6

    def test_validation(self):
        with pytest.raises(ValueError, match="image_hw"):
            DenseRequest(id=0, arrival_time=0.0, image_hw=(0, 64))
        with pytest.raises(ValueError, match="grid"):
            DenseRequest(id=0, arrival_time=0.0, image_hw=(64, 64),
                         grid=(0, 2))
        with pytest.raises(ValueError, match="overlap"):
            DenseRequest(id=0, arrival_time=0.0, image_hw=(64, 64),
                         overlap=-1)


class TestDenseAdmission:
    def test_dense_exempt_from_oversize_but_weighed(self):
        queue = AdmissionQueue(max_depth=8, max_request_size=4)
        with pytest.raises(OversizeRequestError):
            queue.offer(Request(id=0, arrival_time=0.0, size=16))
        dense = DenseRequest(id=1, arrival_time=0.0,
                             image_hw=(256, 256), grid=(4, 4))
        assert queue.offer(dense)         # streamed, never batched whole
        assert queue.pending_images == 16

    def test_max_pending_images_bounds_dense_work(self):
        queue = AdmissionQueue(max_depth=8, max_request_size=4,
                               max_pending_images=20)
        dense = DenseRequest(id=0, arrival_time=0.0,
                             image_hw=(256, 256), grid=(4, 4))
        assert queue.offer(dense)
        assert not queue.offer(DenseRequest(
            id=1, arrival_time=0.0, image_hw=(256, 256), grid=(4, 4)))
        assert queue.offer(Request(id=2, arrival_time=0.0, size=4))
        assert not queue.offer(Request(id=3, arrival_time=0.0, size=1))
        queue.pop()                       # dense head leaves
        assert queue.offer(Request(id=4, arrival_time=0.0, size=4))

    def test_bound_validation(self):
        with pytest.raises(ValueError, match="max_pending_images"):
            AdmissionQueue(max_depth=4, max_request_size=4,
                           max_pending_images=0)


class TestDenseBatching:
    def test_dense_dispatches_alone_in_arrival_order(self):
        queue = AdmissionQueue(max_depth=16, max_request_size=8)
        batcher = DynamicBatcher(max_batch_images=8, flush_timeout=0.01)
        metrics = ServingMetrics()
        queue.offer(Request(id=0, arrival_time=0.0))
        queue.offer(Request(id=1, arrival_time=0.1))
        queue.offer(DenseRequest(id=2, arrival_time=0.2,
                                 image_hw=(64, 64), grid=(2, 2)))
        queue.offer(Request(id=3, arrival_time=0.3))
        first = batcher.form_batch(queue, 1.0, metrics)
        assert [r.id for r in first] == [0, 1]   # stops at the dense head
        second = batcher.form_batch(queue, 1.0, metrics)
        assert [r.id for r in second] == [2]     # dense alone
        third = batcher.form_batch(queue, 1.0, metrics)
        assert [r.id for r in third] == [3]

    def test_dense_head_is_its_own_crossing(self):
        queue = AdmissionQueue(max_depth=16, max_request_size=8)
        batcher = DynamicBatcher(max_batch_images=8, flush_timeout=0.5)
        queue.offer(DenseRequest(id=0, arrival_time=1.0,
                                 image_hw=(64, 64), grid=(2, 2)))
        # A dense head is a full batch by itself: ready at arrival, not
        # at the flush timer.
        assert batcher.ready_at(queue) == pytest.approx(1.0)


class TestMixedServing:
    """Satellite fuzz: random classification + dense traffic through the
    full Server loop, exact accounting at the end."""

    def make_dense_engine(self, **kwargs):
        kwargs.setdefault("batch_cap", 8)
        model = small_vgg(rng=np.random.default_rng(0))
        return ServingEngine(model, **kwargs)

    def test_dense_request_served_end_to_end(self):
        engine = self.make_dense_engine()
        server = Server(engine, flush_timeout=0.005)
        dense = DenseRequest(id=0, arrival_time=0.0,
                             image_hw=(64, 64), grid=(2, 2))
        metrics = server.run([dense])
        metrics.check_accounting()
        assert metrics.completed_requests == 1
        assert engine.executed_images == 4          # the patch total
        assert engine.plans_verified == engine.cache.misses

    def test_numeric_dense_output_matches_inferer(self):
        engine = self.make_dense_engine(numeric=True)
        dense = DenseRequest(id=0, arrival_time=0.0,
                             image_hw=(64, 64), grid=(2, 2))
        engine.execute([dense])
        output = engine.dense_output_for(dense)
        assert output.shape == (64, 8, 8)

    def test_dense_padding_counts_the_slots_that_ran(self):
        """5x5 grid, discovered patch batch 16: corners run at bucket 1,
        the 3-tile edges at 4 (one zero slot each), the 9-tile interior
        at 16 (seven) — not ``executions * patch_batch - patches``.  The
        tail is a tenth execution and neither an image nor a slot."""
        engine = self.make_dense_engine(numeric=True)
        dense = DenseRequest(id=0, arrival_time=0.0,
                             image_hw=(80, 80), grid=(5, 5))
        engine.execute([dense])
        inferer = engine.dense_inferer
        report = inferer.plan_dense((80, 80), (5, 5))
        assert report.patch_batch == 16 and report.executions == 9 + 1
        assert engine.executed_images == inferer.executed_patches == 25
        assert engine.padded_images == report.padded_patches \
            == inferer.padded_patches == 4 * 1 + 7

    def test_engine_rejects_dense_mixed_into_a_batch(self):
        engine = self.make_dense_engine()
        dense = DenseRequest(id=0, arrival_time=0.0,
                             image_hw=(64, 64), grid=(2, 2))
        with pytest.raises(ValueError, match="alone"):
            engine.execute([dense, Request(id=1, arrival_time=0.0)])

    def test_fuzz_mixed_traffic_accounting(self):
        rng = np.random.default_rng(7)
        engine = self.make_dense_engine()
        server = Server(engine, flush_timeout=0.004, queue_depth=6,
                        max_pending_images=24)
        arrivals, clock = [], 0.0
        for i in range(60):
            # ~17k requests/s: a 2x2 dense request costs four batch-1
            # runs of the two-conv head and one tail run (0.18 ms; 0.33
            # when the tiles ran the full body), and at 10k/s the queue
            # no longer filled.
            clock += float(rng.exponential(0.00006))
            if rng.random() < 0.25:
                hw = (32, 32) if rng.random() < 0.5 else (48, 48)
                arrivals.append(DenseRequest(
                    id=i, arrival_time=clock, image_hw=hw, grid=(2, 2)))
            else:
                arrivals.append(Request(
                    id=i, arrival_time=clock,
                    size=int(rng.integers(1, 5))))
        metrics = server.run(arrivals)
        metrics.check_accounting()        # nothing lost, nothing doubled
        assert metrics.arrived == 60
        assert metrics.completed_requests + metrics.rejected_queue_full \
            == 60
        assert metrics.completed_requests > 0
        assert metrics.rejected_queue_full > 0    # the bound really bit
        completed_images = sum(
            r.size for r in arrivals if r.completion_time is not None)
        assert engine.executed_images == completed_images
        assert engine.plans_verified == engine.cache.misses
        assert server.queue.pending_images == 0


# ----------------------------------------------------------------------
# Server is the one-tenant, flush-only fleet: golden digests
# ----------------------------------------------------------------------
def _golden_bench_cases():
    """(label, model, Server kwargs, arrivals) in the supported regime:
    no deadline, or ``flush_timeout <= deadline``."""
    shapes = {
        "light": dict(rps=500, duration=0.5),
        "medium": dict(rps=20_000, duration=0.03),
        "saturated": dict(rps=150_000, duration=0.008),
        "depth4": dict(rps=60_000, duration=0.01, queue_depth=4,
                       flush_timeout=0.0002),
        "size3": dict(rps=8_000, duration=0.05, request_size=3),
        "cap4": dict(rps=20_000, duration=0.02, max_batch_images=4),
        "deadline": dict(rps=150_000, duration=0.006, flush_timeout=0.001,
                         deadline=0.002),
    }
    for model in (small_resnet, small_vgg):
        for shape, fields in shapes.items():
            for seed in (0, 1):
                config = BenchConfig(seed=seed, **fields)
                server_kwargs = dict(
                    flush_timeout=config.flush_timeout,
                    queue_depth=config.queue_depth,
                    max_batch_images=config.max_batch_images)
                yield (f"{model.__name__}-{shape}-{seed}", model,
                       server_kwargs, poisson_arrivals(config))


def _golden_mixed_cases():
    """Dense + classification traffic bounded by ``max_pending_images``."""
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        arrivals, clock = [], 0.0
        for i in range(80):
            clock += float(rng.exponential(0.00006))
            if rng.random() < 0.25:
                hw = (32, 32) if rng.random() < 0.5 else (48, 48)
                arrivals.append(DenseRequest(
                    id=i, arrival_time=clock, image_hw=hw, grid=(2, 2)))
            else:
                arrivals.append(Request(id=i, arrival_time=clock,
                                        size=int(rng.integers(1, 5))))
        yield (f"mixed-{seed}", small_vgg,
               dict(flush_timeout=0.004, queue_depth=6,
                    max_pending_images=24), arrivals)


def _golden_digest(case) -> str:
    """blake2b over every request's dispatch/completion instants plus
    the server's and the engine's counters."""
    _, model, server_kwargs, arrivals = case
    engine = ServingEngine(model(rng=np.random.default_rng(0)), batch_cap=8)
    server = Server(engine, **server_kwargs)
    m = server.run(arrivals)
    m.check_accounting(still_queued=len(server.queue))
    digest = hashlib.blake2b(digest_size=16)
    for request in arrivals:
        digest.update(repr((request.dispatch_time,
                            request.completion_time)).encode())
    digest.update(repr((
        m.arrived, m.admitted, m.completed_requests, m.completed_images,
        m.rejected_queue_full, m.expired, m.batches, m.empty_flushes,
        sorted(m.batch_sizes.items()), m.latency.samples,
        m.queue_wait.samples, m.queue_depths,
        engine.executed_batches, engine.executed_images,
        engine.padded_images, engine.cache.hits, engine.cache.misses,
    )).encode())
    return digest.hexdigest()


#: Recorded from the parent commit's hand-rolled ``Server.run`` loop
#: (89916f9), before ``Server`` became a front for ``FleetScheduler``.
#: The two ``mixed-*`` traces were re-recorded when a 2x2 dense request
#: stopped running (and being priced as) four batch-64 graphs: dense
#: latency 0.63-0.86 ms -> 0.33 ms, ``padded_images`` 4303 / 3804 -> 23 /
#: 20, cache misses 59 -> 11; their arrival rate was doubled with it so
#: ``max_pending_images`` still rejects (17 / 16 of 80).  Re-recorded
#: again when a dense request began to tile only its two-conv head and run
#: the tail once (join depth 5 of 15): dense latency 0.33 -> 0.18 ms, cache
#: misses 11 -> 13 (two sizes' tails), ``padded_images`` 23 / 20 -> 20 /
#: 19; the arrival rate went from 10k/s to ~17k/s with it so the bound
#: still rejects (18 / 20 of 80; at 10k/s it rejected 1 / 3).  Digests
#: 3a4817093c5f18f7c9ecc8ac0660310c -> ceee1fabd0156bdf55ea54efca059179,
#: 4c6f7f767c513df6856c9b2829f71a4b -> 4491fbe6db46e3b1578b1cd6273b7d97.
GOLDEN_DIGESTS = {
    "small_resnet-light-0": "ef55dd9440ed9c4852a77048388105f9",
    "small_resnet-light-1": "7e756cb6296f4508eef24de99b6438de",
    "small_resnet-medium-0": "a1455440ccf802eb4cabf2ad49d43d9c",
    "small_resnet-medium-1": "5b1bf6f9de93d55c4113d0034c738f6d",
    "small_resnet-saturated-0": "391c7890f8a955f43c37db301a4e9764",
    "small_resnet-saturated-1": "fac4d1815950ff675c55c83f73050c4b",
    "small_resnet-depth4-0": "12c46b58b4a5055ae17efbf5e899354e",
    "small_resnet-depth4-1": "cbd73d155ad4c8121d3a9ffbef7a0b2d",
    "small_resnet-size3-0": "805028178aac093d752efc3653a82a7a",
    "small_resnet-size3-1": "91fc3295226cdddbc6cecf95f80a7052",
    "small_resnet-cap4-0": "cb3ba0243dbdd2a8387a4dfae9204e2d",
    "small_resnet-cap4-1": "f727ab9cb8555ddb7912ede7c8e02ab6",
    "small_resnet-deadline-0": "8e076b421a0491d0004c74234f472c3e",
    "small_resnet-deadline-1": "9d34d3175c5f1e995b0882697d258d42",
    "small_vgg-light-0": "ddf61576b9e483c06b0e015009dd5ed0",
    "small_vgg-light-1": "93f13469b72264f76dd34c94fafe083f",
    "small_vgg-medium-0": "6e5fd5f9d9c649c602ebd556695ecaf1",
    "small_vgg-medium-1": "9b7f4cdfcebb9a21eec7b74f3e8be119",
    "small_vgg-saturated-0": "98100797f5b2008318eb7008cf43a025",
    "small_vgg-saturated-1": "15c5be009d6371e037d41685803c9ea4",
    "small_vgg-depth4-0": "39c5c6e960f624050a241436081820c3",
    "small_vgg-depth4-1": "5d1edc09cde98a129e02c48545ad368c",
    "small_vgg-size3-0": "e6b3fd4b94c4d4d890c580235ffa842e",
    "small_vgg-size3-1": "8ef6dd45416cb00e853cc4f75c8ee082",
    "small_vgg-cap4-0": "c74ee7db37419ed4c7263327f3c92fc0",
    "small_vgg-cap4-1": "7e8dbf1590cc6301b231334c5868941c",
    "small_vgg-deadline-0": "faf9da74c08d58e4b713f60e5aa98dec",
    "small_vgg-deadline-1": "5be0560f491de2c34e850d772c4dec6f",
    "mixed-7": "ceee1fabd0156bdf55ea54efca059179",
    "mixed-8": "4491fbe6db46e3b1578b1cd6273b7d97",
}


class TestServerMatchesTheLoopItReplaced:
    CASES = list(_golden_bench_cases()) + list(_golden_mixed_cases())

    def test_covers_every_recorded_trace(self):
        assert [case[0] for case in self.CASES] == list(GOLDEN_DIGESTS)
        assert len(self.CASES) >= 24

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_request_for_request_counter_for_counter(self, case):
        assert _golden_digest(case) == GOLDEN_DIGESTS[case[0]]


class TestServerIsTheOneTenantFleet:
    def test_numeric_engine_behind_server_matches_a_direct_executor(self):
        engine = make_engine(numeric=True, seed=3)
        requests = [Request(id=0, arrival_time=0.0, size=2),
                    Request(id=1, arrival_time=0.001),
                    Request(id=2, arrival_time=0.002)]
        metrics = Server(engine, flush_timeout=0.005).run(requests)
        assert metrics.batches == 1 and metrics.completed_requests == 3
        # One batch of 4 images: the engine's first draw from its seed.
        graph = build_inference_graph(engine.model, 4)
        batch_input = np.random.default_rng(3).standard_normal(
            next(t for t in graph.tensors.values()
                 if t.kind == "input").shape)
        logits = GraphExecutor(
            graph, GraphExecutor.parameters_from_model(graph, engine.model),
        ).run(batch_input)["logits"]
        offset = 0
        for request in requests:
            rows = logits[offset:offset + request.size]
            assert engine.logits_for(request).tobytes() == rows.tobytes()
            offset += request.size

    def test_one_cache_lookup_per_executed_batch(self):
        engine = make_engine()
        server = Server(engine, flush_timeout=0.002)
        assert engine.cache.hits + engine.cache.misses == 0   # no warm-up
        server.run(poisson_arrivals(BenchConfig(rps=3000, duration=0.1)))
        assert engine.executed_batches > 1
        assert engine.cache.hits + engine.cache.misses \
            == engine.executed_batches

    def test_planned_peak_is_the_cached_plans_peak(self):
        engine = make_engine()
        for batch in (1, 3, 8):
            assert engine.planned_peak(batch) \
                == engine.entry_for(batch).plan.device_peak

    def test_rerun_from_an_earlier_instant_raises(self):
        server = Server(make_engine(), flush_timeout=0.002)
        trace = poisson_arrivals(BenchConfig(rps=500, duration=0.2))
        server.run(trace)
        completed = server.metrics.completed_requests
        with pytest.raises(ValueError, match="fresh scheduler"):
            server.run(poisson_arrivals(BenchConfig(rps=500, duration=0.2)))
        assert server.metrics.completed_requests == completed
        # A trace that starts where the clock stands is still welcome.
        late = Request(id=10_000, arrival_time=trace[-1].arrival_time + 1.0)
        assert server.run([late]).completed_requests == completed + 1

    @pytest.mark.parametrize("field", ["arrival_time", "deadline"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_request_times_are_rejected(self, field, value):
        kwargs = {"arrival_time": 0.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Request(id=0, **kwargs)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DenseRequest(id=0, image_hw=(32, 32), **kwargs)
