"""Tests for repro.planned: the one compile→plan→verify→cache core and the
one dyadic capacity search under ServingEngine and PatchInferer.

The golden digests were recorded from the parent commit (0508dd4), where
the engine and the inferer each carried their own entry type, builder and
doubling loop; they pin that sharing one core changed no number.
"""

import hashlib

import numpy as np
import pytest

from repro.infer import GridSplitter, PatchInferer
from repro.models import alexnet, small_vgg
from repro.planned import dyadic_search
from repro.profile.device import P100_NVLINK
from repro.serve import (
    FleetScheduler, Request, ServingEngine, TenantConfig,
)


# ----------------------------------------------------------------------
# Golden digests: engines
# ----------------------------------------------------------------------
def _engine_cases():
    yield "small_vgg", lambda: ServingEngine(
        small_vgg(rng=np.random.default_rng(0)), batch_cap=8)
    yield "small_resnet-split4", lambda: ServingEngine.from_zoo(
        "small_resnet", split=4, batch_cap=8)
    yield "vgg11-compiled", lambda: ServingEngine.from_zoo(
        "vgg11", compile_plans=True, batch_cap=4)


def _engine_digest(engine: ServingEngine) -> str:
    """blake2b over the capacity search's results, every bucket's plan
    and latency, and the cache's keys and counters after a fixed request
    sequence."""
    digest = hashlib.blake2b(digest_size=16)
    buckets = [1 << k for k in range(engine.max_batch.bit_length())]
    digest.update(repr((
        engine.max_batch, [engine.planned_peak(b) for b in buckets],
    )).encode())
    sizes = [1, 3, 2, engine.max_batch, 1, 2, 3, 1]
    latencies = [
        engine.execute([Request(id=i, arrival_time=0.0, size=min(
            size, engine.max_batch))])
        for i, size in enumerate(sizes)]
    entries = [engine.entry_for(b) for b in buckets]
    digest.update(repr((
        latencies,
        [(e.batch, e.latency, e.plan.device_peak) for e in entries],
        engine.cache.keys(), engine.cache.hits, engine.cache.misses,
        engine.plans_verified, engine.executed_batches,
        engine.executed_images, engine.padded_images,
    )).encode())
    return digest.hexdigest()


ENGINE_GOLDEN = {
    "small_vgg": "d0bc5dd8d7957c2436a013af78fc8492",
    # Re-recorded when inference graphs began to normalize with running
    # statistics: the stats are constants, so every bucket's planned peak
    # rose by 2,688 bytes; latencies and cache counters are unchanged.
    "small_resnet-split4": "c9caa6a38b3f91546a6a4130c8864a83",
    # Re-pinned when compile.FINGERPRINT moved to "aa56545d2eeb": its cache
    # keys carry it; with the old constant the digest is the old one.
    "vgg11-compiled": "921a5c60f867d455d0d3dbcd56caac45",
}


# ----------------------------------------------------------------------
# Golden digests: inferers
# ----------------------------------------------------------------------
def _inferer_cases():
    # The frozen benchmark's shape: 16 MiB, grid 4x4, overlap 1, compiled.
    yield ("small_vgg-bench",
           lambda: PatchInferer(small_vgg(rng=np.random.default_rng(0)),
                                memory_budget=16 << 20, compile_plans=True,
                                numeric=False),
           (256, 256), (4, 4), 1, 32)
    # alexnet's windows do not fit a 32-pixel side; 64 is the first that
    # every layer accepts (the search's skipped sides are pinned below).
    yield ("alexnet",
           lambda: PatchInferer(alexnet(rng=np.random.default_rng(0)),
                                memory_budget=64 << 20, numeric=False),
           (512, 512), (2, 2), 0, 64)


def _inferer_digest(case) -> str:
    _, build, in_hw, grid, overlap, start = case
    inferer = build()
    report = inferer.plan_dense(in_hw, grid, overlap)
    cache = inferer.cache
    after_plan = (cache.hits, cache.misses, cache.evictions, len(cache))
    side = inferer.max_single_pass_side(budget=256 << 20, start=start)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((
        report.in_hw, report.out_hw, report.grid, report.overlap,
        report.patches, report.variants, report.patch_batch,
        report.executions, report.peak_bytes, report.latency,
        after_plan, side, cache.hits, cache.misses, cache.evictions,
        len(cache), inferer.plans_verified,
    )).encode())
    return digest.hexdigest()


# Re-pinned when short chunks began to run (and be priced) at their own
# bucket: small_vgg-bench latency 0.000682021 -> 0.000650896 s (four
# one-tile corner variants leave batch 2 for batch 1) and one more cache
# hit (a lookup per execution, 10, not per variant, 9); alexnet's four
# one-tile variants cap the search at 1 — patch_batch 2 -> 1, peak
# 38725104 -> 24301944, misses 12 -> 4.  Every other field is unchanged.
#
# Re-pinned again when the join depth became discovered (tiles run
# layers[:depth], one unsplit tail execution per image runs the rest):
# small_vgg-bench joins at depth 10 — latency 0.000650896 -> 0.000468631 s,
# peak 15850944 -> 12280320 bytes, executions 10 -> 11, misses after
# plan_dense 27 -> 29 and at the end 33 -> 35 (the misfit depth-5 tail and
# the depth-10 tail; the 27 head plans are depth-10 graphs now); alexnet
# joins at depth 2 — latency 0.001538178 -> 0.000965794 s, peak 24301944 ->
# 40332288 bytes (the tail's, inside the 64 MiB budget), executions 4 -> 5,
# misses 4 -> 5 and 10 -> 11.  Hits, the single-pass sides and every other
# field are unchanged.
INFERER_GOLDEN = {
    "small_vgg-bench": "a1b858e3881de99fae8944acd5348c06",
    "alexnet": "18d4fcfc31c2d1461064efc0b72bfd71",
}


class TestGoldenDigests:
    ENGINES = list(_engine_cases())
    INFERERS = list(_inferer_cases())

    @pytest.mark.parametrize("label,build", ENGINES,
                             ids=[c[0] for c in ENGINES])
    def test_engine_numbers_unchanged(self, label, build):
        assert _engine_digest(build()) == ENGINE_GOLDEN[label]

    @pytest.mark.parametrize("case", INFERERS,
                             ids=[c[0] for c in INFERERS])
    def test_inferer_numbers_unchanged(self, case):
        assert _inferer_digest(case) == INFERER_GOLDEN[case[0]]


# ----------------------------------------------------------------------
# The one dyadic search
# ----------------------------------------------------------------------
def _search(peak_of, budget=100, cap=64, start=1, hint=""):
    return dyadic_search(peak_of, budget, P100_NVLINK, cap=cap,
                         what="toy: even the smallest plan", start=start,
                         hint=hint)


class TestDyadicSearch:
    def test_keeps_the_last_size_that_fits_and_every_measured_peak(self):
        probed = []

        def peak_of(size):
            probed.append(size)
            return 10 * size

        assert _search(peak_of) == {1: 10, 2: 20, 4: 40, 8: 80}
        assert probed == [1, 2, 4, 8, 16]       # stops at the first misfit

    def test_a_peak_equal_to_the_budget_fits(self):
        assert max(_search(lambda size: 25 * size)) == 4

    def test_cap_reached(self):
        assert sorted(_search(lambda size: size, cap=16)) == [1, 2, 4, 8, 16]
        # A cap off the dyadic grid is never probed past.
        assert max(_search(lambda size: size, cap=24, start=3)) == 24
        assert max(_search(lambda size: size, cap=23, start=3)) == 12

    def test_nothing_fits_names_budget_and_device_bytes(self):
        with pytest.raises(ValueError) as info:
            _search(lambda size: 101, hint="; use a finer grid")
        assert str(info.value) == (
            "toy: even the smallest plan exceeds the memory budget "
            f"(100 bytes of {P100_NVLINK.memory_capacity} device bytes)"
            "; use a finer grid")

    def test_sizes_the_probe_rejects_are_skipped_not_misfits(self):
        def peak_of(size):
            if size < 8:
                raise ValueError(f"window does not fit side {size}")
            return size

        assert sorted(_search(peak_of, budget=40)) == [8, 16, 32]
        # Rejected sizes followed by a real misfit: the budget error.
        with pytest.raises(ValueError, match="memory budget"):
            _search(peak_of, budget=7)

    def test_a_probe_that_rejects_every_size_reraises_its_own_error(self):
        def peak_of(size):
            raise ValueError(f"no graph for {size}")

        with pytest.raises(ValueError, match="no graph for 64"):
            _search(peak_of)

    def test_a_start_past_the_cap_is_not_blamed_on_the_budget(self):
        """Regression: ``max_single_pass_side(start=1 << 15)`` (cap
        ``1 << 14``) measured nothing and raised "every unsplit pass ...
        exceeds the memory budget"."""
        probed = []
        with pytest.raises(ValueError, match="start 128 exceeds cap 64"):
            _search(probed.append, start=128)
        assert probed == []
        inferer = PatchInferer(small_vgg(rng=np.random.default_rng(0)),
                               numeric=False)
        with pytest.raises(ValueError, match="start 32768 exceeds cap 16384"):
            inferer.max_single_pass_side(start=1 << 15)
        assert inferer.cache.misses == 0
        # start == cap is still a search of one size.
        assert _search(lambda size: size, start=64) == {64: 64}

    def test_a_start_below_one_raises_instead_of_looping(self):
        """Regression: ``max_single_pass_side(start=0)`` never returned —
        ``peak_of(0)``'s ``ValueError`` read as "too small, skip" and
        ``0 * 2 == 0``."""
        probed = []
        for start in (0, -4):
            with pytest.raises(ValueError, match=f"got {start}"):
                _search(probed.append, start=start)
        assert probed == []
        inferer = PatchInferer(small_vgg(rng=np.random.default_rng(0)),
                               numeric=False)
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            inferer.max_single_pass_side(start=0)
        assert inferer.cache.misses == 0

    def test_other_errors_are_not_swallowed(self):
        def peak_of(size):
            raise RuntimeError("plan verification failed")

        with pytest.raises(RuntimeError):
            _search(peak_of)


# ----------------------------------------------------------------------
# The shared core
# ----------------------------------------------------------------------
class TestSharedCore:
    def test_an_inferer_and_an_engine_share_a_cache_by_fingerprint(self):
        engine = ServingEngine(small_vgg(rng=np.random.default_rng(0)),
                               batch_cap=8, compile_plans=True,
                               memory_budget=64 << 20)
        inferer = PatchInferer(engine.model, numeric=False,
                               compile_plans=True, cache=engine.cache)
        assert inferer.cache is engine.cache
        assert inferer.core.fingerprint == engine.pipeline_fingerprint
        variant = next(iter(GridSplitter((2, 2)).plan(
            engine.model, (64, 64)).variants()))
        assert engine.cache.keys() == ()
        inferer.entry_for(variant, 1)
        engine.entry_for(1)
        assert [k[-1] for k in engine.cache.keys()] \
            == [engine.pipeline_fingerprint] * 2

    def test_one_verified_counter_across_mixed_traffic(self):
        engine = ServingEngine(small_vgg(rng=np.random.default_rng(0)),
                               batch_cap=8)
        batches = [
            [Request(id=0, arrival_time=0.0, size=3)],
            [Request(id=1, arrival_time=0.0, size=5)],
            [Request(id=2, arrival_time=0.0), Request(id=3, arrival_time=0.0)],
            [Request(id=4, arrival_time=0.0)],
            [Request(id=5, arrival_time=0.0, size=3)],
        ]
        for batch in batches:
            engine.execute(batch)
            # One counter, incremented where plans are verified: the
            # invariant holds after every batch, not only at the end.
            assert engine.plans_verified == engine.cache.misses
        assert engine.cache.misses == len(engine.cache) \
            + engine.cache.evictions
        assert engine.cache.hits > 0

    def test_a_failed_build_leaves_the_invariant_intact(self):
        model = alexnet(rng=np.random.default_rng(0))
        inferer = PatchInferer(model, numeric=False)
        engine = ServingEngine(model, batch_cap=2, cache=inferer.cache)
        engine.execute([Request(id=0, arrival_time=0.0)])
        with pytest.raises(ValueError, match="does not fit"):
            inferer.unsplit_entry((16, 16))
        assert engine.plans_verified + inferer.plans_verified \
            == engine.cache.misses == 1

    def test_a_fleets_engines_report_one_cache(self):
        tenants = [
            TenantConfig(name="a", model="small_vgg", batch_cap=4),
            TenantConfig(name="b", model="small_vgg", batch_cap=4),
            TenantConfig(name="c", model="small_resnet", split=4,
                         batch_cap=4),
        ]
        fleet = FleetScheduler(tenants, autoscale=False)
        engines = [t.engine for t in fleet.tenants.values()]
        assert all(engine.cache is fleet.cache for engine in engines)
        assert all(engine.core.cache is fleet.cache for engine in engines)
        # ...but each verifies what it built: the counters partition the
        # shared cache's misses.
        assert len({id(engine.core) for engine in engines}) == 3
        assert sum(engine.plans_verified for engine in engines) \
            == fleet.cache.misses
        assert fleet.cache.hits >= 1        # b reused a's plan
