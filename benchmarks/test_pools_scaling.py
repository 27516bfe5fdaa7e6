"""Allocator hot-path scaling on a VGG-scale plan's alloc/free program.

The first-fit pool used to rebuild a key list on every ``alloc`` (to find
the insertion point) and scan ``_blocks`` linearly on every ``free`` —
quadratic in the number of live blocks.  The fix keeps a parallel sorted
offsets list so both operations bisect.  This benchmark replays the exact
alloc/free program of a VGG-11 ImageNet training-step plan (per-op
workspaces included, so block churn is realistic) against the fixed pool
and an inline reimplementation of the legacy behavior, and checks the two
agree on the measured peak.
"""

import time

import pytest

from _util import run_once, save_and_print
from repro.graph import build_training_graph
from repro.hmms import FirstFitPool, HMMSPlanner
from repro.models import build_model
from repro.nn import init

REPEATS = 5
REPLICAS = 8      # interleaved plan copies sharing one pool (live-block x8)


class _LegacyFirstFitPool(FirstFitPool):
    """The pre-fix hot path: list rebuild per alloc, linear-scan free."""

    def alloc(self, size, tag):
        offset = self._find_first_fit(size)
        index = 0
        for block_offset in [b[0] for b in self._blocks]:
            if block_offset >= offset:
                break
            index += 1
        self._blocks.insert(index, (offset, size, tag))
        self._by_tag[tag] = (offset, size)
        self.allocated += size
        self.peak = max(self.peak, self.high_water())
        return offset

    def free(self, tag):
        offset, size = self._by_tag.pop(tag)
        for index, block in enumerate(self._blocks):
            if block[2] == tag:
                del self._blocks[index]
                self.allocated -= size
                return


@pytest.fixture(scope="module")
def vgg_program():
    """(action, tag, size) events from a VGG-11 ImageNet step plan.

    ``REPLICAS`` interleaved copies of the plan (distinct tag namespaces)
    share the pool, modelling concurrent microbatch plans — this is what
    pushes the live-block count high enough for the allocator's asymptotic
    behavior to dominate.
    """
    with init.fast_init():
        model = build_model("vgg11", dataset="imagenet", num_classes=1000)
    graph = build_training_graph(model, 32)
    plan = HMMSPlanner(scheduler="hmms").plan(graph)
    sizes = {tso_id: tso.size for tso_id, tso in plan.assignment.tsos.items()}
    events = []
    live = set()
    for entry in plan.schedule:
        for replica in range(REPLICAS):
            for tso_id in entry.allocs_before:
                events.append(("alloc", (replica, tso_id, "main"),
                               sizes[tso_id]))
                live.add((replica, tso_id, "main"))
            for tso_id in entry.prefetch_allocs_before:
                events.append(("alloc", (replica, tso_id, "prefetch"),
                               sizes[tso_id]))
                live.add((replica, tso_id, "prefetch"))
            if entry.workspace_bytes:
                events.append(("alloc", (replica, "ws", entry.op_index),
                               entry.workspace_bytes))
                events.append(("free", (replica, "ws", entry.op_index), 0))
            for tso_id in entry.offload_syncs_after:
                events.append(("free", (replica, tso_id, "main"), 0))
                live.discard((replica, tso_id, "main"))
            for tso_id in entry.frees_after:
                tag = (replica, tso_id, "prefetch") \
                    if (replica, tso_id, "prefetch") in live \
                    else (replica, tso_id, "main")
                events.append(("free", tag, 0))
                live.discard(tag)
    return events


def _replay(pool_cls, events):
    pool = pool_cls(name="bench")
    for _ in range(REPEATS):
        pool.reset()
        for action, tag, size in events:
            if action == "alloc":
                pool.alloc(size, tag)
            else:
                pool.free(tag)
    return pool.peak


def test_bench_first_fit_pool_replay(benchmark, vgg_program):
    start = time.perf_counter()
    peak = run_once(benchmark, lambda: _replay(FirstFitPool, vgg_program))
    fixed_seconds = time.perf_counter() - start
    assert peak > 0

    start = time.perf_counter()
    legacy_peak = _replay(_LegacyFirstFitPool, vgg_program)
    legacy_seconds = time.perf_counter() - start
    assert legacy_peak == peak    # the fix must not change placement

    # ``--benchmark-disable`` (CI, REPRO_SMOKE) runs the function once and
    # keeps no stats; the wall clock around the one call stands in.
    if benchmark.stats is not None:
        fixed_seconds = benchmark.stats.stats.mean
    save_and_print("pools_scaling", "\n".join([
        "first-fit pool hot path — VGG-11 ImageNet step plan "
        f"({len(vgg_program)} events x {REPEATS} replays)",
        f"  fixed (bisect)      : {fixed_seconds * 1e3:8.2f} ms",
        f"  legacy (quadratic)  : {legacy_seconds * 1e3:8.2f} ms",
        f"  speedup             : {legacy_seconds / fixed_seconds:8.2f}x",
    ]))
