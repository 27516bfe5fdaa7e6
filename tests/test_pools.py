"""Unit + property tests for the first-fit and bump allocators (§4.4)."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmms import BumpPool, FirstFitPool, PoolError


class TestFirstFit:
    def test_sequential_allocation(self):
        pool = FirstFitPool()
        assert pool.alloc(100, "a") == 0
        assert pool.alloc(50, "b") == 100
        assert pool.high_water() == 150

    def test_reuses_freed_gap(self):
        pool = FirstFitPool()
        pool.alloc(100, "a")
        pool.alloc(50, "b")
        pool.free("a")
        assert pool.alloc(80, "c") == 0          # fits the hole
        assert pool.high_water() == 150

    def test_first_fit_skips_too_small_gap(self):
        pool = FirstFitPool()
        pool.alloc(10, "a")
        pool.alloc(100, "b")
        pool.free("a")
        assert pool.alloc(50, "c") == 110        # hole of 10 too small

    def test_peak_tracks_high_water(self):
        pool = FirstFitPool()
        pool.alloc(100, "a")
        pool.alloc(100, "b")
        pool.free("a")
        pool.free("b")
        pool.alloc(10, "c")
        assert pool.peak == 200

    def test_capacity_enforced(self):
        pool = FirstFitPool(capacity=100)
        pool.alloc(80, "a")
        with pytest.raises(PoolError):
            pool.alloc(30, "b")

    def test_duplicate_tag_rejected(self):
        pool = FirstFitPool()
        pool.alloc(10, "a")
        with pytest.raises(PoolError):
            pool.alloc(10, "a")

    def test_free_unknown_tag(self):
        with pytest.raises(PoolError):
            FirstFitPool().free("ghost")

    def test_negative_size_rejected(self):
        with pytest.raises(PoolError):
            FirstFitPool().alloc(-1, "a")

    def test_zero_size_allocation(self):
        pool = FirstFitPool()
        assert pool.alloc(0, "a") == 0
        pool.free("a")

    def test_live_bytes(self):
        pool = FirstFitPool()
        pool.alloc(30, "a")
        pool.alloc(20, "b")
        pool.free("a")
        assert pool.live_bytes() == 20

    def test_reset(self):
        pool = FirstFitPool()
        pool.alloc(10, "a")
        pool.reset()
        assert pool.peak == 0
        assert pool.alloc(10, "a") == 0
        assert pool.high_water() == 10
        assert (pool._hole_starts, pool._hole_ends) == ([], [])

    def test_zero_size_blocks_stack_at_one_offset(self):
        """Zero-size blocks share an offset with each other and with a
        real block; frees must remove exactly the tagged block."""
        pool = FirstFitPool()
        pool.alloc(0, "z1")
        pool.alloc(0, "z2")
        pool.alloc(10, "real")              # also at offset 0
        pool.free("z1")
        pool.free("real")
        assert pool.live_bytes() == 0
        assert pool.alloc(5, "next") == 0   # gap reusable
        pool.free("z2")
        with pytest.raises(PoolError):
            pool.free("z2")

    def test_offsets_stay_parallel_and_sorted(self):
        """The hole lists stay parallel, sorted and maximal, and with the
        live blocks they tile ``[0, high_water())`` through arbitrary
        churn."""
        rng = np.random.default_rng(0)
        pool = FirstFitPool()
        live = {}
        for step in range(300):
            if live and rng.random() < 0.45:
                tag = list(live)[rng.integers(len(live))]
                pool.free(tag)
                del live[tag]
            else:
                size = int(rng.integers(0, 200))
                live[step] = (pool.alloc(size, step), size)
            starts, ends = pool._hole_starts, pool._hole_ends
            assert len(starts) == len(ends)
            assert all(start < end for start, end in zip(starts, ends))
            assert all(end < start for end, start in zip(ends, starts[1:]))
            intervals = sorted([(o, o + s) for o, s in live.values() if s]
                               + list(zip(starts, ends)))
            cursor = 0
            for start, end in intervals:
                assert start == cursor
                cursor = end
            assert cursor == pool.high_water()

    def test_zero_size_block_does_not_hide_the_high_water(self):
        """Regression: a real block at offset 0 sorted *before* an older
        zero-size block there, and the high water read the last block."""
        pool = FirstFitPool()
        pool.alloc(0, "z")
        assert pool.alloc(10, "r") == 0
        assert pool.high_water() == 10
        assert pool.peak == 10


class TestBumpPool:
    def test_never_reuses(self):
        pool = BumpPool()
        pool.alloc(100, "a")
        pool.free("a")
        assert pool.alloc(100, "b") == 100
        assert pool.peak == 200

    def test_peak_exceeds_first_fit_under_churn(self):
        first_fit, bump = FirstFitPool(), BumpPool()
        for pool in (first_fit, bump):
            for i in range(10):
                pool.alloc(100, i)
                pool.free(i)
        assert first_fit.peak == 100
        assert bump.peak == 1000


@st.composite
def alloc_free_program(draw, sizes=st.integers(1, 1000), max_steps=60):
    """A random valid alloc/free program."""
    steps = []
    live = []
    for index in range(draw(st.integers(1, max_steps))):
        if live and draw(st.booleans()):
            victim = draw(st.sampled_from(live))
            live.remove(victim)
            steps.append(("free", victim, 0))
        else:
            size = draw(sizes)
            steps.append(("alloc", index, size))
            live.append(index)
    return steps


@given(alloc_free_program())
@settings(max_examples=150, deadline=None)
def test_first_fit_blocks_never_overlap(program):
    """Safety: no two live allocations ever overlap, and peak >= live sum."""
    pool = FirstFitPool()
    live = {}
    for action, tag, size in program:
        if action == "alloc":
            offset = pool.alloc(size, tag)
            for other_offset, other_size in live.values():
                assert offset + size <= other_offset \
                    or other_offset + other_size <= offset
            live[tag] = (offset, size)
        else:
            pool.free(tag)
            del live[tag]
        assert pool.live_bytes() == sum(s for _, s in live.values())
        assert pool.peak >= pool.live_bytes()


@given(alloc_free_program())
@settings(max_examples=100, deadline=None)
def test_first_fit_never_worse_than_bump(program):
    first_fit, bump = FirstFitPool(), BumpPool()
    for action, tag, size in program:
        for pool in (first_fit, bump):
            if action == "alloc":
                pool.alloc(size, tag)
            else:
                pool.free(tag)
    assert first_fit.peak <= bump.peak


class _BlockScan:
    """The block-list first fit the hole lists replaced, kept inline as the
    reference: live blocks sorted by offset (a new block goes before equal
    offsets), scanned for the first gap between running block ends."""

    def __init__(self):
        self.blocks = []        # (offset, end), parallel to offsets
        self.offsets = []
        self.by_tag = {}

    def alloc(self, size, tag):
        cursor = 0
        for offset, end in self.blocks:
            if offset - cursor >= size:
                break
            cursor = max(cursor, end)
        index = bisect.bisect_left(self.offsets, cursor)
        self.blocks.insert(index, (cursor, cursor + size))
        self.offsets.insert(index, cursor)
        self.by_tag[tag] = (cursor, cursor + size)
        return cursor

    def free(self, tag):
        index = self.blocks.index(self.by_tag.pop(tag))
        del self.blocks[index]
        del self.offsets[index]


@given(alloc_free_program(sizes=st.one_of(st.just(0), st.integers(1, 64)),
                          max_steps=120))
@settings(max_examples=200, deadline=None)
def test_first_fit_matches_the_block_scan(program):
    """Under churn over small and zero-size blocks (holes open, merge,
    refill and reach the top), every offset equals the block scan's; the
    high water is the largest live end and the peak its running maximum."""
    pool, reference = FirstFitPool(), _BlockScan()
    ends = {}
    running_peak = 0
    for action, tag, size in program:
        if action == "alloc":
            offset = pool.alloc(size, tag)
            assert offset == reference.alloc(size, tag)
            ends[tag] = offset + size
        else:
            pool.free(tag)
            reference.free(tag)
            del ends[tag]
        top = max(ends.values(), default=0)
        running_peak = max(running_peak, top)
        assert pool.high_water() == top
        assert pool.peak == running_peak
