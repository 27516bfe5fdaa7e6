"""Tests for repro.infer: tiling, blending, streaming byte-identity.

The load-bearing claim is that patch inference is *exact*: merged tile
outputs are byte-identical to the unsplit forward pass, because every
tile derives its input window and paddings from the same Eq. 1-2
primitive (``repro.core.scheme``) that places every split-region cut.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, assume
from hypothesis import strategies as st

from repro.core.region import SplitRegion, get_handler
from repro.core.scheme import (
    SplitScheme, WindowSpec, compute_input_split, compute_paddings,
    input_split_bounds, receptive_interval, window_input_range,
)
from repro.infer import (
    BlendMerger, GridSplitter, MERGE_MODES, PatchInferer,
    build_dense_graph, flatten_dense_body,
)
from repro.infer.splitter import join_candidates
from repro.models import alexnet, small_resnet, small_vgg, vgg11
from repro.nn import Conv2d, MaxPool2d, ReLU, Sequential, init
from repro.planned import dyadic_bucket


def make_inferer(model_fn=small_vgg, seed=0, **kwargs):
    model = model_fn(rng=np.random.default_rng(seed))
    return PatchInferer(model, **kwargs)


def alexnet_body(rng):
    """alexnet with random weights in its dense body only; the 58M
    classifier parameters patch inference never runs stay zeros."""
    with init.fast_init():
        model = alexnet()
    for param in model.features.parameters():
        param.data = (0.05 * rng.standard_normal(param.data.shape)
                      ).astype(param.data.dtype)
    return model


def random_image(hw, channels=3, seed=0, batch=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, channels) + tuple(hw))


def head_variants(inferer, in_hw, grid, overlap, depth):
    return GridSplitter(grid, overlap).plan(
        inferer.model, in_hw, depth=depth).variants()


def entries_run(inferer, report):
    """The entries one image runs, re-derived by hand from ``report``: the
    variants of the depth-``join_depth`` tiling chunked at the patch batch
    (a short last chunk at its own dyadic bucket), then the unsplit tail
    over the join plane when the tiles stop short of the full body."""
    plan = GridSplitter(report.grid, report.overlap).plan(
        inferer.model, report.in_hw, depth=report.join_depth)
    entries = [
        inferer.entry_for(variant, dyadic_bucket(
            min(report.patch_batch, len(tiles) - lo)))
        for variant, tiles in plan.variants().items()
        for lo in range(0, len(tiles), report.patch_batch)]
    if report.join_depth < len(inferer.layers):
        entries.append(inferer._suffix_entry(report.join_depth, plan.out_hw))
    return entries


def forcing_budget(model_fn, in_hw, grid, overlap, depth, compile_plans):
    """The smallest budget that makes the inferer join at ``depth``, read
    off planned peaks: the depth's tail and its single-patch head must
    fit, the previous candidate's tail must not."""
    probe = make_inferer(model_fn, numeric=False,
                         compile_plans=compile_plans)
    previous_tail = None
    for candidate, plane_hw in join_candidates(probe.layers, in_hw):
        tail = probe._suffix_entry(candidate, plane_hw).plan.device_peak \
            if candidate < len(probe.layers) else 0
        if candidate == depth:
            break
        previous_tail = tail
    budget = max(tail, max(
        probe.entry_for(variant, 1).plan.device_peak
        for variant in head_variants(probe, in_hw, grid, overlap, depth)))
    assert previous_tail is None or budget < previous_tail, \
        f"no budget forces depth {depth}"
    return budget


# ----------------------------------------------------------------------
# The shared Eq. 1-2 primitive
# ----------------------------------------------------------------------
# Padding strictly below the kernel (every real conv/pool layer obeys
# this); pad >= k would put whole output windows inside the pad region.
window_specs = st.builds(
    lambda k, s, pb, pe: WindowSpec(k, s, pb % k, pe % k),
    st.integers(1, 5), st.integers(1, 3), st.integers(0, 4),
    st.integers(0, 4),
)


class TestSchemePrimitive:
    @given(spec=window_specs, n=st.integers(8, 64),
           lo=st.integers(0, 20), width=st.integers(1, 20))
    def test_window_input_range_is_output_exact(self, spec, n, lo, width):
        """The returned slice + paddings compute exactly the requested
        output count — the property every tile graph relies on."""
        try:
            out = spec.output_size(n)
        except ValueError:
            assume(False)
        assume(lo + width <= out)
        start, stop, pad_b, pad_e = window_input_range(
            spec, lo, lo + width, n)
        assert 0 <= start <= stop <= n
        patched = WindowSpec(spec.kernel, spec.stride, pad_b, pad_e)
        assert patched.output_size(stop - start) == width

    @given(spec=window_specs, n=st.integers(8, 64))
    def test_full_range_recovers_whole_input(self, spec, n):
        """Backing the full output range returns the whole input with the
        op's own (used) padding — border tiles inherit exactly this."""
        try:
            out = spec.output_size(n)
        except ValueError:
            assume(False)
        start, stop, pad_b, pad_e = window_input_range(spec, 0, out, n)
        assert start == 0
        # The slice ends where the last window does; input past it is a
        # dead tail the unsplit op never reads either (e.g. odd input
        # into a stride-2 pool).
        assert stop == min(
            n, (out - 1) * spec.stride + spec.kernel - spec.pad_begin)
        assert pad_b == spec.pad_begin
        # pad_end may undershoot spec.pad_end when the stride leaves a
        # dead tail — the unsplit op never reads that padding either.
        assert 0 <= pad_e <= spec.pad_end

    @given(spec=window_specs, n=st.integers(8, 64),
           parts=st.integers(2, 4))
    def test_matches_input_split_bounds(self, spec, n, parts):
        """receptive_interval endpoints ARE the Eq. 1-2 (lb, ub) pairs
        that input_split_bounds (split-region cuts) publishes."""
        try:
            out = spec.output_size(n)
        except ValueError:
            assume(False)
        assume(parts <= out)
        scheme = SplitScheme.even(out, parts)
        bounds = input_split_bounds(scheme, spec)
        for i, o_i in enumerate(scheme.boundaries[1:], start=1):
            lb = receptive_interval(spec, o_i, o_i + 1)[0]
            ub = receptive_interval(spec, o_i - 1, o_i)[1]
            assert bounds[i] == (min(lb, ub), max(lb, ub))
            # The paper's closed forms, independently restated.
            assert lb == o_i * spec.stride - spec.pad_begin
            assert ub == ((o_i - 1) * spec.stride + spec.kernel
                          - spec.pad_begin)


# ----------------------------------------------------------------------
# Satellite 4: border semantics — GridSplitter vs mesh split schemes
# ----------------------------------------------------------------------
class TestBorderSemanticsSharedWithMesh:
    @given(k=st.integers(1, 5), s=st.integers(1, 3), p=st.integers(0, 2),
           parts=st.integers(2, 4), n=st.integers(24, 64))
    @settings(max_examples=40, deadline=None)
    def test_single_layer_tiles_land_on_position0_split(self, k, s, p,
                                                        parts, n):
        """At overlap=0, tile input starts equal the position-0 input
        split (every boundary at its lb), and the *border* paddings equal
        the zero-pad split semantics of compute_paddings — the exact
        sense in which image-border halo extraction and mesh zero-pad
        splitting are the same math."""
        assume(k >= s)                   # paper's split-region contract
        assume(p < k)
        spec = WindowSpec(k, s, p, p)
        try:
            out = spec.output_size(n)
        except ValueError:
            assume(False)
        assume(parts <= out)
        out_scheme = SplitScheme.even(out, parts)
        # Skip configs where compute_input_split would clamp (boundaries
        # colliding); the property is about the unclamped shared math.
        bounds = input_split_bounds(out_scheme, spec)
        lbs = [b[0] for b in bounds]
        assume(all(lbs[i] > lbs[i - 1] for i in range(2, len(lbs))))
        assume(lbs[1] >= 1 and lbs[-1] <= n - parts)

        in_split = compute_input_split(out_scheme, spec, n, position=0.0)
        mesh_pads = compute_paddings(out_scheme, in_split, spec, out)

        conv = Conv2d(1, 1, kernel_size=k, stride=s, padding=p)
        plan = GridSplitter((parts, 1), overlap=0).plan(
            Sequential(conv), (n, n))
        rows = [plan.tiles[i * 1] for i in range(parts)]
        starts = tuple(tile.in_range[0][0] for tile in rows)
        assert starts == in_split.boundaries
        # Border paddings: first tile's begin pad and last tile's end pad
        # are the unsplit op's own clamped zero padding on both paths.
        first_pad = rows[0].layer_paddings[0][0]
        last_pad = rows[-1].layer_paddings[0][0]
        assert first_pad[0] == mesh_pads[0][0] == p
        # The mesh declares the op's full end padding; the tiler declares
        # only the *used* part — they differ by the dead tail past the
        # last window, which neither path ever reads.
        dead_tail = (n + 2 * p - k) % s
        assert last_pad[1] == max(0, mesh_pads[-1][1] - dead_tail)
        # Interior tiles read real halo pixels instead of padding.
        for tile in rows[1:]:
            assert tile.layer_paddings[0][0][0] == 0
        for tile in rows[:-1]:
            assert tile.layer_paddings[0][0][1] == 0

    @pytest.mark.parametrize("grid", [(2, 2), (4, 4)])
    def test_multilayer_tiles_match_back_bounds(self, grid):
        """Through the full small_vgg stack, tile input ranges land on
        exactly the boundaries the region handler's ``back`` derives for
        a SplitRegion over the same body at positions 0 and 1 (shared
        Eq. 1-2 math, not a copy)."""
        model = small_vgg(rng=np.random.default_rng(0))
        in_hw = (64, 64)
        region = SplitRegion(model.features, num_splits=grid)
        handler = get_handler(region.body)
        out_hw = handler.trace(region.body, in_hw)
        scheme_h = SplitScheme.even(out_hw[0], grid[0])
        scheme_w = SplitScheme.even(out_hw[1], grid[1])

        plan = GridSplitter(grid, overlap=0).plan(model, in_hw)
        assert plan.out_hw == out_hw
        low = handler.back(region.body, scheme_h, scheme_w, in_hw, 0.0)
        high = handler.back(region.body, scheme_h, scheme_w, in_hw, 1.0)
        for axis in (0, 1):
            lows = (low.in_scheme_h, low.in_scheme_w)[axis].boundaries
            highs = (high.in_scheme_h, high.in_scheme_w)[axis].boundaries
            if axis == 0:
                tiles = [plan.tiles[i * grid[1]] for i in range(grid[0])]
            else:
                tiles = plan.tiles[:grid[1]]
            starts = tuple(t.in_range[axis][0] for t in tiles)
            stops = tuple(t.in_range[axis][1] for t in tiles)
            # position-0 boundaries = lower receptive bounds = tile starts
            assert starts == lows
            # position-1 boundary i = upper bound = tile i-1's stop
            # (the overlap's far edge); the last tile runs to the image edge.
            assert stops[:-1] == highs[1:]
            assert stops[-1] == in_hw[axis]


# ----------------------------------------------------------------------
# GridSplitter geometry
# ----------------------------------------------------------------------
class TestGridSplitter:
    def test_own_ranges_partition_output_plane(self):
        model = small_vgg(rng=np.random.default_rng(0))
        for overlap in (0, 2):
            plan = GridSplitter((3, 2), overlap=overlap).plan(model, (64, 64))
            covered = np.zeros(plan.out_hw, dtype=int)
            for tile in plan.tiles:
                (h0, h1), (w0, w1) = tile.own_range
                covered[h0:h1, w0:w1] += 1
            assert (covered == 1).all()     # exact partition, no overlap

    def test_overlap_expands_out_range_clamped(self):
        model = small_vgg(rng=np.random.default_rng(0))
        plan = GridSplitter((2, 2), overlap=3).plan(model, (64, 64))
        for tile in plan.tiles:
            for axis in (0, 1):
                own = tile.own_range[axis]
                out = tile.out_range[axis]
                assert out[0] == max(0, own[0] - 3)
                assert out[1] == min(plan.out_hw[axis], own[1] + 3)

    def test_variants_group_by_shape_and_padding(self):
        model = small_vgg(rng=np.random.default_rng(0))
        plan = GridSplitter((4, 4), overlap=0).plan(model, (64, 64))
        assert plan.num_patches == 16
        variants = plan.variants()
        # SplitScheme.even rounding can make tile sizes unequal, so the
        # count is not bounded by 9 — only by the tile count.
        assert 1 <= len(variants) <= 16
        for variant, tiles in variants.items():
            for tile in tiles:
                assert tile.in_shape == variant.in_shape
                assert tile.layer_paddings == variant.layer_paddings

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            GridSplitter((0, 2))
        with pytest.raises(ValueError):
            GridSplitter((2, 2), overlap=-1)
        model = small_vgg(rng=np.random.default_rng(0))
        # grid outnumbers the 8x8 output plane
        with pytest.raises(ValueError):
            GridSplitter((9, 1)).plan(model, (64, 64))

    def test_depth_tiles_the_plane_of_a_prefix(self):
        """``depth=None`` is the full body; a shallower depth tiles the
        plane ``layers[:depth]`` produces, with halos through those
        layers only."""
        model = small_vgg(rng=np.random.default_rng(0))
        layers = flatten_dense_body(model)
        splitter = GridSplitter((4, 4), overlap=1)
        full = splitter.plan(model, (64, 64))
        assert full == splitter.plan(model, (64, 64), depth=len(layers))
        assert full.depth == len(layers) and full.out_hw == (8, 8)
        head = splitter.plan(model, (64, 64), depth=5)
        assert head.depth == 5 and head.out_hw == (32, 32)
        assert all(len(tile.layer_paddings) == 5 for tile in head.tiles)
        assert head.tiles == splitter.plan(
            Sequential(*layers[:5]), (64, 64)).tiles
        for depth in (0, len(layers) + 1):
            with pytest.raises(ValueError, match="depth"):
                splitter.plan(model, (64, 64), depth=depth)

    def test_residual_bodies_are_rejected(self):
        model = small_resnet(rng=np.random.default_rng(0))
        with pytest.raises(TypeError):
            flatten_dense_body(model)
        with pytest.raises(TypeError):
            PatchInferer(model)

    def test_flatten_unwraps_split_region(self):
        model = small_vgg(rng=np.random.default_rng(0))
        region = SplitRegion(model.features, num_splits=(2, 2))
        assert flatten_dense_body(region) == flatten_dense_body(model)


# ----------------------------------------------------------------------
# Tentpole: byte-identity of merged patches vs the unsplit pass
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("grid", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("overlap", [0, 1, 2])
    def test_small_vgg_valid_merge_is_byte_identical(self, grid, overlap):
        inferer = make_inferer()
        x = random_image((64, 64))
        ref = inferer.run_unsplit(x)
        out = inferer.infer(x, grid=grid, overlap=overlap, merge="valid")
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("patch_batch", [None, 1, 2, 4])
    def test_identity_matrix(self, patch_batch):
        """Every patch batch x grid x overlap cell: a pixel's bytes may
        not depend on how many pixels share its execution — patches of
        one pixel row included (``test_conv_layout``'s small-GEMM scan)."""
        inferer = make_inferer(patch_batch=patch_batch)
        x = random_image((64, 64))
        ref = inferer.run_unsplit(x).tobytes()
        for grid in ((2, 2), (3, 3), (4, 4)):
            for overlap in (0, 1, 2):
                out = inferer.infer(x, grid=grid, overlap=overlap)
                assert out.tobytes() == ref, (grid, overlap)

    @pytest.mark.parametrize("overlap", [0, 1])
    def test_alexnet_valid_merge_is_byte_identical(self, overlap):
        inferer = make_inferer(alexnet)
        x = random_image((129, 129), seed=1)
        ref = inferer.run_unsplit(x)
        out = inferer.infer(x, grid=(2, 2), overlap=overlap)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("overlap", [0, 1])
    def test_vgg11_valid_merge_is_byte_identical(self, overlap):
        inferer = make_inferer(vgg11, seed=2)
        x = random_image((96, 96), seed=2)
        ref = inferer.run_unsplit(x)
        out = inferer.infer(x, grid=(2, 2), overlap=overlap)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("overlap", [0, 1])
    def test_compiled_path_is_byte_identical(self, overlap):
        """Identity must survive the lowered/fused CompiledPlan path."""
        inferer = make_inferer(compile_plans=True)
        x = random_image((64, 64), seed=3)
        ref = inferer.run_unsplit(x)
        out = inferer.infer(x, grid=(2, 2), overlap=overlap)
        assert out.tobytes() == ref.tobytes()

    def test_batched_input_matches_per_image(self):
        inferer = make_inferer()
        x = random_image((64, 64), seed=4, batch=3)
        out = inferer.infer(x, grid=(2, 2))
        for i in range(3):
            single = inferer.infer(x[i:i + 1], grid=(2, 2))
            assert out[i].tobytes() == single[0].tobytes()


# ----------------------------------------------------------------------
# The join depth: discovered from the budget, exact at every candidate
# ----------------------------------------------------------------------
# (in_hw, grid, overlap, depth): every cell whose depth some budget can
# force.  On a 128x128 image a 4x4 grid joins after either pooling at any
# overlap, and tiles the full body (15) only at overlap 0 — with more
# overlap a full-body patch outweighs the depth-10 tail; the bench
# geometry itself reaches the full body at 8 MiB.
DEPTH_CELLS = [((128, 128), (4, 4), overlap, depth)
               for depth in (5, 10) for overlap in (0, 1, 2)] \
    + [((128, 128), (4, 4), 0, 15), ((256, 256), (4, 4), 1, 15)]


class TestJoinDepth:
    @pytest.mark.parametrize("compile_plans", [False, True])
    @pytest.mark.parametrize("in_hw,grid,overlap,depth", DEPTH_CELLS)
    def test_budget_forced_depth_is_byte_identical(
            self, in_hw, grid, overlap, depth, compile_plans):
        budget = forcing_budget(small_vgg, in_hw, grid, overlap, depth,
                                compile_plans)
        inferer = make_inferer(memory_budget=budget,
                               compile_plans=compile_plans)
        report = inferer.plan_dense(in_hw, grid, overlap)
        assert report.join_depth == depth
        assert report.peak_bytes <= budget
        misses = inferer.cache.misses
        x = random_image(in_hw, seed=8)
        out = inferer.infer(x, grid=grid, overlap=overlap)
        # Steady state: the stream runs entries plan_dense built, and
        # every probe — misfit tails included — was verified once.
        assert inferer.cache.misses == misses == inferer.plans_verified
        assert out.tobytes() == inferer.run_unsplit(x).tobytes()

    def test_candidates_follow_the_down_sampling_stages(self):
        for model_fn, side, depths in ((small_vgg, 64, [5, 10, 15]),
                                       (alexnet, 195, [2, 3, 6, 13]),
                                       (vgg11, 96, [3, 6, 11, 16, 21])):
            with init.fast_init():          # geometry only
                layers = flatten_dense_body(model_fn())
            candidates = join_candidates(layers, (side, side))
            assert [depth for depth, _ in candidates] == depths
            planes = [hw[0] * hw[1] for _, hw in candidates]
            assert planes == sorted(planes, reverse=True)
            assert candidates[-1][0] == len(layers)     # the full body

    def test_a_body_that_never_shrinks_its_plane_costs_no_extra_probe(self):
        """No down-sampling before the last window layer: the full body
        is the only candidate and no tail is ever planned."""
        rng = np.random.default_rng(0)
        body = Sequential(Conv2d(3, 4, kernel_size=3, padding=1, rng=rng),
                          ReLU(),
                          Conv2d(4, 4, kernel_size=3, padding=1, rng=rng),
                          MaxPool2d(2, 2))
        inferer = PatchInferer(body)
        assert join_candidates(inferer.layers, (32, 32)) == [(4, (16, 16))]
        report = inferer.plan_dense((32, 32), (2, 2), 1)
        assert (report.join_depth, report.executions) == (4, 4)
        assert inferer.cache.misses == 4        # the four tile variants
        x = random_image((32, 32), seed=10)
        assert inferer.infer(x, grid=(2, 2), overlap=1).tobytes() \
            == inferer.run_unsplit(x).tobytes()

    @pytest.mark.parametrize("model_fn,side", [
        (small_vgg, 64), (alexnet_body, 195), (vgg11, 64)])
    def test_every_candidate_is_exact(self, model_fn, side, monkeypatch):
        """At every join candidate: the tiles' own ranges partition the
        join plane, a deeper join reads no fewer input pixels, blended
        merges agree with the valid one, and a batch equals its images.
        (Candidate ``i`` is reached by hiding the shallower ones — under
        the default budget the first tail offered always fits.)"""
        inferer = make_inferer(model_fn, seed=9)
        candidates = join_candidates(inferer.layers, (side, side))
        x = random_image((side, side), seed=9, batch=2)
        ref = inferer.run_unsplit(x)
        halo = 0
        for skip, (depth, plane_hw) in enumerate(candidates):
            plan = GridSplitter((2, 2), 1).plan(
                inferer.model, (side, side), depth=depth)
            assert plan.out_hw == plane_hw
            covered = np.zeros(plane_hw, dtype=int)
            for tile in plan.tiles:
                (h0, h1), (w0, w1) = tile.own_range
                covered[h0:h1, w0:w1] += 1
            assert (covered == 1).all()
            pixels = sum(t.in_shape[0] * t.in_shape[1] for t in plan.tiles)
            assert pixels >= halo
            halo = pixels

            monkeypatch.setattr(
                "repro.infer.inferer.join_candidates",
                lambda layers, in_hw, skip=skip: candidates[skip:])
            assert inferer.plan_dense(
                (side, side), (2, 2), 1).join_depth == depth
            out = inferer.infer(x, grid=(2, 2), overlap=1)
            assert out.tobytes() == ref.tobytes()
            single = inferer.infer(x[1:], grid=(2, 2), overlap=1)
            assert single[0].tobytes() == out[1].tobytes()
            for mode in ("constant", "gaussian"):
                blended = inferer.infer(x[:1], grid=(2, 2), overlap=1,
                                        merge=mode)
                np.testing.assert_allclose(blended, out[:1],
                                           rtol=1e-12, atol=1e-12)

    def test_no_tail_fits_falls_back_to_the_full_body(self):
        """Every misfit tail is probed once, through the cache, and the
        tiles then run the whole body — what they did before joins."""
        budget = forcing_budget(small_vgg, (256, 256), (4, 4), 1, 15, False)
        inferer = make_inferer(numeric=False, memory_budget=budget)
        report = inferer.plan_dense((256, 256), (4, 4), 1)
        assert report.join_depth == len(inferer.layers) == 15
        assert (report.patch_batch, report.executions) == (1, 16)
        variants = head_variants(inferer, (256, 256), (4, 4), 1, None)
        assert report.peak_bytes == max(
            inferer.entry_for(v, 1).plan.device_peak for v in variants)
        # 2 misfit tails, 9 variants at patch batch 1, and the same 9
        # probed (and rejected) at 2.
        assert inferer.cache.misses == inferer.plans_verified == 2 + 9 + 9


# ----------------------------------------------------------------------
# Blend merging
# ----------------------------------------------------------------------
class TestBlendMerger:
    @pytest.mark.parametrize("mode", ["constant", "gaussian"])
    def test_blended_merge_matches_unsplit_closely(self, mode):
        """Overlapping tiles compute identical values (exactness), so any
        normalized blend reproduces the unsplit output to roundoff."""
        inferer = make_inferer()
        x = random_image((64, 64), seed=5)
        ref = inferer.run_unsplit(x)
        out = inferer.infer(x, grid=(2, 2), overlap=2, merge=mode)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            BlendMerger("bilinear")
        assert set(MERGE_MODES) == {"valid", "constant", "gaussian"}

    def test_gaussian_importance_is_symmetric_peaked(self):
        merger = BlendMerger("gaussian")
        weight = merger._importance((5, 7))
        assert weight.shape == (5, 7)
        assert (weight > 0).all()
        np.testing.assert_allclose(weight, weight[::-1, ::-1])
        assert weight[2, 3] == weight.max()


# ----------------------------------------------------------------------
# Bounded-memory planning
# ----------------------------------------------------------------------
class TestMemoryBudget:
    def test_budget_bounds_patch_batch_and_peak(self):
        wide = make_inferer(numeric=False)
        report = wide.plan_dense((64, 64), grid=(2, 2))
        assert report.patches == 4
        assert report.patch_batch >= 1
        assert report.peak_bytes <= wide.memory_budget

        # A budget that admits exactly the entries that ran: one patch
        # per execution, then the tail.
        single_peak = max(entry.plan.device_peak
                          for entry in entries_run(wide, report))
        tight = make_inferer(numeric=False, memory_budget=single_peak)
        tight_report = tight.plan_dense((64, 64), grid=(2, 2))
        assert tight_report.join_depth == report.join_depth
        assert tight_report.patch_batch == 1
        assert tight_report.peak_bytes <= single_peak
        assert tight_report.executions == tight_report.patches + 1

    def test_identity_survives_tight_budget(self):
        wide = make_inferer(numeric=False)
        single_peak = max(
            entry.plan.device_peak for entry in entries_run(
                wide, wide.plan_dense((64, 64), grid=(2, 2), overlap=1)))
        tight = make_inferer(memory_budget=single_peak)
        x = random_image((64, 64), seed=6)
        ref = tight.run_unsplit(x)
        out = tight.infer(x, grid=(2, 2), overlap=1)
        assert out.tobytes() == ref.tobytes()

    def test_impossible_budget_suggests_finer_grid(self):
        inferer = make_inferer(numeric=False, memory_budget=1)
        with pytest.raises(ValueError, match="finer grid"):
            inferer.plan_dense((64, 64), grid=(2, 2))

    def test_fixed_patch_batch_over_budget_raises(self):
        inferer = make_inferer(numeric=False, memory_budget=1,
                               patch_batch=4)
        with pytest.raises(ValueError, match="over the"):
            inferer.plan_dense((64, 64), grid=(2, 2))

    def test_unsplit_entry_ignores_budget(self):
        """The unsplit baseline may exceed the budget — it is the point
        of comparison, not a servable plan."""
        inferer = make_inferer(numeric=False, memory_budget=1 << 20)
        entry = inferer.unsplit_entry((64, 64))
        assert entry.plan.device_peak > inferer.memory_budget

    def test_max_single_pass_side_is_dyadic_and_bounded(self):
        inferer = make_inferer(numeric=False)
        budget = 64 << 20
        side = inferer.max_single_pass_side(budget=budget)
        assert side >= 32 and (side & (side - 1)) == 0
        assert inferer.unsplit_entry((side, side)).plan.device_peak \
            <= budget
        assert inferer.unsplit_entry(
            (side * 2, side * 2)).plan.device_peak > budget


class TestInputSmallerThanTheWindows:
    """Regression: alexnet's pooling tail does not fit a 16- or 32-pixel
    input.  The builder used to record a ``(1, 256, -1, -1)`` output, the
    planner planned it, and the failure surfaced as a verifier report
    (or not at all, at side 32: a ``(1, 256, 0, 0)`` output)."""

    @pytest.mark.parametrize("side", [8, 16, 32])
    def test_builder_rejects_the_graph(self, side):
        model = alexnet(rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="does not fit"):
            build_dense_graph(model, flatten_dense_body(model), 1,
                              (side, side))

    def test_pool_window_is_checked_too(self):
        body = Sequential(Conv2d(3, 4, kernel_size=3, padding=1),
                          MaxPool2d(4, 4))
        build_dense_graph(body, flatten_dense_body(body), 1, (4, 4))
        with pytest.raises(ValueError, match="4x4 window"):
            build_dense_graph(body, flatten_dense_body(body), 1, (3, 3))

    def test_run_unsplit_raises_a_typed_error_not_a_verifier_report(self):
        inferer = make_inferer(alexnet)
        with pytest.raises(ValueError, match="does not fit"):
            inferer.run_unsplit(random_image((16, 16)))
        # Nothing was built, so nothing was counted.
        assert (inferer.cache.hits, inferer.cache.misses,
                len(inferer.cache)) == (0, 0, 0)
        assert inferer.plans_verified == 0

    def test_single_pass_search_skips_sides_the_windows_reject(self):
        inferer = make_inferer(alexnet, numeric=False)
        budget = 64 << 20
        side = inferer.max_single_pass_side(budget=budget, start=8)
        assert side >= 64 and (side & (side - 1)) == 0
        assert side == inferer.max_single_pass_side(budget=budget, start=64)
        # Sides 8, 16 and 32 were rejected, not planned: every miss is a
        # resident, verified plan with a real output extent.
        cache = inferer.cache
        assert cache.misses == len(cache) + cache.evictions
        assert inferer.plans_verified == cache.misses
        for key in cache.keys():
            assert key[2][0] >= 64


# ----------------------------------------------------------------------
# Plan cache + counters
# ----------------------------------------------------------------------
class TestCacheAndCounters:
    def test_repeat_plan_hits_cache(self):
        inferer = make_inferer(numeric=False)
        inferer.plan_dense((64, 64), grid=(2, 2))
        misses = inferer.cache.misses
        inferer.plan_dense((64, 64), grid=(2, 2))
        assert inferer.cache.misses == misses
        assert inferer.cache.hits > 0
        assert inferer.cache.misses == len(inferer.cache) \
            + inferer.cache.evictions

    def test_plans_verified_tracks_cache_misses(self):
        inferer = make_inferer(numeric=False)
        inferer.plan_dense((64, 64), grid=(2, 2))
        inferer.plan_dense((64, 64), grid=(3, 3))
        assert inferer.plans_verified == inferer.cache.misses

    def test_patch_counters_account_padding(self):
        inferer = make_inferer(patch_batch=4)
        x = random_image((80, 80), seed=7)
        # 25 patches: four corners of 1 tile (bucket 1), four edges of 3
        # (bucket 4, one zero slot each), an interior of 9 (4 + 4 + 1);
        # the tail is an execution, not a patch.
        inferer.infer(x, grid=(5, 5))
        assert inferer.executed_patches == 25
        report = inferer.plan_dense((80, 80), grid=(5, 5))
        entries = entries_run(inferer, report)
        assert report.executions == len(entries) == 4 + 4 + 3 + 1
        assert sum(entry.batch for entry in entries[:-1]) == 25 + 4
        assert inferer.padded_patches == report.padded_patches == 4

    def test_default_budget_runs_the_patches_the_image_has(self):
        """A 2x2 grid is four one-tile variants: the whole-device budget
        would fit 64 patches per execution, and nothing can fill them."""
        inferer = make_inferer()
        report = inferer.plan_dense((64, 64), grid=(2, 2))
        entries = entries_run(inferer, report)
        # Four tiles through the first candidate (its tail fits any
        # budget this large), then that tail.
        assert (report.join_depth, report.patch_batch, report.executions,
                report.padded_patches) == (5, 1, 5, 0)
        assert len(inferer.cache) == 5          # no batch-2..64 graphs
        assert report.latency == sum(entry.latency for entry in entries)
        assert report.peak_bytes == max(entry.plan.device_peak
                                        for entry in entries)
        inferer.infer(random_image((64, 64)), grid=(2, 2))
        assert inferer.executed_patches + inferer.padded_patches == 4

    def test_report_sums_the_entries_run(self):
        """Short chunks are priced at the bucket they run on, the tail
        once."""
        inferer = make_inferer(numeric=False, memory_budget=16 << 20)
        report = inferer.plan_dense((256, 256), grid=(4, 4), overlap=1)
        assert (report.join_depth, report.patch_batch) == (10, 2)
        # Corners own 1 tile, edges 2, the interior 4.
        entries = entries_run(inferer, report)
        assert sorted(entry.batch for entry in entries[:-1]) \
            == [1] * 4 + [2] * 6
        assert report.executions == len(entries) == 10 + 1
        assert report.padded_patches == 0
        assert report.latency == sum(entry.latency for entry in entries)
        assert report.peak_bytes == max(entry.plan.device_peak
                                        for entry in entries)

    def test_steady_state_infer_adds_no_miss_after_plan_dense(self):
        """The remainder buckets are entries the search already built."""
        inferer = make_inferer(memory_budget=16 << 20)
        inferer.plan_dense((80, 80), grid=(5, 5))
        misses = inferer.cache.misses
        inferer.infer(random_image((80, 80)), grid=(5, 5))
        assert inferer.cache.misses == misses == inferer.plans_verified


# ----------------------------------------------------------------------
# Input validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_symbolic_inferer_rejects_numerics(self):
        inferer = make_inferer(numeric=False)
        with pytest.raises(ValueError, match="numeric"):
            inferer.infer(random_image((64, 64)))
        with pytest.raises(ValueError, match="numeric"):
            inferer.run_unsplit(random_image((64, 64)))

    def test_wrong_dtype_rejected(self):
        inferer = make_inferer()
        x = random_image((64, 64)).astype(np.float32)
        with pytest.raises(TypeError, match="float64"):
            inferer.infer(x)

    def test_wrong_rank_and_channels_rejected(self):
        inferer = make_inferer()
        with pytest.raises(ValueError, match="channels"):
            inferer.infer(np.zeros((1, 4, 64, 64)))
        with pytest.raises(ValueError, match="dense input"):
            inferer.infer(np.zeros((1, 1, 3, 64, 64)))

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_budget_rejected(self, budget):
        # NaN passed a `< 1` check and then streamed as if the budget
        # were unbounded; None asks for the whole device.
        model = small_vgg(rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="finite"):
            PatchInferer(model, memory_budget=budget)

    def test_constructor_validation(self):
        model = small_vgg(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            PatchInferer(model, memory_budget=0)
        with pytest.raises(ValueError):
            PatchInferer(model, patch_batch=0)
