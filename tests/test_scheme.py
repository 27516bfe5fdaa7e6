"""Unit + property tests for the split-scheme mathematics (paper §3.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheme import (
    SplitScheme, WindowSpec, compute_input_split, compute_paddings,
    input_split_bounds,
)


class TestWindowSpec:
    def test_output_size_formula(self):
        assert WindowSpec(3, 1, 1, 1).output_size(32) == 32
        assert WindowSpec(2, 2).output_size(32) == 16
        assert WindowSpec(7, 2, 3, 3).output_size(224) == 112
        assert WindowSpec(3, 2, 1, 1).output_size(224) == 112

    def test_window_too_large_raises(self):
        with pytest.raises(ValueError):
            WindowSpec(5, 1).output_size(3)

    def test_invalid_kernel_stride(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 1)
        with pytest.raises(ValueError):
            WindowSpec(3, 0)


class TestSplitScheme:
    def test_even_split(self):
        assert SplitScheme.even(16, 4).boundaries == (0, 4, 8, 12)

    def test_even_split_uneven_total(self):
        scheme = SplitScheme.even(10, 3)
        assert scheme.boundaries[0] == 0
        assert scheme.part_sizes(10) == (3, 4, 3)

    def test_trivial(self):
        assert SplitScheme((0,)).num_parts == 1

    def test_part_range(self):
        scheme = SplitScheme((0, 4, 8))
        assert scheme.part_range(0, 12) == (0, 4)
        assert scheme.part_range(2, 12) == (8, 12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitScheme(())
        with pytest.raises(ValueError):
            SplitScheme((1, 4))
        with pytest.raises(ValueError):
            SplitScheme((0, 4, 4))
        with pytest.raises(ValueError):
            SplitScheme.even(4, 5)

    def test_part_sizes_out_of_range(self):
        with pytest.raises(ValueError):
            SplitScheme((0, 5)).part_sizes(5)


class TestBounds:
    def test_equations_1_and_2(self):
        # k=3, s=1, p_b=1: lb = O - 1, ub = O + 1.
        spec = WindowSpec(3, 1, 1, 1)
        bounds = input_split_bounds(SplitScheme((0, 8)), spec)
        assert bounds == [(0, 0), (7, 9)]

    def test_kernel_equals_stride_collapses(self):
        # Paper: lb == ub when k == s (natural, non-intrusive splitting).
        spec = WindowSpec(2, 2)
        bounds = input_split_bounds(SplitScheme((0, 4, 8)), spec)
        assert bounds == [(0, 0), (8, 8), (16, 16)]

    def test_kernel_less_than_stride_normalized(self):
        # 1x1 stride-2: formulas give ub < lb; returned pair is (min, max).
        spec = WindowSpec(1, 2)
        (_, (low, high)) = input_split_bounds(SplitScheme((0, 4)), spec)
        assert low <= high
        assert (low, high) == (7, 8)


class TestPaddings:
    def test_natural_split_zero_interior_padding(self):
        spec = WindowSpec(2, 2)
        out = SplitScheme((0, 4, 8))
        inp = compute_input_split(out, spec, input_size=32)
        pads = compute_paddings(out, inp, spec, 16)
        assert pads == [(0, 0), (0, 0), (0, 0)]

    def test_first_and_last_keep_original_padding(self):
        spec = WindowSpec(3, 1, 1, 1)
        out = SplitScheme.even(32, 4)
        inp = compute_input_split(out, spec, input_size=32)
        pads = compute_paddings(out, inp, spec, 32)
        assert pads[0][0] == 1       # p_b preserved on first patch
        assert pads[-1][1] == 1      # p_e preserved on last patch

    def test_boundary_conditions_of_formulas(self):
        # At I = lb, begin padding is 0; at I = ub it is k - s.
        spec = WindowSpec(5, 2, 0, 0)
        out = SplitScheme((0, 6))
        lb, ub = input_split_bounds(out, spec)[1]
        pads_lb = compute_paddings(out, SplitScheme((0, lb)), spec, 12)
        pads_ub = compute_paddings(out, SplitScheme((0, ub)), spec, 12)
        assert pads_lb[1][0] == 0
        assert pads_ub[1][0] == spec.kernel - spec.stride

    def test_out_of_range_split_gives_negative_padding(self):
        spec = WindowSpec(3, 1, 0, 0)
        out = SplitScheme((0, 8))
        bounds = input_split_bounds(out, spec)[1]
        beyond = SplitScheme((0, bounds[1] + 2))
        pads = compute_paddings(out, beyond, spec, 16)
        assert pads[1][0] > spec.kernel - spec.stride or pads[0][1] < 0

    def test_mismatched_parts_raise(self):
        spec = WindowSpec(3, 1, 1, 1)
        with pytest.raises(ValueError):
            compute_paddings(SplitScheme((0, 4)), SplitScheme((0, 4, 8)),
                             spec, 16)

    def test_invalid_output_size_raises(self):
        spec = WindowSpec(3, 1, 1, 1)
        with pytest.raises(ValueError):
            compute_paddings(SplitScheme((0, 8)), SplitScheme((0, 8)), spec, 8)


class TestComputeInputSplit:
    def test_position_interpolates(self):
        spec = WindowSpec(3, 1, 1, 1)
        out = SplitScheme((0, 8))
        at_lb = compute_input_split(out, spec, 16, position=0.0)
        at_ub = compute_input_split(out, spec, 16, position=1.0)
        assert at_lb.boundaries[1] == 7
        assert at_ub.boundaries[1] == 9

    def test_out_of_range_position_extrapolates(self):
        # Footnote 1: positions outside [0, 1] are workable — the split
        # lands outside [lb, ub] and the paddings crop (negative padding).
        spec = WindowSpec(3, 1, 1, 1)
        out = SplitScheme((0, 8))
        beyond = compute_input_split(out, spec, 16, position=3.0)
        lb, ub = input_split_bounds(out, spec)[1]
        assert beyond.boundaries[1] > ub
        pads = compute_paddings(out, beyond, spec, 16)
        assert pads[0][1] < 0  # first patch crops its tail

    def test_absurd_position_rejected(self):
        with pytest.raises(ValueError):
            compute_input_split(SplitScheme((0, 4)), WindowSpec(3, 1), 16, 99.0)

    def test_too_many_splits_raises(self):
        spec = WindowSpec(3, 1, 1, 1)
        with pytest.raises(ValueError):
            compute_input_split(SplitScheme((0, 1, 2, 3)), spec, 3)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
window_specs = st.builds(
    WindowSpec,
    kernel=st.integers(1, 5),
    stride=st.integers(1, 3),
    pad_begin=st.integers(0, 2),
    pad_end=st.integers(0, 2),
).filter(lambda s: s.kernel >= s.stride)


@st.composite
def spec_and_split(draw):
    spec = draw(window_specs)
    input_size = draw(st.integers(12, 48))
    output_size = spec.output_size(input_size)
    parts = draw(st.integers(1, min(4, output_size)))
    output_split = SplitScheme.even(output_size, parts)
    position = draw(st.floats(0.0, 1.0))
    return spec, input_size, output_split, position


@given(spec_and_split())
@settings(max_examples=200, deadline=None)
def test_patch_output_sizes_sum_to_total(case):
    """Any in-range input split yields patches covering the exact output."""
    spec, input_size, output_split, position = case
    output_size = spec.output_size(input_size)
    try:
        input_split = compute_input_split(output_split, spec, input_size, position)
    except ValueError:
        return  # infeasible boundary packing for tiny dims — acceptable
    pads = compute_paddings(output_split, input_split, spec, output_size)
    total = 0
    in_sizes = input_split.part_sizes(input_size)
    for index, (pad_b, pad_e) in enumerate(pads):
        padded = in_sizes[index] + pad_b + pad_e
        assert padded >= spec.kernel
        patch_out = (padded - spec.kernel) // spec.stride + 1
        expected = output_split.part_sizes(output_size)[index]
        assert patch_out == expected
        total += patch_out
    assert total == output_size


@given(spec_and_split())
@settings(max_examples=200, deadline=None)
def test_input_split_within_bounds(case):
    spec, input_size, output_split, position = case
    try:
        input_split = compute_input_split(output_split, spec, input_size, position)
    except ValueError:
        return
    bounds = input_split_bounds(output_split, spec)
    for boundary, (low, high) in zip(input_split.boundaries[1:], bounds[1:]):
        # compute_input_split may clamp for feasibility; when unclamped it
        # must respect Equations 1-2.
        if 0 < boundary < input_size:
            assert low - input_size <= boundary <= high + input_size  # sanity
    # Strictly increasing and interior:
    assert all(b2 > b1 for b1, b2 in zip(input_split.boundaries,
                                         input_split.boundaries[1:]))


@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2),
       st.integers(8, 40), st.integers(2, 4))
@settings(max_examples=150, deadline=None)
def test_interval_width_is_kernel_minus_stride(kernel, stride, pad, size, parts):
    """ub - lb == k - s for every interior boundary (follows Eq. 1-2)."""
    if kernel < stride:
        return
    spec = WindowSpec(kernel, stride, pad, pad)
    output_size = spec.output_size(size)
    if output_size < parts:
        return
    bounds = input_split_bounds(SplitScheme.even(output_size, parts), spec)
    for low, high in bounds[1:]:
        assert high - low == kernel - stride
