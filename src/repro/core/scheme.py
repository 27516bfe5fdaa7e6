"""Split-scheme mathematics (paper §3.1).

Everything here is one-dimensional: a 2-D split is the Cartesian product of
an independent scheme per spatial dimension (paper Figure 2).

Notation (paper's):

- A window op ``Op(X, k, s, p)`` has kernel ``k``, stride ``s`` and padding
  ``p = (p_b, p_e)``.
- An *output split scheme* ``O = (O_0, ..., O_{N-1})`` lists the starting
  output index of each patch (``O_0 = 0``).
- An *input split scheme* ``I`` lists starting input indices.  For every
  input element to be consumed by some patch, ``I_i`` must lie in
  ``[lb(I_i), ub(I_i)]`` (Equations 1-2):

  - ``lb(I_i) = O_i * s - p_b``          (start of the first window of patch i)
  - ``ub(I_i) = (O_i - 1) * s + k - p_b``  (end of the last window of patch i-1)

- Per-patch paddings make each patch produce exactly
  ``O_{i+1} - O_i`` outputs:

  - ``p_{i,b} = I_i + p_b - O_i * s``
  - ``p_{i,e} = (O_{i+1} - 1) * s + k - (I_{i+1} + p_b)``

  (The paper's printed ``p_{i,b}`` uses ``(O_i - 1) * s``; substituting the
  natural split ``I_i = O_i * s - p_b`` then yields padding ``s`` instead of
  the required 0, so we take the ``O_i * s`` form, which satisfies all of
  the paper's stated boundary conditions: zero at ``lb``, ``k - s`` at
  ``ub``, and ``p_b`` for ``i = 0``.)

These padding formulas are *total*: any integer ``I_i`` yields patches of
the correct output size.  Choices outside ``[lb, ub]`` produce negative
(cropping) paddings — the paper's footnote-1 "negative padding" that
abandons features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "WindowSpec", "SplitScheme", "input_split_bounds", "compute_input_split",
    "compute_paddings", "PatchPadding", "receptive_interval",
    "window_input_range", "GRID_OF_SPLITS",
]

PatchPadding = Tuple[int, int]

# The paper's split counts mapped onto (h, w) patch grids.
GRID_OF_SPLITS: Dict[int, Tuple[int, int]] = {
    1: (1, 1), 2: (1, 2), 3: (1, 3), 4: (2, 2), 6: (2, 3), 9: (3, 3),
}


@dataclass(frozen=True)
class WindowSpec:
    """A 1-D window-based operation: kernel, stride and (begin, end) padding.

    The paper mandates ``k >= s`` for split regions, but ``k < s``
    (e.g. 1x1 stride-2 shortcut convolutions in ResNet) is representable;
    for those, inputs between consecutive windows are dead even in the
    unsplit op, so splitting with cropping paddings stays exact.
    """

    kernel: int
    stride: int
    pad_begin: int = 0
    pad_end: int = 0

    def __post_init__(self) -> None:
        if self.kernel < 1:
            raise ValueError(f"kernel must be >= 1, got {self.kernel}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    def output_size(self, input_size: int) -> int:
        """Number of output elements the unsplit op produces."""
        span = input_size + self.pad_begin + self.pad_end - self.kernel
        if span < 0:
            raise ValueError(
                f"window {self.kernel} does not fit padded input "
                f"{input_size}+{self.pad_begin}+{self.pad_end}"
            )
        return span // self.stride + 1


@dataclass(frozen=True)
class SplitScheme:
    """Starting indices of each part of a 1-D split: ``boundaries[0] == 0``.

    ``boundaries[i]`` is the paper's ``s_i`` / ``O_i`` / ``I_i`` depending on
    which tensor the scheme addresses.
    """

    boundaries: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.boundaries:
            raise ValueError("a split scheme needs at least one part")
        if self.boundaries[0] != 0:
            raise ValueError(f"first boundary must be 0, got {self.boundaries[0]}")
        for previous, current in zip(self.boundaries, self.boundaries[1:]):
            if current <= previous:
                raise ValueError(
                    f"boundaries must be strictly increasing, got {self.boundaries}"
                )

    @property
    def num_parts(self) -> int:
        return len(self.boundaries)

    def part_sizes(self, total: int) -> Tuple[int, ...]:
        """Sizes of each part for a dimension of length ``total``."""
        if self.boundaries[-1] >= total:
            raise ValueError(
                f"last boundary {self.boundaries[-1]} does not fit dimension {total}"
            )
        stops = self.boundaries[1:] + (total,)
        return tuple(stop - start for start, stop in zip(self.boundaries, stops))

    def part_range(self, index: int, total: int) -> Tuple[int, int]:
        """Half-open ``[start, stop)`` range of part ``index``."""
        start = self.boundaries[index]
        stop = self.boundaries[index + 1] if index + 1 < self.num_parts else total
        return start, stop

    @staticmethod
    def even(total: int, parts: int) -> "SplitScheme":
        """Split ``total`` into ``parts`` near-equal pieces (paper's default)."""
        if parts < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        if parts > total:
            raise ValueError(f"cannot split dimension {total} into {parts} parts")
        boundaries = tuple(round(i * total / parts) for i in range(parts))
        return SplitScheme(boundaries)


def receptive_interval(spec: WindowSpec, out_start: int,
                       out_stop: int) -> Tuple[int, int]:
    """Half-open input interval ``[lo, hi)`` feeding outputs
    ``[out_start, out_stop)`` — the Eq. 1-2 primitive.

    ``lo`` is the paper's ``lb(I_i)`` for a boundary at ``out_start`` (the
    start of that output's first window) and ``hi`` is ``ub(I_i)`` for a
    boundary at ``out_stop`` (one past the end of the last window).  The
    interval is expressed in *unpadded* input coordinates, so it may
    extend below 0 or beyond the input size — the overhang is exactly the
    zero padding the unsplit op would apply there.  Both the split-scheme
    bounds (:func:`input_split_bounds`, hence every ``SplitRegion``'s
    patch boundaries) and the patch-inference tiler
    (:func:`window_input_range`, hence ``repro.infer.GridSplitter``)
    derive from this one function, which is what keeps their border
    semantics provably identical.
    """
    if out_stop <= out_start:
        raise ValueError(
            f"empty output range [{out_start}, {out_stop})")
    lo = out_start * spec.stride - spec.pad_begin
    hi = (out_stop - 1) * spec.stride + spec.kernel - spec.pad_begin
    return lo, hi


def window_input_range(spec: WindowSpec, out_start: int, out_stop: int,
                       input_size: int) -> Tuple[int, int, int, int]:
    """Input slice + paddings computing outputs ``[out_start, out_stop)``
    exactly: ``(start, stop, pad_begin, pad_end)``.

    The receptive interval is clamped to the real input; whatever falls
    outside becomes explicit padding — by construction the same zero
    padding the unsplit op applies at the image border, so a patch at the
    border behaves bit-for-bit like the corresponding rows of the unsplit
    op, and an interior patch (no clamping) needs no padding at all.
    """
    lo, hi = receptive_interval(spec, out_start, out_stop)
    pad_b = max(0, -lo)
    pad_e = max(0, hi - input_size)
    return max(lo, 0), min(hi, input_size), pad_b, pad_e


def input_split_bounds(output_split: SplitScheme, spec: WindowSpec) -> List[Tuple[int, int]]:
    """Per-boundary ``(lb, ub)`` interval for the input split (Eq. 1-2).

    Entry 0 is always ``(0, 0)`` — the first patch starts at the beginning.
    For ``k < s`` the formulas give ``ub < lb``; the returned pair is
    normalized to ``(min, max)`` since any point between them is exact.
    """
    bounds: List[Tuple[int, int]] = [(0, 0)]
    for o_i in output_split.boundaries[1:]:
        # lb of the boundary = start of patch i's receptive field; ub =
        # end of patch i-1's — the two ends of the shared Eq. 1-2 interval.
        lb = receptive_interval(spec, o_i, o_i + 1)[0]
        ub = receptive_interval(spec, o_i - 1, o_i)[1]
        bounds.append((min(lb, ub), max(lb, ub)))
    return bounds


def compute_input_split(
    output_split: SplitScheme,
    spec: WindowSpec,
    input_size: int,
    position: float = 0.5,
) -> SplitScheme:
    """Choose an input split for ``output_split`` (paper Eq. 3).

    ``position`` interpolates inside each ``[lb, ub]`` interval (0 -> lb,
    1 -> ub).  Values outside ``[0, 1]`` extrapolate beyond the interval —
    the paper's footnote-1 case: the split remains *workable* (the padding
    formulas turn negative and crop), but features at the boundary are
    abandoned, typically costing accuracy.  The result is clamped so
    boundaries stay strictly increasing and inside ``(0, input_size)``;
    raises when that is impossible (too many splits for the dimension).
    """
    if not -8.0 <= position <= 9.0:
        raise ValueError(
            f"position must be within [-8, 9] (0..1 interpolates inside "
            f"[lb, ub], outside extrapolates), got {position}"
        )
    bounds = input_split_bounds(output_split, spec)
    boundaries = [0]
    for index, (lb, ub) in enumerate(bounds[1:], start=1):
        candidate = int(round(lb + position * (ub - lb)))
        candidate = max(candidate, boundaries[-1] + 1)
        candidate = min(candidate, input_size - (len(bounds) - index))
        if candidate <= boundaries[-1] or candidate >= input_size:
            raise ValueError(
                f"cannot place split boundary {index} inside dimension of "
                f"size {input_size}: interval [{lb}, {ub}] collides with "
                f"previous boundary {boundaries[-1]}"
            )
        boundaries.append(candidate)
    return SplitScheme(tuple(boundaries))


def compute_paddings(
    output_split: SplitScheme,
    input_split: SplitScheme,
    spec: WindowSpec,
    output_size: int,
) -> List[PatchPadding]:
    """Per-patch ``(begin, end)`` paddings (paper Eq. 5).

    ``output_size`` is the unsplit op's total output length, needed to size
    the final patch.  Negative entries crop (feature abandonment).
    """
    if output_split.num_parts != input_split.num_parts:
        raise ValueError(
            f"output split has {output_split.num_parts} parts but input "
            f"split has {input_split.num_parts}"
        )
    if output_split.boundaries[-1] >= output_size:
        raise ValueError(
            f"last output boundary {output_split.boundaries[-1]} does not "
            f"fit output of size {output_size}"
        )
    k, s = spec.kernel, spec.stride
    p_b, p_e = spec.pad_begin, spec.pad_end
    n = output_split.num_parts
    paddings: List[PatchPadding] = []
    for i in range(n):
        o_i = output_split.boundaries[i]
        i_i = input_split.boundaries[i]
        pad_b = i_i + p_b - o_i * s
        if i == n - 1:
            pad_e = p_e
        else:
            o_next = output_split.boundaries[i + 1]
            i_next = input_split.boundaries[i + 1]
            pad_e = (o_next - 1) * s + k - (i_next + p_b)
        paddings.append((pad_b, pad_e))
    return paddings
