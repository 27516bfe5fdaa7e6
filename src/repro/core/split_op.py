"""Split execution of a single 2-D window-based operation (paper Eq. 3-7).

Given an output split scheme per spatial dimension, the input is cut into
``h_parts x w_parts`` patches, the operation runs on every patch with its
own computed padding, and the patch outputs are concatenated back — exactly
the formulation of §3.1 generalized to 2-D (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..tensor import Tensor, concat, slice_
from ..tensor.ops_nn import IntPair, Padding2d
from .scheme import (
    PatchPadding, SplitScheme, WindowSpec, compute_input_split, compute_paddings,
)

__all__ = ["SplitPlan1d", "SplitPlan2d", "plan_split_1d", "plan_split_2d",
           "run_split_op", "split_conv2d"]


@dataclass(frozen=True)
class SplitPlan1d:
    """Everything needed to split one spatial dimension of one op."""

    spec: WindowSpec
    input_split: SplitScheme
    output_split: SplitScheme
    paddings: Tuple[PatchPadding, ...]
    input_size: int
    output_size: int


@dataclass(frozen=True)
class SplitPlan2d:
    """Per-dimension plans for a 2-D window op."""

    height: SplitPlan1d
    width: SplitPlan1d

    @property
    def num_patches(self) -> Tuple[int, int]:
        return (self.height.output_split.num_parts, self.width.output_split.num_parts)

    def patch_padding(self, i: int, j: int) -> Padding2d:
        """Padding for patch ``(i, j)`` as ``((top, bottom), (left, right))``."""
        return (self.height.paddings[i], self.width.paddings[j])


def plan_split_1d(
    spec: WindowSpec,
    input_size: int,
    output_split: SplitScheme,
    position: float = 0.5,
    input_split: Optional[SplitScheme] = None,
) -> SplitPlan1d:
    """Derive the input split and paddings for one dimension.

    ``input_split`` may be supplied directly (multi-layer splitting feeds a
    downstream layer's input scheme here); otherwise it is computed from the
    output scheme via Equations 1-2 at the given interpolation ``position``.
    """
    output_size = spec.output_size(input_size)
    if input_split is None:
        input_split = compute_input_split(output_split, spec, input_size, position)
    paddings = tuple(compute_paddings(output_split, input_split, spec, output_size))
    return SplitPlan1d(
        spec=spec,
        input_split=input_split,
        output_split=output_split,
        paddings=paddings,
        input_size=input_size,
        output_size=output_size,
    )


def plan_split_2d(
    spec_h: WindowSpec,
    spec_w: WindowSpec,
    input_hw: IntPair,
    output_split_h: SplitScheme,
    output_split_w: SplitScheme,
    position: float = 0.5,
) -> SplitPlan2d:
    """Plan both spatial dimensions of a window op."""
    return SplitPlan2d(
        height=plan_split_1d(spec_h, input_hw[0], output_split_h, position),
        width=plan_split_1d(spec_w, input_hw[1], output_split_w, position),
    )


PatchOp = Callable[[Tensor, Padding2d], Tensor]


def run_split_op(x: Tensor, plan: SplitPlan2d, patch_op: PatchOp) -> Tensor:
    """Execute ``patch_op`` per patch and concatenate (Eq. 4, 6, 7).

    ``patch_op(patch, padding)`` must run the underlying window operation on
    one input patch with the supplied per-patch padding.
    """
    h_split, w_split = plan.height.input_split, plan.width.input_split
    h_total, w_total = plan.height.input_size, plan.width.input_size
    rows: List[Tensor] = []
    for i in range(h_split.num_parts):
        h_start, h_stop = h_split.part_range(i, h_total)
        row_patches: List[Tensor] = []
        for j in range(w_split.num_parts):
            w_start, w_stop = w_split.part_range(j, w_total)
            patch = slice_(
                x,
                (slice(None), slice(None), slice(h_start, h_stop), slice(w_start, w_stop)),
            )
            row_patches.append(patch_op(patch, plan.patch_padding(i, j)))
        rows.append(concat(row_patches, axis=3) if len(row_patches) > 1 else row_patches[0])
    return concat(rows, axis=2) if len(rows) > 1 else rows[0]


def split_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: IntPair,
    padding: Padding2d,
    output_split_h: SplitScheme,
    output_split_w: SplitScheme,
    position: float = 0.5,
) -> Tensor:
    """Split-execute a conv2d; drop-in replacement for the unsplit call."""
    from ..tensor import conv2d

    kh, kw = weight.shape[2], weight.shape[3]
    spec_h = WindowSpec(kh, stride[0], padding[0][0], padding[0][1])
    spec_w = WindowSpec(kw, stride[1], padding[1][0], padding[1][1])
    plan = plan_split_2d(
        spec_h, spec_w, (x.shape[2], x.shape[3]), output_split_h, output_split_w, position
    )
    return run_split_op(
        x, plan,
        lambda patch, pad: conv2d(patch, weight, bias, stride=stride, padding=pad),
    )

