"""Receptive-field-exact grid tiling for streaming patch inference.

A :class:`GridSplitter` tiles the *output* plane of a dense (fully
convolutional) feature extractor into a grid of rectangles, then
back-propagates each rectangle through every layer with
:func:`repro.core.scheme.window_input_range` — the same Eq. 1-2 primitive
that sizes :class:`~repro.mesh.partition.MeshPartitioner` halos — to find
the exact input window and per-layer paddings that compute it.

Two properties follow directly from that construction:

- **Border exactness.**  A tile touching the image border receives, at
  every layer, exactly the zero padding the unsplit op applies there
  (clamping overhang to explicit padding), so its outputs are
  bit-identical to the corresponding region of the unsplit pass.
- **Interior exactness.**  An interior tile is clamped nowhere, carries
  no padding at all, and reads real halo pixels instead — again
  bit-identical.

Tiles are grouped into :class:`PatchVariant` equivalence classes — same
input shape, same per-layer paddings — so a grid of any size needs at
most nine distinct graphs (four corners, four edge flavors, interior)
and same-variant patches can batch along the batch dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.region import window_specs_of
from ..core.scheme import SplitScheme, WindowSpec, window_input_range
from ..models.base import ConvClassifier
from ..nn import (
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, MaxPool2d, Module, ReLU,
    Sequential, Sigmoid, Tanh,
)

__all__ = [
    "GridSplitter", "PatchPlan", "PatchSpec", "PatchVariant",
    "flatten_dense_body", "join_candidates", "WINDOW_TYPES",
    "ELEMENTWISE_TYPES",
]

WINDOW_TYPES = (Conv2d, MaxPool2d, AvgPool2d)
ELEMENTWISE_TYPES = (BatchNorm2d, ReLU, Sigmoid, Tanh, Dropout)

# ((pad_top, pad_bottom), (pad_left, pad_right)) — the builder's padding
# attribute format; None for elementwise layers.
LayerPadding = Optional[Tuple[Tuple[int, int], Tuple[int, int]]]


def flatten_dense_body(model: Module) -> List[Module]:
    """Flatten a dense feature extractor into a list of leaf layers.

    Accepts a :class:`ConvClassifier` (its ``features`` attribute is
    taken — patch inference covers the spatially-dense prefix, not the
    flatten/classifier head), a :class:`~repro.core.region.SplitRegion`
    (unwrapped to its body: training-time splitting and inference-time
    tiling are both receptive-field partitions, so the tiler subsumes
    the region), or any nesting of :class:`Sequential` over the window
    and elementwise leaf types.  Raises :class:`TypeError` on anything
    else (residual blocks need a tile-aware handler; none exists and no
    ROADMAP item plans one).
    """
    # Deferred import: SplitRegion lives beside the handlers that import
    # scheme machinery; keep the module graph acyclic.
    from ..core.region import SplitRegion

    if isinstance(model, ConvClassifier):
        return flatten_dense_body(model.features)
    layers: List[Module] = []
    if isinstance(model, SplitRegion):
        return flatten_dense_body(model.body)
    if isinstance(model, Sequential):
        for item in model:
            layers.extend(flatten_dense_body(item))
        return layers
    if isinstance(model, WINDOW_TYPES + ELEMENTWISE_TYPES):
        return [model]
    raise TypeError(
        f"patch inference supports sequential window/elementwise bodies; "
        f"{type(model).__name__} needs a dedicated tile handler"
    )


@dataclass(frozen=True)
class PatchVariant:
    """Equivalence class of tiles sharing one graph.

    Two tiles run the same graph iff their input windows have the same
    spatial shape and every layer applies the same padding.  A grid has
    at most nine variants (corner/edge/interior flavors), which is what
    keeps the plan cache small and patch batching possible.
    """

    in_shape: Tuple[int, int]
    layer_paddings: Tuple[LayerPadding, ...]


@dataclass(frozen=True)
class PatchSpec:
    """One tile: where it reads, what it computes, what it owns.

    ``in_range`` / ``out_range`` are half-open ``((h0, h1), (w0, w1))``
    rectangles in input / output coordinates; ``own_range`` is the
    sub-rectangle of ``out_range`` this tile contributes to a
    ``"valid"`` merge (its grid cell, before overlap expansion).
    """

    index: Tuple[int, int]
    in_range: Tuple[Tuple[int, int], Tuple[int, int]]
    out_range: Tuple[Tuple[int, int], Tuple[int, int]]
    own_range: Tuple[Tuple[int, int], Tuple[int, int]]
    layer_paddings: Tuple[LayerPadding, ...]

    @property
    def in_shape(self) -> Tuple[int, int]:
        (h0, h1), (w0, w1) = self.in_range
        return (h1 - h0, w1 - w0)

    @property
    def out_shape(self) -> Tuple[int, int]:
        (h0, h1), (w0, w1) = self.out_range
        return (h1 - h0, w1 - w0)

    @property
    def variant(self) -> PatchVariant:
        return PatchVariant(self.in_shape, self.layer_paddings)

    def extract(self, image: np.ndarray) -> np.ndarray:
        """Slice this tile's input window (with halo) out of ``image``."""
        (h0, h1), (w0, w1) = self.in_range
        return image[..., h0:h1, w0:w1]


@dataclass
class PatchPlan:
    """A complete tiling of one input size: geometry only, no graphs."""

    grid: Tuple[int, int]
    overlap: int
    in_hw: Tuple[int, int]
    out_hw: Tuple[int, int]
    tiles: List[PatchSpec] = field(default_factory=list)

    @property
    def num_patches(self) -> int:
        return len(self.tiles)

    @property
    def depth(self) -> int:
        """How many layers of the body the tiles run."""
        return len(self.tiles[0].layer_paddings)

    def variants(self) -> Dict[PatchVariant, List[PatchSpec]]:
        """Tiles grouped by graph identity, insertion-ordered."""
        groups: Dict[PatchVariant, List[PatchSpec]] = {}
        for tile in self.tiles:
            groups.setdefault(tile.variant, []).append(tile)
        return groups


def _axis_specs(layers: List[Module]) -> Tuple[List[Optional[WindowSpec]],
                                               List[Optional[WindowSpec]]]:
    """Per-layer (height, width) WindowSpecs; None for elementwise."""
    specs_h: List[Optional[WindowSpec]] = []
    specs_w: List[Optional[WindowSpec]] = []
    for layer in layers:
        if isinstance(layer, WINDOW_TYPES):
            spec_h, spec_w = window_specs_of(layer)
            specs_h.append(spec_h)
            specs_w.append(spec_w)
        else:
            specs_h.append(None)
            specs_w.append(None)
    return specs_h, specs_w


def _axis_sizes(specs: List[Optional[WindowSpec]], size: int) -> List[int]:
    """Input size of every layer along one axis, plus the final output.

    ``sizes[i]`` is layer ``i``'s input length; ``sizes[-1]`` the dense
    output length.  Raises when a window does not fit (input too small).
    """
    sizes = [size]
    for spec in specs:
        sizes.append(spec.output_size(sizes[-1]) if spec is not None
                     else sizes[-1])
    return sizes


def _back_axis(specs: List[Optional[WindowSpec]], sizes: List[int],
               out_start: int, out_stop: int,
               ) -> Tuple[int, int, Tuple[Optional[Tuple[int, int]], ...]]:
    """Back-propagate one output range through every layer of one axis.

    Walks the layers in reverse; at each window layer the current range
    is the layer's *output* range, and :func:`window_input_range` gives
    the exact input slice plus the clamped padding.  Returns the input
    range at the image plus the per-layer ``(pad_begin, pad_end)`` (None
    for elementwise layers).
    """
    paddings: List[Optional[Tuple[int, int]]] = [None] * len(specs)
    start, stop = out_start, out_stop
    for index in range(len(specs) - 1, -1, -1):
        spec = specs[index]
        if spec is None:
            continue
        start, stop, pad_b, pad_e = window_input_range(
            spec, start, stop, sizes[index])
        paddings[index] = (pad_b, pad_e)
    return start, stop, tuple(paddings)


def join_candidates(layers: List[Module], in_hw: Tuple[int, int],
                    ) -> List[Tuple[int, Tuple[int, int]]]:
    """Depths at which a tiled head may join, shallowest first, each with
    the plane ``layers[:depth]`` produces.

    A candidate sits just before a window layer whose input plane is
    smaller than the previous candidate's (the image, at first): after a
    down-sampling stage and the elementwise layers that follow it, so no
    conv + activation pair is cut.  The full body closes the list; depth
    0 (nothing tiled) is not in it.
    """
    specs_h, specs_w = _axis_specs(layers)
    sizes_h = _axis_sizes(specs_h, int(in_hw[0]))
    sizes_w = _axis_sizes(specs_w, int(in_hw[1]))
    candidates: List[Tuple[int, Tuple[int, int]]] = []
    area = sizes_h[0] * sizes_w[0]
    for depth, spec in enumerate(specs_h):
        if spec is not None and sizes_h[depth] * sizes_w[depth] < area:
            area = sizes_h[depth] * sizes_w[depth]
            candidates.append((depth, (sizes_h[depth], sizes_w[depth])))
    return candidates + [(len(layers), (sizes_h[-1], sizes_w[-1]))]


class GridSplitter:
    """Tile a dense model's output plane into a ``grid`` of patches.

    Parameters
    ----------
    grid: ``(rows, cols)`` tiling of the *output* plane.  Each tile's
        input window (receptive field + clamped border padding) is
        derived per layer, so patches are exact by construction.
    overlap: extra output rows/columns each tile computes beyond its own
        grid cell, clamped at the image edge.  The overlapping region is
        computed by several tiles — redundant work that a
        :class:`~repro.infer.merger.BlendMerger` importance map blends;
        a ``"valid"`` merge crops back to the cell, so any ``overlap``
        preserves byte-identity.
    """

    def __init__(self, grid: Tuple[int, int] = (2, 2),
                 overlap: int = 0) -> None:
        grid = (int(grid[0]), int(grid[1]))
        if grid[0] < 1 or grid[1] < 1:
            raise ValueError(f"grid must be >= 1 per axis, got {grid}")
        if overlap < 0:
            raise ValueError(f"overlap must be >= 0, got {overlap}")
        self.grid = grid
        self.overlap = int(overlap)

    def plan(self, model: Module, in_hw: Tuple[int, int],
             depth: Optional[int] = None) -> PatchPlan:
        """Tile ``model``'s dense body for an ``in_hw`` input.

        ``depth`` tiles the output plane of the first ``depth`` layers
        instead (halos walk back through those layers only, and
        ``out_hw`` is that plane); ``None`` is the full body.
        """
        layers = flatten_dense_body(model)
        if depth is not None:
            if not 0 < depth <= len(layers):
                raise ValueError(
                    f"depth must be in 1..{len(layers)}, got {depth}")
            layers = layers[:depth]
        specs_h, specs_w = _axis_specs(layers)
        sizes_h = _axis_sizes(specs_h, int(in_hw[0]))
        sizes_w = _axis_sizes(specs_w, int(in_hw[1]))
        out_hw = (sizes_h[-1], sizes_w[-1])
        # SplitScheme.even raises when the grid outnumbers output rows —
        # the same guard SplitRegion applies to training-time splits.
        scheme_h = SplitScheme.even(out_hw[0], self.grid[0])
        scheme_w = SplitScheme.even(out_hw[1], self.grid[1])
        plan = PatchPlan(grid=self.grid, overlap=self.overlap,
                         in_hw=(int(in_hw[0]), int(in_hw[1])), out_hw=out_hw)
        for i in range(self.grid[0]):
            own_h = scheme_h.part_range(i, out_hw[0])
            tile_h = (max(0, own_h[0] - self.overlap),
                      min(out_hw[0], own_h[1] + self.overlap))
            in_h0, in_h1, pads_h = _back_axis(specs_h, sizes_h, *tile_h)
            for j in range(self.grid[1]):
                own_w = scheme_w.part_range(j, out_hw[1])
                tile_w = (max(0, own_w[0] - self.overlap),
                          min(out_hw[1], own_w[1] + self.overlap))
                in_w0, in_w1, pads_w = _back_axis(specs_w, sizes_w, *tile_w)
                layer_paddings: List[LayerPadding] = []
                for ph, pw in zip(pads_h, pads_w):
                    layer_paddings.append(None if ph is None else (ph, pw))
                plan.tiles.append(PatchSpec(
                    index=(i, j),
                    in_range=((in_h0, in_h1), (in_w0, in_w1)),
                    out_range=(tile_h, tile_w),
                    own_range=(own_h, own_w),
                    layer_paddings=tuple(layer_paddings),
                ))
        return plan
