"""Blend-merging of per-tile dense outputs back into one feature map.

Three modes, mirroring the MONAI sliding-window design:

- ``"valid"`` — each tile contributes only its own grid cell (overlap
  regions are cropped away).  Every output element comes from exactly
  one tile, so the merge is *byte-identical* to the unsplit pass — the
  mode the identity tests pin.
- ``"constant"`` — every tile weighs its whole (overlap-expanded)
  output equally; overlapped elements are averaged.
- ``"gaussian"`` — tiles are weighted by a gaussian importance map
  centered on the tile, down-weighting borders where the receptive
  field saw clamped padding.  With exact tiling overlapped tiles agree
  to the last bit, so both blended modes equal ``"valid"`` up to
  floating-point summation order (tested via allclose).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .splitter import PatchPlan

__all__ = ["BlendMerger", "MERGE_MODES"]

MERGE_MODES = ("valid", "constant", "gaussian")

#: Standard deviation of the ``"gaussian"`` importance map, as a fraction
#: of the tile extent along each axis.
_SIGMA = 0.125


class BlendMerger:
    """Reassemble tile outputs into the dense ``(C, H, W)`` feature map."""

    def __init__(self, mode: str = "valid") -> None:
        if mode not in MERGE_MODES:
            raise ValueError(
                f"merge mode must be one of {MERGE_MODES}, got {mode!r}")
        self.mode = mode
        self._maps: Dict[Tuple[int, int], np.ndarray] = {}

    def _importance(self, shape: Tuple[int, int]) -> np.ndarray:
        """Per-element tile weight, cached per tile shape."""
        cached = self._maps.get(shape)
        if cached is not None:
            return cached
        if self.mode == "constant":
            weight = np.ones(shape, dtype=np.float64)
        else:
            axes = []
            for n in shape:
                idx = np.arange(n, dtype=np.float64)
                center = (n - 1) / 2.0
                scale = max(_SIGMA * n, 1e-6)
                axes.append(np.exp(-0.5 * ((idx - center) / scale) ** 2))
            weight = np.outer(axes[0], axes[1])
            # Floor tiny border weights so an element covered by a single
            # tile never divides by a denormal.
            weight = np.maximum(weight, weight.max() * 1e-3)
        self._maps[shape] = weight
        return weight

    def merge(self, plan: PatchPlan,
              outputs: Dict[Tuple[int, int], np.ndarray]) -> np.ndarray:
        """Merge ``{tile index: (C, th, tw) array}`` into ``(C, H, W)``."""
        missing = [t.index for t in plan.tiles if t.index not in outputs]
        if missing:
            raise ValueError(f"missing tile outputs: {missing}")
        channels = next(iter(outputs.values())).shape[0]
        if self.mode == "valid":
            merged = np.empty((channels,) + plan.out_hw, dtype=np.float64)
            for tile in plan.tiles:
                out = outputs[tile.index]
                if out.shape[1:] != tile.out_shape:
                    raise ValueError(
                        f"tile {tile.index} output shape {out.shape[1:]} != "
                        f"planned {tile.out_shape}")
                (oh0, oh1), (ow0, ow1) = tile.own_range
                (th0, _), (tw0, _) = tile.out_range
                merged[:, oh0:oh1, ow0:ow1] = \
                    out[:, oh0 - th0:oh1 - th0, ow0 - tw0:ow1 - tw0]
            return merged
        numerator = np.zeros((channels,) + plan.out_hw, dtype=np.float64)
        denominator = np.zeros(plan.out_hw, dtype=np.float64)
        for tile in plan.tiles:
            out = outputs[tile.index]
            if out.shape[1:] != tile.out_shape:
                raise ValueError(
                    f"tile {tile.index} output shape {out.shape[1:]} != "
                    f"planned {tile.out_shape}")
            weight = self._importance(tile.out_shape)
            (th0, th1), (tw0, tw1) = tile.out_range
            numerator[:, th0:th1, tw0:tw1] += out * weight
            denominator[th0:th1, tw0:tw1] += weight
        return numerator / denominator
