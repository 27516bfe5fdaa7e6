"""Streaming large-input patch inference (ROADMAP open item 2).

Split-CNN's receptive-field machinery (paper §3.1, Eq. 1-2), pointed at
serving: tile an input that cannot fit the device in one pass into
overlapping patches (:class:`GridSplitter`), stream each patch batch
through a bounded, verified HMMS memory plan (:class:`PatchInferer`),
and blend-merge the dense outputs back together (:class:`BlendMerger`)
— byte-identical to the unsplit forward pass in ``"valid"`` mode.
"""

from .splitter import (
    GridSplitter, PatchPlan, PatchSpec, PatchVariant, flatten_dense_body,
)
from .graph import build_dense_graph, build_patch_graph
from .merger import MERGE_MODES, BlendMerger
from .inferer import DenseReport, PatchInferer

__all__ = [
    "GridSplitter", "PatchPlan", "PatchSpec", "PatchVariant",
    "flatten_dense_body", "build_dense_graph", "build_patch_graph",
    "BlendMerger", "MERGE_MODES", "DenseReport", "PatchInferer",
]
