"""Forward-only IR graphs for dense and per-tile patch execution.

Both constructions reuse :class:`~repro.graph.builder.GraphBuilder`'s
individual op emitters with explicit paddings — the dense graph passes
each layer's own padding, the patch graph passes the clamped per-tile
paddings computed by :class:`~repro.infer.splitter.GridSplitter` — so a
patch graph is op-for-op the unsplit graph restricted to a window.

Graphs stop at the dense feature map (no flatten/classifier head); the
final tensor is renamed ``"logits"`` so :class:`GraphExecutor`'s output
plumbing and the compiler's output-preservation contract apply unchanged.
Batch-norm uses running statistics, as in every inference graph: eval BN
is elementwise, which is what keeps per-tile execution exact.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..graph.builder import GraphBuilder, params_for_builder
from ..graph.ir import Graph
from ..nn import Conv2d, MaxPool2d, Module
from .splitter import WINDOW_TYPES, LayerPadding, PatchVariant

__all__ = ["build_dense_graph", "build_patch_graph"]


def _emit_layers(builder: GraphBuilder, layers: List[Module],
                 paddings: List[LayerPadding], value):
    for layer, padding in zip(layers, paddings):
        if isinstance(layer, Conv2d):
            value = builder.emit_conv(layer, value, padding)
        elif isinstance(layer, MaxPool2d):
            value = builder.emit_pool(layer, value, padding)
        else:
            # Elementwise layers (BN/activations/dropout) have no padding;
            # the builder's generic dispatch handles them (dropout is
            # elided at inference).
            value = builder.emit(layer, value)
    return value


def _build(model: Module, name: str, layers: List[Module],
           paddings: List[LayerPadding],
           batch: int, in_hw: Tuple[int, int], in_channels: int,
           ) -> Tuple[Graph, GraphBuilder]:
    builder = GraphBuilder(batch_size=batch, inference=True)
    graph = builder.graph
    graph.name = name
    value = builder.add_input(model, "input",
                              (batch, in_channels, in_hw[0], in_hw[1]))
    value = _emit_layers(builder, layers, paddings, value)
    value.name = "logits"
    graph.validate()
    return graph, builder


def build_dense_graph(model: Module, layers: List[Module], batch: int,
                      in_hw: Tuple[int, int], in_channels: int = 3,
                      ) -> Tuple[Graph, Dict[str, np.ndarray]]:
    """Unsplit graph of ``layers`` over one whole plane: the full body on
    the image (the identity-test reference) or the suffix a tiled head
    joins into, on the join plane."""
    paddings: List[LayerPadding] = [
        layer.padding if isinstance(layer, WINDOW_TYPES) else None
        for layer in layers
    ]
    graph, builder = _build(model, f"{getattr(model, 'name', 'dense')}:dense",
                            layers, paddings, batch, in_hw, in_channels)
    return graph, params_for_builder(builder, model)


def build_patch_graph(model: Module, layers: List[Module],
                      variant: PatchVariant, batch: int, in_channels: int = 3,
                      ) -> Tuple[Graph, Dict[str, np.ndarray]]:
    """Per-tile graph for one :class:`PatchVariant`, ``batch`` tiles deep:
    the layers the variant carries paddings for (its join depth)."""
    if len(variant.layer_paddings) > len(layers):
        raise ValueError(
            f"variant carries {len(variant.layer_paddings)} layer paddings "
            f"for a body of {len(layers)} layers")
    graph, builder = _build(
        model, f"{getattr(model, 'name', 'dense')}:patch{variant.in_shape}",
        layers[:len(variant.layer_paddings)], list(variant.layer_paddings),
        batch, variant.in_shape, in_channels)
    return graph, params_for_builder(builder, model)
