"""Graph identity gate: every graph the builder, the checkpointing pass,
the mesh partitioner, the patch-inference graphs and the compile pipeline
produce is structurally pinned.

``GOLDEN`` was recorded by running this file's ``_digest`` bodies at the
parent commit (6cfd30e), before the builder's two dispatch tables, the
residual-block copies and the fused-conv backward rules were collapsed.
A digest covers op ids, names, order, attrs, tensor ids, ``saved``,
``forward_of`` and constant bytes (``repro.analysis.graph_fingerprint``),
so "same digest" means the refactor emitted the same graph, not an
equivalent one.  Compiled twins of the training rows cover the twin
retargeting that replaces the deleted fused-type expansion rules.

To re-record after a change that is *meant* to move a graph: run
``python tests/test_builder_identity.py`` at the parent, paste, edit,
re-run (see .claude/skills/verify/SKILL.md).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterator

import pytest

from repro.analysis import graph_fingerprint
from repro.compile import compile_graph
from repro.core.transform import build_zoo_model, to_split_cnn
from repro.graph import (
    build_checkpointed_training_graph, build_inference_graph,
    build_training_graph,
)
from repro.infer import GridSplitter
from repro.infer.graph import build_dense_graph, build_patch_graph
from repro.infer.splitter import flatten_dense_body
from repro.mesh import MeshPartitioner
from repro.models import build_model, small_resnet, small_vgg
from repro.nn import init

BATCH = 2


def _zoo_rows(name: str, memory_efficient: bool = False) -> Iterator[str]:
    """split {1, 4 @ 0.5} x {training (+ compiled twin), inference with
    eval_batchnorm} x patch order (one order when nothing is split)."""
    for split in (1, 4):
        if memory_efficient:
            with init.fast_init():
                model = build_model(name, memory_efficient=True)
                if split > 1:
                    model = to_split_cnn(model, depth=0.5, num_splits=(2, 2))
        else:
            model = build_zoo_model(name, split=split, split_depth=0.5)
        orders = (("depth_first", "breadth_first") if split > 1
                  else ("depth_first",))
        for order in orders:
            graph = build_training_graph(model, BATCH, patch_order=order)
            yield graph_fingerprint(graph)
            compile_graph(graph)
            yield graph_fingerprint(graph)
            yield graph_fingerprint(build_inference_graph(
                model, BATCH, eval_batchnorm=True, patch_order=order))


def _split_small_resnet():
    with init.fast_init():
        return to_split_cnn(small_resnet(), depth=0.5, num_splits=(2, 2))


def _checkpointed_rows() -> Iterator[str]:
    with init.fast_init():
        model = small_resnet()
    yield graph_fingerprint(build_checkpointed_training_graph(model, BATCH))
    yield graph_fingerprint(build_checkpointed_training_graph(
        _split_small_resnet(), BATCH))


def _mesh_rows() -> Iterator[str]:
    partitioner = MeshPartitioner(4)
    model = _split_small_resnet()
    for plan in (partitioner.spatial(model, BATCH),
                 partitioner.pipeline(model, BATCH)):
        for assignment in plan.assignments:
            yield graph_fingerprint(assignment.graph)


def _patch_infer_rows() -> Iterator[str]:
    """The nine variant graphs of the frozen ``patch_infer`` workload's
    geometry (256x256, 4x4 grid, overlap 1, small_vgg)."""
    with init.fast_init():
        model = small_vgg()
    layers = flatten_dense_body(model)
    variants = GridSplitter((4, 4), 1).plan(model, (256, 256)).variants()
    assert len(variants) == 9
    for variant in variants:
        graph, _ = build_patch_graph(model, layers, variant, batch=BATCH)
        yield graph_fingerprint(graph)
        compile_graph(graph)
        yield graph_fingerprint(graph)


def _patch_infer_joined_rows() -> Iterator[str]:
    """What the ``patch_infer`` workload executes since its join depth is
    discovered (10 of 15 under 16 MiB): the nine head variant graphs over
    ``layers[:10]`` and the unsplit tail over the 64x64 join plane.
    Recorded at the PR that introduced the join."""
    with init.fast_init():
        model = small_vgg()
    layers = flatten_dense_body(model)
    plan = GridSplitter((4, 4), 1).plan(model, (256, 256), depth=10)
    variants = plan.variants()
    assert len(variants) == 9 and plan.out_hw == (64, 64)
    graphs = [build_patch_graph(model, layers, variant, batch=BATCH)[0]
              for variant in variants]
    graphs.append(build_dense_graph(model, layers[10:], 1, plan.out_hw,
                                    in_channels=layers[7].out_channels)[0])
    for graph in graphs:
        yield graph_fingerprint(graph)
        compile_graph(graph)
        yield graph_fingerprint(graph)


ROWS: Dict[str, Callable[[], Iterator[str]]] = {
    **{name: (lambda name=name: _zoo_rows(name))
       for name in ("alexnet", "vgg11", "vgg16", "vgg19", "resnet18",
                    "resnet34", "resnet50", "small_vgg", "small_resnet")},
    **{f"{name}-me": (lambda name=name: _zoo_rows(name, memory_efficient=True))
       for name in ("resnet18", "resnet34", "resnet50")},
    "checkpointed": _checkpointed_rows,
    "mesh": _mesh_rows,
    "patch_infer": _patch_infer_rows,
    "patch_infer-joined": _patch_infer_joined_rows,
}

GOLDEN: Dict[str, str] = {
    "alexnet": "dd2d64659ddac04f",
    "checkpointed": "8551d043dfb34df7",
    "mesh": "287847cf012092a4",
    "patch_infer": "75266a6c7b0d2fe5",
    # New row, recorded when the join depth was introduced (no parent).
    "patch_infer-joined": "582551d6c3001562",
    "resnet18": "6d9d51ecfde18de5",
    "resnet18-me": "68e8c4043a7360cb",
    "resnet34": "89560a5a5c7e875f",
    "resnet34-me": "80d73acba46cf2a4",
    "resnet50": "fd9bcf3f25d31547",
    "resnet50-me": "2d699891cf6eb038",
    "small_resnet": "74eba390ded735ac",
    "small_vgg": "e01457cec775a904",
    "vgg11": "9cbcaaf554f445ec",
    "vgg16": "fe093275675cd0bb",
    "vgg19": "db9518ef09929ec6",
}


def _digest(label: str) -> str:
    digest = hashlib.sha256()
    for fingerprint in ROWS[label]():
        digest.update(fingerprint.encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("label", sorted(ROWS))
def test_graphs_identical_to_parent(label):
    assert _digest(label) == GOLDEN[label]


if __name__ == "__main__":
    for row in sorted(ROWS):
        print(f'    "{row}": "{_digest(row)}",')
