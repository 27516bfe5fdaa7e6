"""Graph identity gate: every graph the builder, the checkpointing pass,
the mesh partitioner, the patch-inference graphs and the compile pipeline
produce is structurally pinned.

``GOLDEN`` was recorded by running this file's ``_digest`` bodies at the
parent commit (6cfd30e), before the builder's two dispatch tables, the
residual-block copies and the fused-conv backward rules were collapsed.
A digest covers op ids, names, order, attrs, tensor ids, ``saved``,
``forward_of`` and constant bytes (``graph_fingerprint`` below), so
"same digest" means the refactor emitted the same graph, not an
equivalent one.  Compiled twins of the training rows cover the twin
retargeting that replaces the deleted fused-type expansion rules.

To re-record after a change that is *meant* to move a graph: run
``python tests/test_builder_identity.py`` at the parent, paste, edit,
re-run (see .claude/skills/verify/SKILL.md).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterator

import numpy as np
import pytest

from repro.compile import compile_graph
from repro.core.transform import build_zoo_model, to_split_cnn
from repro.graph import (
    GraphExecutor, build_checkpointed_training_graph, build_inference_graph,
    build_training_graph,
)
from repro.graph.ir import Graph
from repro.infer import GridSplitter
from repro.infer.graph import build_dense_graph, build_patch_graph
from repro.infer.splitter import flatten_dense_body
from repro.mesh import MeshPartitioner
from repro.models import build_model, small_resnet, small_vgg
from repro.nn import init

BATCH = 2


def graph_fingerprint(graph: Graph) -> str:
    """Structural digest of everything the graph passes read: ops with
    attrs and links, tensor records, and constant bytes."""
    digest = hashlib.sha256()
    digest.update(graph.name.encode())
    for op in graph.ops:
        record = (op.id, op.name, op.op_type, tuple(op.inputs),
                  tuple(op.outputs),
                  repr(sorted(op.attrs.items(), key=lambda kv: kv[0])),
                  op.phase, tuple(op.saved), op.workspace_bytes,
                  op.forward_of, op.inplace_of)
        digest.update(repr(record).encode())
    for tensor_id in sorted(graph.tensors):
        tensor = graph.tensors[tensor_id]
        record = (tensor.id, tensor.name, tensor.shape, tensor.kind,
                  tensor.dtype_bytes, tensor.producer,
                  tuple(tensor.consumers))
        digest.update(repr(record).encode())
    for tensor_id in sorted(graph.constants):
        value = np.ascontiguousarray(graph.constants[tensor_id])
        digest.update(repr((tensor_id, value.shape,
                            value.dtype.str)).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()[:16]


def _zoo_rows(name: str, memory_efficient: bool = False) -> Iterator[str]:
    """split {1, 4 @ 0.5} x {training (+ compiled twin), inference} x
    patch order (one order when nothing is split)."""
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
                model, BATCH, patch_order=order))


def _compiled_rows(name: str) -> Iterator[str]:
    """Compiled graphs the zoo rows leave unpinned: the compiled twin of
    the uneven 3x3 split training graph, and the BN-folded (compiled with
    parameters) inference graph at 2x2 and 3x3, in both patch orders."""
    for split in (4, 9):
        model = build_zoo_model(name, split=split, split_depth=0.5)
        for order in ("depth_first", "breadth_first"):
            if split == 9:
                graph = build_training_graph(model, BATCH, patch_order=order)
                compile_graph(graph)
                yield graph_fingerprint(graph)
            graph = build_inference_graph(model, BATCH, patch_order=order)
            compile_graph(graph,
                          GraphExecutor.parameters_from_model(graph, model))
            yield graph_fingerprint(graph)


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
    **{f"{name}-compiled": (lambda name=name: _compiled_rows(name))
       for name in ("vgg11", "resnet18", "small_resnet")},
    "checkpointed": _checkpointed_rows,
    "mesh": _mesh_rows,
    "patch_infer": _patch_infer_rows,
    "patch_infer-joined": _patch_infer_joined_rows,
}

GOLDEN: Dict[str, str] = {
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "alexnet": "900ba8aa857736be",
    "checkpointed": "8551d043dfb34df7",
    # Re-recorded: spatial and pipeline device graphs are inference
    # graphs, whose batch norms use running statistics (batchnorm_eval).
    "mesh": "28708bb6b3edf124",
    "patch_infer": "75266a6c7b0d2fe5",
    # New row, recorded when the join depth was introduced (no parent).
    "patch_infer-joined": "582551d6c3001562",
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "resnet18": "20c21479681cb739",
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "resnet18-compiled": "add747b62b7bb3cd",
    # Re-recorded: the builder stacks the forward and bwd_data of the 3
    # split layers that take their weight gradient in one GEMM.
    # Re-recorded again: the compiled training twins no longer fuse
    # conv->BN(->ReLU) (the fusion is gone); every other graph is equal.
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "resnet18-me": "04a9bbf905337ba8",
    # Re-recorded: the builder stacks the forward and bwd_data of the 1
    # split layer that takes its weight gradient in one GEMM.
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "resnet34": "94160ade714cffbe",
    # Re-recorded: the builder stacks the forward and bwd_data of 8 of the
    # 9 one-GEMM split layers; the ninth (stride 2) pads each patch
    # differently, so no two patches stack.
    # Re-recorded again: no conv->BN(->ReLU) fusion in the compiled
    # training twins.
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "resnet34-me": "dd4476257682c6b8",
    # Re-recorded: 1 split layer takes its weight gradient in one GEMM.
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "resnet50": "820cc7602b406621",
    # Re-recorded: 1 split layer takes its weight gradient in one GEMM.
    # Re-recorded again: no conv->BN(->ReLU) fusion in the compiled
    # training twins.
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "resnet50-me": "d7fddaa558e9605e",
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "small_resnet": "6abd2a23cc0ea8f5",
    # New rows, recorded at the parent of the one-pass sibling grouping and
    # the direct ReLU fusion / BN fold (same for the other -compiled rows).
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "small_resnet-compiled": "579a31f4639ec566",
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "small_vgg": "52aca5c0659caef5",
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "vgg11": "cbb67d05e220e05e",
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "vgg11-compiled": "dd820247404e4e01",
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "vgg16": "507073e8c823746f",
    # Re-recorded: backward twins drop sibling/siblings, else parent-equal.
    # Re-recorded: compiled training twins fold relu_bwd; else parent-equal.
    "vgg19": "a92a68082584b437",
}


def _digest(label: str) -> str:
    digest = hashlib.sha256()
    for fingerprint in ROWS[label]():
        digest.update(fingerprint.encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("label", sorted(ROWS))
def test_graphs_identical_to_parent(label):
    assert _digest(label) == GOLDEN[label]


def test_fingerprint_tracks_constants():
    with init.fast_init():
        model = small_resnet()
    graph = build_inference_graph(model, 2)
    before = graph_fingerprint(graph)
    tensor_id = next(iter(graph.constants))
    poisoned = graph.constants[tensor_id].copy()
    poisoned.flat[0] += 1.0
    graph.constants[tensor_id] = poisoned
    assert graph_fingerprint(graph) != before


if __name__ == "__main__":
    for row in sorted(ROWS):
        print(f'    "{row}": "{_digest(row)}",')
