"""A split conv whose patches are smaller than its weight takes its weight
gradient in one GEMM.

A Split-CNN layer's S patch convs share one weight.  The backward
expansion gives such a layer one ``conv2d_bwd_weight`` over all S
patches — every patch's output gradient and input, concatenated along
the pixel axis — instead of S per-patch GEMMs summed by S-1 ``grad_acc``
ops, when those operands hold no more elements than the weight.  Holding
them until the last patch's backward then never costs more than the
chain's weight-sized running sum.  Larger layers keep the chain.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np
import pytest

from repro.compile import CompiledPlan, compile_graph
from repro.core import to_split_cnn
from repro.graph import (
    GraphExecutor, build_checkpointed_training_graph, build_training_graph,
)
from repro.graph.ir import OpNode
from repro.graph.registry import op_def
from repro.models import (
    build_model, resnet18, resnet50, small_resnet, small_vgg, vgg11, vgg19,
)
from repro.nn import CrossEntropyLoss, init
from repro.tensor import Tensor
from repro.tensor.ops_nn import conv2d_forward, shared_weight_grad

from conftest import held_bytes

REFERENCE_RTOL = 1e-9


def one_gemm_ops(graph):
    return [op for op in graph.ops
            if op.op_type == "conv2d_bwd_weight" and "paddings" in op.attrs]


def split_vgg11():
    with init.fast_init():
        return to_split_cnn(vgg11(num_classes=10), depth=1.0,
                            num_splits=(2, 2))


def float64_model(factory, grid, depth=1.0, **kwargs):
    base = factory(rng=np.random.default_rng(0), **kwargs)
    for param in base.parameters():
        param.data = param.data.astype(np.float64)
    return to_split_cnn(base, depth=depth, num_splits=grid)


def layer_weight(graph, op):
    """The weight tensor name of a conv op, per patch or stacked."""
    if op.op_type.startswith("conv2d_bwd_data"):
        return graph.tensor(op.inputs[-1]).name
    return graph.tensor(op.inputs[op.attrs.get("siblings", 1)]).name


def stacked_layers(graph, op_type):
    """Weight name -> sorted patch counts of the layer's stacked ops."""
    layers = {}
    for op in graph.ops:
        if op.op_type == op_type:
            layers.setdefault(layer_weight(graph, op), []).append(
                op.attrs["siblings"])
    return {name: sorted(counts) for name, counts in layers.items()}


def per_patch_layers(graph, op_type):
    """Weight name -> number of per-patch ops of that type."""
    return dict(Counter(layer_weight(graph, op)
                        for op in graph.ops if op.op_type == op_type))


def held_elements(graph, op):
    """Elements of the op's GEMM operands: every patch's gradient and input."""
    return sum(graph.tensor(t).num_elements for t in op.inputs)


class TestGate:
    def test_operands_never_exceed_the_weight(self):
        graphs = [build_training_graph(split_vgg11(), 2),
                  build_checkpointed_training_graph(split_vgg11(), 2)]
        with init.fast_init():
            graphs.append(build_training_graph(
                to_split_cnn(resnet18(num_classes=10), depth=1.0,
                             num_splits=(2, 2)), 2))
        for graph in graphs:
            ops = one_gemm_ops(graph)
            assert ops, graph.name
            for op in ops:
                weight = graph.tensor(op.outputs[0])
                assert held_elements(graph, op) <= weight.num_elements

    def test_split_vgg11_batch2_batches_conv2_to_conv7(self):
        graph = build_training_graph(split_vgg11(), 2)
        batched = {graph.tensor(op.outputs[0]).name
                   for op in one_gemm_ops(graph)}
        assert batched == {f"grad(conv2d.weight#{i})" for i in range(2, 8)}
        # The same six layers run forward and bwd_data as one op over the
        # four patches; conv0-1 stay per patch (conv0's bwd_data is dead).
        assert stacked_layers(graph, "conv2d_siblings") == {
            f"conv2d.weight#{i}": [4] for i in range(2, 8)}
        assert stacked_layers(graph, "conv2d_bwd_data_siblings") == {
            f"conv2d.weight#{i}": [4] for i in range(2, 8)}
        assert per_patch_layers(graph, "conv2d") == {
            "conv2d.weight": 4, "conv2d.weight#1": 4}
        assert per_patch_layers(graph, "conv2d_bwd_data") == {
            "conv2d.weight#1": 4}
        assert len(graph.ops) == 152
        # The two chain layers keep S-1 grad_acc ops for weight and bias.
        assert sum(op.op_type == "grad_acc" for op in graph.ops) == 2 * 2 * 3

    @pytest.mark.parametrize("factory,grid,depth,batch", [
        (vgg19, (2, 2), 0.75, 64),
        (resnet50, (2, 2), 0.5, 64),
        (resnet18, (3, 3), 0.5, 128),
    ], ids=["vgg19-2x2-b64", "resnet50-2x2-b64", "resnet18-3x3-b128"])
    def test_benchmark_training_graphs_keep_the_chain(self, factory, grid,
                                                      depth, batch):
        # The planning graphs of Figures 8-11 (the VGG-19 one is also the
        # data-parallel replica): every layer's operands exceed its weight.
        with init.fast_init():
            model = to_split_cnn(
                factory(num_classes=1000, dataset="imagenet"),
                depth=depth, num_splits=grid)
        graph = build_training_graph(model, batch)
        assert one_gemm_ops(graph) == []
        assert any(op.op_type == "grad_acc" for op in graph.ops)

    def test_one_gemm_reads_tensors_not_contexts(self):
        model = split_vgg11()
        graph = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        read = set()
        for op in one_gemm_ops(graph):
            assert op.forward_of is None
            assert len(op.inputs) == 2 * len(op.attrs["paddings"])
            read.update(op.inputs)
        # A batched layer's stacked forward has one twin, its stacked
        # bwd_data, which reads graph tensors like every conv backward.
        stacked = [op for op in graph.forward_ops()
                   if op.op_type == "conv2d_siblings"]
        assert len(stacked) == 6
        for op in stacked:
            assert set(op.inputs[:4]) <= read, op.name
            (twin,) = [other for other in graph.ops
                       if other.forward_of == op.id]
            assert twin.op_type == "conv2d_bwd_data_siblings"
        compiled = build_training_graph(model, 2)
        compile_graph(compiled, params=params)
        x, y = batch_of(model, 2, seed=7)
        for plan in (graph, compiled):
            assert_conv_backward_reads_only_graph_tensors(plan, params, x, y)


def assert_conv_backward_reads_only_graph_tensors(graph, params, x, y):
    """After an ``eager_free=False`` run the executor holds only the
    declared bytes of its values, and every conv backward op re-run
    writes the bytes it wrote in the run."""
    executor = GraphExecutor(graph, params, eager_free=False)
    written = {}
    run_op = executor.execute_op

    def recording(op):
        run_op(op)
        if is_conv_backward(op):
            written[op.id] = [executor.values[t].tobytes()
                              for t in op.outputs]

    executor.execute_op = recording
    executor.run(x.astype(executor.width), y)
    held, declared = held_bytes(executor)
    assert held == declared > 0
    backward = [op for op in graph.ops if is_conv_backward(op)]
    assert sorted(written) == sorted(op.id for op in backward)
    for op in backward:
        run_op(op)
        assert [executor.values[t].tobytes()
                for t in op.outputs] == written[op.id], op.name


def is_conv_backward(op):
    return op.phase == "backward" and op.op_type.startswith("conv2d_bwd")


class TestCost:
    def test_flops_equal_the_per_patch_ops_replaced(self):
        graph = build_training_graph(split_vgg11(), 2)
        characterize = op_def("conv2d_bwd_weight").characterize
        for op in one_gemm_ops(graph):
            count = len(op.attrs["paddings"])
            shapes = {graph.tensor(t).shape for t in op.inputs[:count]}
            assert len(shapes) == 1                    # an even 2x2 grid
            per_patch = 0.0
            for index, padding in enumerate(op.attrs["paddings"]):
                attrs = {key: value for key, value in op.attrs.items()
                         if key != "paddings"}
                twin = OpNode(
                    id=-1, name="patch.bwd_weight",
                    op_type="conv2d_bwd_weight",
                    inputs=[op.inputs[index], op.inputs[count + index]],
                    outputs=list(op.outputs),
                    attrs={**attrs, "padding": padding}, phase="backward")
                per_patch += characterize(graph, twin)[0]
            assert characterize(graph, op)[0] == per_patch


class TestKernel:
    @pytest.mark.parametrize("bias", [True, False])
    def test_equals_the_per_patch_sum(self, bias):
        # Asymmetric, zero and negative (cropping) padding per input.
        rng = np.random.default_rng(3)
        weight = rng.standard_normal((5, 3, 3, 3))
        xs = [rng.standard_normal((2, 3, 6, 7)),
              rng.standard_normal((2, 3, 5, 4)),
              rng.standard_normal((2, 3, 8, 6))]
        paddings = [((1, 0), (1, 1)), ((0, 0), (2, 1)), ((-1, 0), (0, -1))]
        grads, weight_grad, bias_grad = [], 0.0, 0.0
        for x, padding in zip(xs, paddings):
            out = conv2d_forward(x, weight, None, (1, 1), padding)
            grads.append(rng.standard_normal(out.shape))
            (patch,) = shared_weight_grad([x], grads[-1:], [padding], (3, 3),
                                          (1, 1), False)
            weight_grad = weight_grad + patch
            bias_grad = bias_grad + grads[-1].sum(axis=(0, 2, 3))
        got = shared_weight_grad(xs, grads, paddings, (3, 3), (1, 1), bias)
        assert len(got) == (2 if bias else 1)
        np.testing.assert_allclose(got[0], weight_grad, rtol=0, atol=1e-12)
        if bias:
            np.testing.assert_allclose(got[1], bias_grad, rtol=0, atol=1e-12)


def eager_step(model, x, y):
    model.train()
    model.zero_grad()
    loss = CrossEntropyLoss()(model(Tensor(x, dtype=np.float64)), y)
    loss.backward()
    return loss.data, [p.grad for _, p in model.named_parameters()]


def assert_matches_eager(graph, model, x, y):
    out = GraphExecutor(graph, GraphExecutor.parameters_from_model(
        graph, model)).run(x, y)
    loss, grads = eager_step(model, x, y)
    parameters = [t for t in sorted(graph.tensors.values(),
                                    key=lambda t: t.id)
                  if t.kind == "parameter"]
    pairs = [(out["loss"], loss)] + [
        (out[f"grad({t.name})"], grad) for t, grad in zip(parameters, grads)]
    for ours, eager in pairs:
        scale = float(np.max(np.abs(eager))) or 1.0
        assert float(np.max(np.abs(ours - eager))) <= REFERENCE_RTOL * scale


class TestNumerics:
    @pytest.mark.parametrize("factory,grid,batch", [
        (small_vgg, (2, 2), 2),        # conv bias: the GEMM's ones row
        (small_resnet, (2, 2), 2),     # bias-free convs
        (small_vgg, (3, 3), 1),        # uneven patch shapes
    ], ids=["small_vgg-2x2", "small_resnet-2x2", "small_vgg-3x3"])
    @pytest.mark.parametrize("checkpointed", [False, True],
                             ids=["plain", "checkpointed"])
    def test_matches_eager_autograd(self, factory, grid, batch,
                                    checkpointed):
        model = float64_model(factory, grid)
        graph = (build_checkpointed_training_graph(model, batch)
                 if checkpointed else build_training_graph(model, batch))
        assert one_gemm_ops(graph)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((batch, 3, model.input_size,
                                 model.input_size))
        y = rng.integers(0, 10, size=batch)
        assert_matches_eager(graph, model, x, y)

    def test_compiled_is_byte_identical_and_leaves_it_alone(self):
        model = float64_model(small_vgg, (2, 2))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, model.input_size, model.input_size))
        y = rng.integers(0, 10, size=2)
        graph = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        expected = GraphExecutor(graph, params).run(x, y)
        compiled = build_training_graph(model, 2)
        compile_graph(compiled, params=params)
        before = [(op.inputs, op.outputs, op.attrs)
                  for op in one_gemm_ops(graph)]
        after = [(op.inputs, op.outputs, op.attrs)
                 for op in one_gemm_ops(compiled)]
        assert after == before
        assert any(op.op_type == "conv2d_relu_siblings"
                   for op in compiled.ops)
        out = CompiledPlan(compiled, params).run(x, y)
        assert sorted(out) == sorted(expected)
        for key in expected:
            assert out[key].tobytes() == expected[key].tobytes(), key


#: Op-type counts of the compiled split VGG-11 training graph at batch 2,
#: recorded before the builder stacked any layer: stacking gated layers
#: in the builder must not change what the compiler produces.  Every one
#: of its 29 ``relu_bwd`` masks is fused into the op producing its
#: gradient (17 pool backwards, 3 stacked ``bwd_data`` with 4 masks each).
COMPILED_VGG11_TYPES = {
    "concat": 1, "concat_bwd": 1, "conv2d_bwd_data_relu_siblings": 3,
    "conv2d_bwd_data_siblings": 4,
    "conv2d_bwd_weight": 14, "conv2d_relu_siblings": 7,
    "conv2d_siblings": 1, "cross_entropy": 1, "cross_entropy_bwd": 1,
    "flatten": 1, "flatten_bwd": 1, "grad_acc": 12, "linear": 1,
    "linear_bwd_data": 1, "linear_bwd_weight": 1, "maxpool2d": 17,
    "maxpool2d_bwd_relu": 17, "relu": 1, "split": 1,
}


def batch_of(model, batch, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 3, model.input_size, model.input_size))
    return x, rng.integers(0, 10, size=batch)


class TestStacking:
    """A gated layer's forward and bwd_data are one stacked op each in the
    builder's own graph, so the interpreter runs one GEMM per direction."""

    @pytest.mark.parametrize("factory,kwargs,depth", [
        (vgg11, {"num_classes": 10}, 1.0),
        (partial(build_model, "resnet18"), {}, 0.5),
    ], ids=["vgg11-2x2", "resnet18-2x2"])
    def test_matches_eager_autograd(self, factory, kwargs, depth):
        model = float64_model(factory, (2, 2), depth=depth, **kwargs)
        graph = build_training_graph(model, 2)
        assert stacked_layers(graph, "conv2d_siblings")
        assert stacked_layers(graph, "conv2d_bwd_data_siblings")
        assert_matches_eager(graph, model, *batch_of(model, 2, seed=4))

    def test_compiled_graph_is_unchanged_and_byte_identical(self):
        model = float64_model(vgg11, (2, 2), num_classes=10)
        x, y = batch_of(model, 2, seed=5)
        graph = build_training_graph(model, 2)
        params = GraphExecutor.parameters_from_model(graph, model)
        expected = GraphExecutor(graph, params).run(x, y)
        compiled = build_training_graph(model, 2)
        report = compile_graph(compiled, params=params)
        assert (report.ops_before, report.ops_after) == (152, 86)
        assert dict(Counter(op.op_type for op in compiled.ops)) \
            == COMPILED_VGG11_TYPES
        out = CompiledPlan(compiled, params).run(x, y)
        assert sorted(out) == sorted(expected)
        for key in expected:
            assert out[key].tobytes() == expected[key].tobytes(), key

    def test_uneven_grid_stacks_per_equal_shape_group(self):
        # A 3x3 grid over small_vgg's 8x8 conv4/conv5 planes: four 3x3,
        # two 2x3, two 3x2 and one 2x2 patch; the lone patch stays alone.
        model = float64_model(small_vgg, (3, 3))
        graph = build_training_graph(model, 1)
        groups = {"conv2d.weight#4": [2, 2, 4], "conv2d.weight#5": [2, 2, 4]}
        assert stacked_layers(graph, "conv2d_siblings") == groups
        assert stacked_layers(graph, "conv2d_bwd_data_siblings") == groups
        for op_type in ("conv2d", "conv2d_bwd_data"):
            counts = per_patch_layers(graph, op_type)
            assert counts["conv2d.weight#4"] == counts["conv2d.weight#5"] == 1
        assert_matches_eager(graph, model, *batch_of(model, 1, seed=6))
