"""Tests for the computation-graph IR, builder and backward generation."""

import pytest

from repro.core import to_split_cnn
from repro.graph import (
    Graph, build_forward_graph, build_training_graph, compute_lifetimes,
)
from repro.graph.ir import TensorValue
from repro.models import resnet18, small_resnet, small_vgg
from repro.nn import init


@pytest.fixture
def vgg_graph(rng):
    return build_training_graph(small_vgg(rng=rng), batch_size=4)


@pytest.fixture
def resnet_graph(rng):
    return build_training_graph(small_resnet(rng=rng), batch_size=4)


class TestIr:
    def test_add_tensor_and_op(self):
        graph = Graph("t")
        a = graph.add_tensor("a", (2, 3))
        b = graph.add_tensor("b", (2, 3))
        op = graph.add_op("op", "relu", [a], [b])
        assert b.producer == op.id
        assert op.id in a.consumers
        assert a.nbytes == 24

    @pytest.mark.parametrize("shape, elements", [
        ((1 << 31, 1 << 31, 4), 1 << 64),       # int64 product wraps to 0
        ((1 << 31, 1 << 31, 2), 1 << 63),       # ... and to -2**63
        ((), 1),
        ((7, 0, 3), 0),
        ((2, 3), 6),
    ])
    def test_element_count_is_an_exact_python_int(self, shape, elements):
        tensor = TensorValue(0, "t", shape)
        assert tensor.num_elements == elements
        assert type(tensor.num_elements) is int
        assert tensor.nbytes == 4 * elements

    def test_double_producer_rejected(self):
        graph = Graph("t")
        a = graph.add_tensor("a", (1,))
        b = graph.add_tensor("b", (1,))
        graph.add_op("op1", "relu", [a], [b])
        with pytest.raises(ValueError):
            graph.add_op("op2", "relu", [a], [b])

    def test_validate_detects_use_before_def(self):
        graph = Graph("t")
        a = graph.add_tensor("a", (1,))
        b = graph.add_tensor("b", (1,))
        op1 = graph.add_op("use", "relu", [b], [a])
        c = graph.add_tensor("c", (1,))
        graph.add_op("def", "relu", [c], [b])
        with pytest.raises(ValueError):
            graph.validate()

    def test_validate_rejects_an_op_reading_its_own_output(self):
        """Defs precede uses strictly: an op cannot consume what it
        produces."""
        graph = Graph("t")
        a = graph.add_tensor("a", (1,))
        b = graph.add_tensor("b", (1,))
        op = graph.add_op("loop", "add", [a, a], [b])
        graph.validate()
        op.inputs[1] = b.id
        b.consumers.append(op.id)
        with pytest.raises(ValueError, match="before it is produced"):
            graph.validate()

    def test_saved_marks_consumer(self):
        graph = Graph("t")
        a = graph.add_tensor("a", (1,))
        b = graph.add_tensor("b", (1,))
        op = graph.add_op("op", "relu", [a], [b], saved=[b])
        assert op.id in b.consumers

    def test_op_by_id_unknown_id_raises_key_error(self):
        graph = Graph("t")
        a = graph.add_tensor("a", (1,))
        b = graph.add_tensor("b", (1,))
        c = graph.add_tensor("c", (1,))
        first = graph.add_op("first", "relu", [a], [b])
        second = graph.add_op("second", "relu", [b], [c])
        graph.ops.remove(first)        # ids and positions now diverge
        assert graph.op_by_id(second.id) is second
        # A leaked StopIteration would end map() early: one op, no error.
        with pytest.raises(KeyError, match="no op with id 99"):
            list(map(graph.op_by_id, [second.id, 99, second.id]))
        with pytest.raises(KeyError, match=f"id {first.id}"):
            graph.op_by_id(first.id)


class TestForwardBuilder:
    def test_validates(self, vgg_graph):
        vgg_graph.validate()

    def test_final_shape_is_loss(self, rng):
        graph = build_forward_graph(small_vgg(num_classes=5, rng=rng), 4)
        loss_op = graph.ops[-1]
        assert loss_op.op_type == "cross_entropy"
        assert graph.tensors[loss_op.outputs[0]].shape == (1,)

    def test_inference_ends_at_classifier(self, rng):
        graph = build_forward_graph(small_vgg(num_classes=5, rng=rng), 4,
                                    inference=True)
        assert graph.ops[-1].op_type == "linear"

    def test_parameters_cached_per_module(self, rng):
        graph = build_forward_graph(small_vgg(rng=rng), 4)
        conv_weights = [t for t in graph.tensors.values()
                        if t.kind == "parameter" and "conv" in t.name
                        and "weight" in t.name]
        assert len(conv_weights) == 6  # one per conv layer, not per use

    def test_conv_saves_input(self, vgg_graph):
        conv_ops = [op for op in vgg_graph.forward_ops()
                    if op.op_type == "conv2d"]
        for op in conv_ops:
            assert op.saved == [op.inputs[0]]

    def test_relu_is_inplace_and_saves_output(self, vgg_graph):
        relu_ops = [op for op in vgg_graph.forward_ops()
                    if op.op_type == "relu"]
        for op in relu_ops:
            assert op.inplace_of == op.inputs[0]
            assert op.saved == [op.outputs[0]]

    def test_workspace_only_for_spatial_convs(self, rng):
        with init.fast_init():
            graph = build_forward_graph(
                resnet18(dataset="imagenet", num_classes=1000), 4)
        for op in graph.forward_ops():
            if op.op_type != "conv2d":
                continue
            if op.attrs["kernel"] == (1, 1):
                assert op.workspace_bytes == 0
            else:
                assert op.workspace_bytes > 0

    def test_workspace_capped(self, rng):
        with init.fast_init():
            graph = build_forward_graph(
                resnet18(dataset="imagenet", num_classes=1000), 256,
                workspace_cap=1 << 28)
        assert max(op.workspace_bytes for op in graph.ops) <= 1 << 28

    def test_residual_add_present(self, resnet_graph):
        adds = [op for op in resnet_graph.forward_ops() if op.op_type == "add"]
        assert len(adds) == 3  # one per BasicBlock

    @pytest.mark.parametrize("batch", [0, -1])
    @pytest.mark.parametrize("inference", [False, True])
    def test_empty_batch_rejected(self, rng, batch, inference):
        # A batch of 0 used to build a graph the planner priced at
        # 0 images/s.
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            build_forward_graph(small_vgg(rng=rng), batch,
                                inference=inference)


class TestMemoryEfficientBn:
    def test_relu_following_bn_recomputes(self, rng):
        with init.fast_init():
            graph = build_forward_graph(
                resnet18(dataset="imagenet", num_classes=1000,
                         memory_efficient=True), 4)
        bn_ops = [op for op in graph.forward_ops() if op.op_type == "batchnorm"]
        recompute = [op for op in bn_ops if op.attrs["recompute"]]
        kept = [op for op in bn_ops if not op.attrs["recompute"]]
        # bn1 (pre-ReLU) recomputes; bn2 (pre-add) keeps its input.
        assert recompute and kept
        for op in recompute:
            assert op.saved == []
        for op in kept:
            assert op.saved == [op.inputs[0]]

    def test_saved_bytes_shrink(self, rng):
        with init.fast_init():
            plain = build_forward_graph(
                resnet18(dataset="imagenet", num_classes=1000), 4)
            efficient = build_forward_graph(
                resnet18(dataset="imagenet", num_classes=1000,
                         memory_efficient=True), 4)
        plain_bytes = sum(t.nbytes for t in plain.saved_tensors())
        efficient_bytes = sum(t.nbytes for t in efficient.saved_tensors())
        assert efficient_bytes < plain_bytes


class TestBackwardGeneration:
    def test_every_parameter_gets_gradient(self, vgg_graph):
        param_ids = {t.id for t in vgg_graph.tensors.values()
                     if t.kind == "parameter"}
        grad_names = {t.name for t in vgg_graph.tensors.values()
                      if t.kind == "gradient"}
        params = [t for t in vgg_graph.tensors.values() if t.kind == "parameter"]
        for param in params:
            assert any(param.name in name for name in grad_names), param.name

    def test_backward_ops_reference_forward(self, vgg_graph):
        for op in vgg_graph.backward_ops():
            if op.op_type == "grad_acc":
                continue
            assert op.forward_of is not None

    def test_backward_in_reverse_order(self, vgg_graph):
        backward = [op for op in vgg_graph.backward_ops()
                    if op.forward_of is not None and op.op_type != "grad_acc"]
        forward_positions = [op.forward_of for op in backward]
        # conv backward emits two ops per forward op; the sequence of
        # forward ids must be non-increasing.
        assert all(a >= b for a, b in zip(forward_positions,
                                          forward_positions[1:]))

    def test_residual_grads_shared_value(self, resnet_graph):
        add_bwd = [op for op in resnet_graph.backward_ops()
                   if op.op_type == "add_bwd"]
        assert add_bwd
        for op in add_bwd:
            assert op.attrs["shared_value"]
            assert len(op.outputs) == 2

    def test_grad_acc_for_multi_consumer_tensors(self, resnet_graph):
        # The block input feeds conv1 and the shortcut -> two grad paths.
        acc = [op for op in resnet_graph.backward_ops()
               if op.op_type == "grad_acc"]
        assert acc

    def test_recompute_bn_backward_does_not_read_input(self, rng):
        with init.fast_init():
            graph = build_training_graph(
                resnet18(dataset="imagenet", num_classes=1000,
                         memory_efficient=True), 4)
        for op in graph.backward_ops():
            if op.op_type != "batchnorm_bwd" or not op.attrs.get("recompute"):
                continue
            forward = graph.op_by_id(op.forward_of)
            assert forward.inputs[0] not in op.inputs


class TestSplitGraph:
    def test_split_and_concat_nodes(self, rng):
        model = to_split_cnn(small_vgg(rng=rng), depth=0.5, num_splits=(2, 2))
        graph = build_training_graph(model, 4)
        types = [op.op_type for op in graph.forward_ops()]
        assert types.count("split") == 1
        assert types.count("concat") == 1
        assert types.index("split") < types.index("concat")

    def test_patch_conv_count(self, rng):
        model = to_split_cnn(small_vgg(rng=rng), depth=0.5, num_splits=(2, 2))
        graph = build_training_graph(model, 4)
        convs = [op for op in graph.forward_ops() if op.op_type == "conv2d"]
        # 3 split convs x 4 patches + 3 unsplit convs.
        assert len(convs) == 15

    def test_patch_shapes_tile_input(self, rng):
        model = to_split_cnn(small_vgg(rng=rng), depth=0.5, num_splits=(2, 2))
        graph = build_training_graph(model, 4)
        split_op = next(op for op in graph.forward_ops()
                        if op.op_type == "split")
        input_tensor = graph.tensor(split_op.inputs[0])
        patches = [graph.tensor(t) for t in split_op.outputs]
        assert len(patches) == 4
        # Patches are laid out row-major over a 2x2 grid: rows (0,1) share a
        # height, columns (0,1)... heights of one column sum to H, widths of
        # one row sum to W, and patch areas tile the full plane.
        heights = [patches[0].shape[2], patches[2].shape[2]]
        widths = [patches[0].shape[3], patches[1].shape[3]]
        assert sum(heights) == input_tensor.shape[2]
        assert sum(widths) == input_tensor.shape[3]
        area = sum(p.shape[2] * p.shape[3] for p in patches)
        assert area == input_tensor.shape[2] * input_tensor.shape[3]

    def test_split_resnet_graph_builds(self, rng):
        model = to_split_cnn(small_resnet(rng=rng), depth=0.7, num_splits=(2, 2))
        graph = build_training_graph(model, 2)
        graph.validate()
        assert any(op.op_type == "split" for op in graph.forward_ops())


class TestLifetimes:
    def test_boundary_is_last_forward(self, vgg_graph):
        lifetimes = compute_lifetimes(vgg_graph)
        boundary = next(iter(lifetimes.values())).boundary
        assert vgg_graph.ops[boundary].phase == "forward"
        assert vgg_graph.ops[boundary + 1].phase == "backward"

    def test_saved_tensors_cross_boundary(self, vgg_graph):
        lifetimes = compute_lifetimes(vgg_graph)
        for tensor in vgg_graph.saved_tensors():
            assert lifetimes[tensor.id].crosses_boundary(), tensor.name

    def test_forward_only_tensor_does_not_cross(self, vgg_graph):
        lifetimes = compute_lifetimes(vgg_graph)
        crossing = [t for t in vgg_graph.tensors.values()
                    if t.kind == "activation"
                    and lifetimes[t.id].crosses_boundary()]
        not_crossing = [t for t in vgg_graph.tensors.values()
                        if t.kind == "activation"
                        and not lifetimes[t.id].crosses_boundary()]
        assert crossing and not_crossing

    def test_produce_before_uses(self, vgg_graph):
        lifetimes = compute_lifetimes(vgg_graph)
        for lifetime in lifetimes.values():
            for use in lifetime.use_indices:
                assert use >= lifetime.produce_index
