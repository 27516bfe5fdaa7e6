"""The executor's overwrite table changes where results are written, never
what they are.

There is no switch to turn in-place accumulation off, so the reference is
an executor of the same graph whose *private* table the test empties:
with no permission granted every kernel allocates, exactly as before the
table existed.  Both instances must return ``tobytes``-equal dicts over
the numeric zoo x {unsplit, 2x2, 3x3} x {train, infer} x {uncompiled,
default pipeline} x workers {1, 2}.  ``small_resnet`` covers the
``add_bwd`` fan-out (one array behind two error terms), the split
variants the per-patch ``grad_acc`` chains the table exists for.
"""

import numpy as np
import pytest

from repro.analysis import verify_lowering
from repro.compile import compile_graph
from repro.core import to_split_cnn
from repro.graph import (
    GraphExecutor, build_inference_graph, build_training_graph,
)
from repro.graph.ir import Graph
from repro.models import small_resnet, small_vgg

MODELS = {"small_vgg": small_vgg, "small_resnet": small_resnet}


def _without_table(executor):
    executor._overwrite = [()] * len(executor._overwrite)
    return executor


def _bytes(outputs):
    return {key: value.tobytes() for key, value in outputs.items()}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("splits", [1, 2, 3])
@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("compiled", [False, True])
def test_table_never_changes_a_byte(name, splits, mode, compiled):
    rng = np.random.default_rng(0)
    model = MODELS[name](num_classes=4, rng=rng)
    if splits > 1:
        model = to_split_cnn(model, depth=1.0, num_splits=(splits, splits))
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    targets = np.array([1, 3]) if mode == "train" else None
    if mode == "train":
        graph = build_training_graph(model, 2)
    else:
        graph = build_inference_graph(model, 2)
    params = GraphExecutor.parameters_from_model(graph, model)
    if compiled:
        compile_graph(graph, params=params)

    reference = _bytes(_without_table(
        GraphExecutor(graph, params)).run(x, targets))
    for workers in (1, 2):
        executor = GraphExecutor(graph, params, workers=workers)
        granted = sum(map(len, executor._overwrite))
        if mode == "train" and splits > 1:
            # Not vacuous: every parameter-gradient accumulation has a
            # dead operand to accumulate into.
            accumulators = [op for op in graph.ops
                            if op.op_type == "grad_acc"]
            assert accumulators and all(
                executor.may_overwrite(op, 0) or executor.may_overwrite(op, 1)
                for op in accumulators if all(
                    graph.tensors[t].kind == "gradient" for t in op.inputs))
        elif mode == "infer":
            assert granted == 0       # nothing backward-produced to reuse
        assert _bytes(executor.run(x, targets)) == reference
        # Same bytes on a second step: an overwritten partial never leaks
        # into the next run.
        assert _bytes(executor.run(x, targets)) == reference


def test_kept_values_alias_the_result():
    """``eager_free=False`` keeps every value; an input its consumer
    overwrote is documented to alias that consumer's result."""
    rng = np.random.default_rng(0)
    model = to_split_cnn(small_vgg(num_classes=4, rng=rng), depth=1.0,
                         num_splits=(2, 2))
    graph = build_training_graph(model, 2)
    params = GraphExecutor.parameters_from_model(graph, model)
    executor = GraphExecutor(graph, params, eager_free=False)
    executor.run(rng.standard_normal((2, 3, 32, 32), dtype=np.float32),
                 np.array([1, 3]))
    aliased = 0
    for op in graph.ops:
        for index, tensor_id in enumerate(op.inputs):
            if op.op_type == "grad_acc" and executor.may_overwrite(op, index):
                aliased += np.shares_memory(executor.values[tensor_id],
                                            executor.values[op.outputs[0]])
    assert aliased


# ----------------------------------------------------------------------
# The forward-phase rule, pinned on a hand-built graph
# ----------------------------------------------------------------------
def _aliasing_graph():
    """A 1x1 ``split`` — not an aliasing registry entry — whose output
    ``p`` is a view of its input ``h``, which a conv's weight gradient
    reads.  ``p``'s only consumer is a ``grad_acc``: sole-consumer and
    alias rules alone would let it accumulate into ``p``, i.e. into the
    activation the weight gradient reads."""
    graph = Graph("split-aliases-input")
    x = graph.add_tensor("x", (1, 2, 6, 6), kind="input")
    grad_y = graph.add_tensor("grad_y", (1, 3, 4, 4), kind="input")
    weight = graph.add_tensor("w", (3, 2, 3, 3), kind="parameter")
    h = graph.add_tensor("h", (1, 2, 6, 6))
    p = graph.add_tensor("p", (1, 2, 6, 6))
    q = graph.add_tensor("q", (1, 2, 6, 6))
    y = graph.add_tensor("y", (1, 3, 4, 4))
    total = graph.add_tensor("logits", (1, 2, 6, 6))
    grad_w = graph.add_tensor("grad(w)", (3, 2, 3, 3), kind="gradient")
    graph.add_op("relu_h", "relu", [x], [h])
    graph.add_op("part", "split", [h], [p],
                 attrs={"scheme_h": [0], "scheme_w": [0]})
    attrs = {"stride": (1, 1), "padding": ((0, 0), (0, 0)),
             "kernel": (3, 3), "out_channels": 3}
    conv = graph.add_op("conv", "conv2d", [h, weight], [y], attrs=attrs)
    graph.add_op("relu_q", "relu", [x], [q])
    acc = graph.add_op("sum", "grad_acc", [p, q], [total])
    bwd = graph.add_op("conv.bwd_weight", "conv2d_bwd_weight", [grad_y, h],
                       [grad_w], attrs=dict(attrs), phase="backward",
                       forward_of=conv.id)
    return graph, bwd, acc, (x, grad_y, h, p)


def test_forward_values_are_never_overwritten():
    graph, bwd, acc, (x, grad_y, h, p) = _aliasing_graph()
    rng = np.random.default_rng(0)
    params = {"w": rng.standard_normal((3, 2, 3, 3)).astype(graph.width)}
    inputs = {x.id: rng.standard_normal(x.shape).astype(graph.width),
              grad_y.id: rng.standard_normal(grad_y.shape).astype(graph.width)}

    reference = _without_table(GraphExecutor(graph, params, eager_free=False))
    expected = _bytes(reference.run_with_inputs(inputs))
    # The premise: two names, one array, and the gradient reads ``h``.
    assert np.shares_memory(reference.values[p.id], reference.values[h.id])
    assert bwd.inputs[1] == h.id

    for workers in (1, 2):
        executor = GraphExecutor(graph, params, workers=workers)
        assert not any(executor._overwrite)       # all forward-produced
        assert not verify_lowering(executor)
        assert _bytes(executor.run_with_inputs(inputs)) == expected

    # The rule is load-bearing: grant the permission the other two rules
    # would have granted and the weight gradient is computed from a
    # clobbered activation — and the verifier says why.
    forged = GraphExecutor(graph, params)
    forged._overwrite[acc.id] = (p.id,)
    assert _bytes(forged.run_with_inputs(inputs)) != expected
    findings = verify_lowering(forged)
    assert [f.code for f in findings] == ["SCA406"]
    assert "forward value" in findings[0].message
