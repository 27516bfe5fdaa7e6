"""Shared test utilities: numeric gradient checking and tiny fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import build_training_graph
from repro.graph.executor import GraphExecutor
from repro.graph.ir import OpNode
from repro.nn import CrossEntropyLoss
from repro.tensor import Tensor


def numeric_gradient(fn, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x0``."""
    grad = np.zeros_like(x0, dtype=np.float64)
    iterator = np.nditer(x0, flags=["multi_index"])
    for _ in iterator:
        index = iterator.multi_index
        plus = x0.copy()
        plus[index] += eps
        minus = x0.copy()
        minus[index] -= eps
        grad[index] = (fn(plus) - fn(minus)) / (2 * eps)
    return grad


def gradcheck(make_output, x0: np.ndarray, rtol: float = 1e-4,
              atol: float = 1e-6, rng_seed: int = 0) -> None:
    """Assert analytic gradient of ``make_output(Tensor)`` matches numerics.

    ``make_output`` maps a float64 Tensor to an output Tensor; the check
    contracts the output with a fixed random cotangent.
    """
    rng = np.random.default_rng(rng_seed)
    x0 = x0.astype(np.float64)
    tensor = Tensor(x0.copy(), requires_grad=True, dtype=np.float64)
    out = make_output(tensor)
    cotangent = rng.standard_normal(out.shape)
    out.backward(cotangent)
    assert tensor.grad is not None, "no gradient reached the input"

    def scalar(x_data: np.ndarray) -> float:
        value = make_output(Tensor(x_data, dtype=np.float64)).numpy()
        return float((value * cotangent).sum())

    numeric = numeric_gradient(scalar, x0)
    np.testing.assert_allclose(tensor.grad, numeric, rtol=rtol, atol=atol)


def to_float64(model):
    """Parameters and every other tensor attribute (batch norm's running
    statistics) of every module, in place."""
    for module in model.modules():
        for value in vars(module).values():
            if isinstance(value, Tensor):
                value.data = value.data.astype(np.float64)
    return model


def num_parameters(model) -> int:
    return sum(param.size for param in model.parameters())


def autograd_step(model, x, y):
    """Loss and per-parameter gradients of one eager training step."""
    model.train()
    model.zero_grad()
    loss = CrossEntropyLoss()(model(Tensor(x, dtype=np.float64)), y)
    loss.backward()
    grads = [p.grad.copy() for _, p in model.named_parameters()]
    return loss.item(), grads


def executor_step(model, x, y, patch_order="depth_first", **executor_kwargs):
    """The same step through the IR: ``(loss, gradients, graph)``."""
    graph = build_training_graph(model, len(x), patch_order=patch_order)
    params = GraphExecutor.parameters_from_model(graph, model)
    outputs = GraphExecutor(graph, params, **executor_kwargs).run(x, y)
    ordered = [t for t in sorted(graph.tensors.values(), key=lambda t: t.id)
               if t.kind == "parameter"]
    grads = [outputs[f"grad({t.name})"] for t in ordered]
    return float(outputs["loss"][0]), grads, graph


def held_bytes(executor):
    """``(held, declared)`` bytes of an executor, parameters and
    constants aside: ``held`` counts its values plus every other array it
    reaches through its attributes, ``declared`` the bytes the graph
    declares for the values it holds.  Equal when the executor keeps
    nothing outside the graph's tensors."""
    persistent = {id(a) for a in executor._base_values if a is not None}
    seen = set(persistent)
    held = declared = 0
    for tensor_id, value in enumerate(executor.values):
        if value is None or id(value) in persistent:
            continue
        seen.add(id(value))
        held += value.nbytes
        declared += executor.graph.tensors[tensor_id].nbytes
    skip = ("graph", "values", "_base_values", "targets")
    stack = [v for k, v in vars(executor).items() if k not in skip]
    walked = set()
    while stack:
        item = stack.pop()
        if isinstance(item, (int, float, str, OpNode)) or item is None \
                or callable(item) or id(item) in walked:
            continue
        walked.add(id(item))
        if isinstance(item, np.ndarray):
            if id(item) not in seen:
                seen.add(id(item))
                held += item.nbytes
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.append(vars(item))
    return held, declared


def trace_held_bytes(executor, x, y):
    """Run one step and return ``[(op, before, after)]``: the
    :func:`held_bytes` pair just before and just after each kernel,
    seen through the ``execute_op`` seam."""
    trace = []
    run_op = executor.execute_op

    def recording(op):
        before = held_bytes(executor)
        run_op(op)
        trace.append((op, before, held_bytes(executor)))

    executor.execute_op = recording
    executor.run(x.astype(executor.width), y)
    return trace


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
