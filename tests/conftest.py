"""Shared test utilities: numeric gradient checking and tiny fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import build_training_graph
from repro.graph.executor import GraphExecutor
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
    for param in model.parameters():
        param.data = param.data.astype(np.float64)
    for _, buf in model.named_buffers():
        buf.data = buf.data.astype(np.float64)
    return model


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
