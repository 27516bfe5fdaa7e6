"""Reverse-mode automatic differentiation core.

The engine is tape-free: every :class:`~repro.tensor.tensor.Tensor` produced
by a differentiable operation carries a reference to the
:class:`Function` instance that created it, forming an implicit DAG.  Calling
``Tensor.backward()`` topologically sorts that DAG and propagates gradients
from outputs to leaves.

Only the machinery lives here; concrete operations are defined in the
``ops_*`` modules and registered as methods on ``Tensor``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Function", "is_grad_enabled", "no_grad"]


class _GradMode(threading.local):
    """Thread-local switch controlling whether operations record the graph."""

    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Return True when operations should record the autograd graph."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (inference mode)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Function:
    """Base class for differentiable operations.

    Subclasses implement ``forward`` (consuming raw numpy arrays and python
    scalars, returning a numpy array) and ``backward`` (consuming the
    gradient of the output, returning one gradient per *positional* input —
    ``None`` for inputs that were not tensors or do not need gradients).

    The instance itself is the context: ``forward`` may stash whatever it
    needs on ``self`` for use in ``backward``.
    """

    def forward(self, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any):
        """Run ``forward`` and wire up the autograd graph if needed."""
        from .tensor import Tensor

        ctx = cls()
        raw_args = [a.data if isinstance(a, Tensor) else a for a in args]
        out_data = ctx.forward(*raw_args, **kwargs)

        requires_grad = is_grad_enabled() and any(
            isinstance(a, Tensor) and a.requires_grad for a in args
        )
        out = Tensor(out_data, requires_grad=requires_grad)
        if requires_grad:
            ctx.parents: Tuple[Any, ...] = args
            out._ctx = ctx
        return out


def _topo_order(root) -> List:
    """Return tensors of the graph rooted at ``root`` in topological order."""
    order: List = []
    visited = set()
    # Iterative DFS: deep networks would blow Python's recursion limit.
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node._ctx is not None:
            from .tensor import Tensor

            for parent in node._ctx.parents:
                if isinstance(parent, Tensor) and id(parent) not in visited:
                    stack.append((parent, False))
    return order


def backward(root, grad: Optional[np.ndarray] = None) -> None:
    """Propagate gradients from ``root`` to every reachable leaf."""
    from .tensor import Tensor

    if grad is None:
        if root.data.size != 1:
            raise RuntimeError(
                "backward() without an explicit gradient is only defined for "
                f"scalar outputs; got shape {root.data.shape}"
            )
        grad = np.ones_like(root.data)

    grads = {id(root): np.asarray(grad, dtype=root.data.dtype)}
    for node in reversed(_topo_order(root)):
        node_grad = grads.pop(id(node), None)
        if node_grad is None:
            continue
        if node.requires_grad and node._ctx is None:
            # Leaf tensor: accumulate into .grad
            if node.grad is None:
                node.grad = node_grad.copy()
            else:
                node.grad += node_grad
        if node._ctx is None:
            continue
        parent_grads = node._ctx.backward(node_grad)
        if not isinstance(parent_grads, (tuple, list)):
            parent_grads = (parent_grads,)
        parents = node._ctx.parents
        if len(parent_grads) != len(parents):
            raise RuntimeError(
                f"{type(node._ctx).__name__}.backward returned "
                f"{len(parent_grads)} gradients for {len(parents)} inputs"
            )
        for parent, parent_grad in zip(parents, parent_grads):
            if parent_grad is None or not isinstance(parent, Tensor):
                continue
            if not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + parent_grad
            else:
                grads[key] = parent_grad
