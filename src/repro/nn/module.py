"""Module base class: parameter registration, train/eval mode, traversal."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor

__all__ = ["Module", "Parameter"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable parameter."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Assigning a :class:`Parameter`, :class:`Module` or buffer tensor to an
    attribute registers it, so :meth:`parameters`, :meth:`state_dict` and
    :meth:`train`/:meth:`eval` traverse the whole tree automatically.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, tensor: Tensor) -> None:
        """Register a non-trainable persistent tensor (e.g. BN running stats)."""
        self._buffers[name] = tensor
        object.__setattr__(self, name, tensor)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        yield from self._modules.items()

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def apply(self, fn) -> "Module":
        """Apply ``fn`` to every module in the tree (self included)."""
        for module in self.modules():
            fn(module)
        return self

    # ------------------------------------------------------------------
    # Mode & gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.data.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own: Dict[str, Tensor] = dict(self.named_parameters())
        own.update(dict(self.named_buffers()))
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, tensor in own.items():
            if tensor.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: module has "
                    f"{tensor.data.shape}, state has {state[name].shape}"
                )
            tensor.data = state[name].astype(tensor.data.dtype, copy=True)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args: Any, **kwargs: Any):
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward()"
        )

    def __call__(self, *args: Any, **kwargs: Any):
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        if len(lines) == 1:
            return lines[0] + ")"
        lines.append(")")
        return "\n".join(lines)
