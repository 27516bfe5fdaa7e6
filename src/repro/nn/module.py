"""Module base class: parameter registration, train/eval mode, traversal."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterator, List, Optional, Tuple

from ..tensor import Tensor

__all__ = ["Module", "Parameter"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable parameter."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Assigning a :class:`Parameter` or :class:`Module` to an attribute
    registers it, so :meth:`parameters` and :meth:`train`/:meth:`eval`
    traverse the whole tree automatically.  Any other tensor (batch
    norm's running statistics) is a plain attribute.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

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

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

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
