"""Module containers."""

from __future__ import annotations

from typing import Iterator, Union

from ..tensor import Tensor
from .module import Module

__all__ = ["Sequential"]


class Sequential(Module):
    """Chain modules; the output of each feeds the next."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: Union[int, slice]) -> Union[Module, "Sequential"]:
        items = list(self._modules.values())
        if isinstance(index, slice):
            return Sequential(*items[index])
        return items[index]

    def append(self, module: Module) -> "Sequential":
        setattr(self, str(len(self._modules)), module)
        return self

