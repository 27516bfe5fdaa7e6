"""Pooling modules."""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..tensor import Tensor, max_pool2d, normalize_pair, normalize_padding2d
from ..tensor.ops_nn import IntPair, Padding2d
from .module import Module

__all__ = ["MaxPool2d", "GlobalAvgPool2d"]


class MaxPool2d(Module):
    """Max pooling over 2-D spatial windows (asymmetric padding supported)."""

    def __init__(
        self,
        kernel_size: Union[int, IntPair],
        stride: Optional[Union[int, IntPair]] = None,
        padding: Union[int, Sequence] = 0,
    ) -> None:
        super().__init__()
        self.kernel_size: IntPair = normalize_pair(kernel_size)
        self.stride: IntPair = (
            normalize_pair(stride) if stride is not None else self.kernel_size
        )
        self.padding: Padding2d = normalize_padding2d(padding)

    def extra_repr(self) -> str:
        return (
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}"
        )

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.stride, self.padding)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, producing ``(N, C, 1, 1)``.

    Equivalent to ``AdaptiveAvgPool2d(1)`` in other frameworks; used by the
    ResNet family before the classifier.
    """

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3), keepdims=True)
