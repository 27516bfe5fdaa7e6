"""The :class:`Tensor` class — a numpy array with reverse-mode autograd."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import autograd

__all__ = ["Tensor", "DEFAULT_DTYPE"]

DEFAULT_DTYPE = np.float32

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


class Tensor:
    """A multi-dimensional array supporting automatic differentiation.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Numeric dtypes are preserved unless
        ``dtype`` is given; non-numeric dtypes are coerced to float32.
    requires_grad:
        When True, gradients are accumulated into ``self.grad`` during
        :meth:`backward`.
    name:
        Optional label used in debugging and graph export.
    """

    __slots__ = ("data", "grad", "requires_grad", "_ctx", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if dtype is not None:
            array = array.astype(dtype, copy=False)
        elif array.dtype.kind not in "fiub":
            # Exotic dtypes (object, str, ...) are coerced; float dtypes are
            # preserved so float64 gradient checks stay exact.
            array = array.astype(DEFAULT_DTYPE, copy=False)
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._ctx: Optional[autograd.Function] = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self):
        raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag}{label})"

    # ------------------------------------------------------------------
    # Autograd
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor to every reachable leaf."""
        autograd.backward(self, grad)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a Tensor (no-op when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
