"""Tensor Storage Objects (paper §4, "TSO").

A TSO is a contiguous region of storage used by one or more tensors.
Separating the conceptual tensor from its physical storage is what enables
the in-place-ReLU and summation-sharing optimizations of §4.2: several
tensors may map onto one TSO when conditions allow.

Which ops are *eligible* for each sharing optimization is declared on
their :class:`~repro.graph.registry.OpDef` (the ``sharing`` and
``inplace`` fields); the class constants are re-exported here for the
storage-assignment pass and external callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..graph.registry import SHARE_ALIAS, SHARE_NONE, SHARE_SUMMATION

__all__ = [
    "TSO", "POOL_DEVICE_GENERAL", "POOL_DEVICE_PARAM",
    "SHARE_NONE", "SHARE_ALIAS", "SHARE_SUMMATION",
]

POOL_DEVICE_GENERAL = "device_general"
POOL_DEVICE_PARAM = "device_param"


@dataclass
class TSO:
    """A contiguous storage region shared by ``tensor_ids``."""

    id: int
    pool: str = POOL_DEVICE_GENERAL
    tensor_ids: List[int] = field(default_factory=list)
    size: int = 0
    # Reference counter maintained during storage assignment (§4.2): the
    # number of tensors currently mapped to this TSO.
    refcount: int = 0

    def add_tensor(self, tensor_id: int, nbytes: int) -> None:
        self.tensor_ids.append(tensor_id)
        self.size = max(self.size, nbytes)
        self.refcount += 1

    def __repr__(self) -> str:
        return (
            f"TSO({self.id}, pool={self.pool}, size={self.size}, "
            f"tensors={len(self.tensor_ids)})"
        )
