"""Weight initialization schemes (Kaiming, fan computation)."""

from __future__ import annotations

import contextlib
import math
from typing import Optional, Tuple

import numpy as np

from ..tensor import DEFAULT_DTYPE

__all__ = [
    "compute_fans", "kaiming_normal", "kaiming_uniform", "zeros", "ones",
    "constant", "fast_init",
]

_FAST_INIT = False


@contextlib.contextmanager
def fast_init():
    """Make random initializers return zeros while active.

    Memory-planning and throughput experiments build ImageNet-scale models
    (hundreds of MB of weights) only to read their *shapes*; this avoids the
    pointless random-number generation.
    """
    global _FAST_INIT
    previous = _FAST_INIT
    _FAST_INIT = True
    try:
        yield
    finally:
        _FAST_INIT = previous


def compute_fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight of the given shape.

    Follows the convolution convention: ``shape = (out, in, kh, kw)`` has a
    receptive field of ``kh * kw``.
    """
    if len(shape) < 2:
        raise ValueError(f"fan computation needs >=2 dims, got {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


def kaiming_normal(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """He-normal init: std = sqrt(2 / fan_in), appropriate before ReLU."""
    if _FAST_INIT:
        return np.zeros(shape, dtype=DEFAULT_DTYPE)
    fan_in, _ = compute_fans(shape)
    std = math.sqrt(2.0 / fan_in)
    return (_rng(rng).standard_normal(shape) * std).astype(DEFAULT_DTYPE)


def kaiming_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> np.ndarray:
    if _FAST_INIT:
        return np.zeros(shape, dtype=DEFAULT_DTYPE)
    fan_in, _ = compute_fans(shape)
    bound = math.sqrt(6.0 / fan_in)
    return _rng(rng).uniform(-bound, bound, shape).astype(DEFAULT_DTYPE)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=DEFAULT_DTYPE)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=DEFAULT_DTYPE)


def constant(shape: Tuple[int, ...], value: float) -> np.ndarray:
    return np.full(shape, value, dtype=DEFAULT_DTYPE)
