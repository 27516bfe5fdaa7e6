"""Automatic model transformation: regular CNN -> Split-CNN (paper §4.1 step 1).

Given a splitting depth ``d`` (fraction of convolutional layers to split)
and a patch grid ``(h, w)``, the transform wraps the matching prefix of the
model's ``features`` chain in a :class:`~repro.core.region.SplitRegion` and
leaves the rest untouched.  Parameters are shared by reference with the
original model, so the transform is a *view*: training the Split-CNN trains
the original weights, which is what lets Stochastic Split-CNN be evaluated
on the unsplit network (§3.3).

Join points are chosen at item boundaries of the ``features`` Sequential;
for ResNet those items are whole residual blocks, which is why achieved
depths are approximate (paper footnote 3 — e.g. 51.7% or 81.2% instead of
a round 50%/80%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..models.base import ConvClassifier
from ..nn import Module, Sequential
from ..tensor.ops_nn import IntPair
from .region import SplitRegion, conv_count
from .scheme import GRID_OF_SPLITS
from .stochastic import DEFAULT_OMEGA

__all__ = ["SplitInfo", "find_split_prefix", "to_split_cnn",
           "build_zoo_model"]


@dataclass(frozen=True)
class SplitInfo:
    """Record of what the transform did (reported in experiment tables)."""

    requested_depth: float
    achieved_depth: float
    num_splits: IntPair
    stochastic: bool
    prefix_items: int
    total_convs: int
    split_convs: int


def find_split_prefix(items: List[Module], depth: float) -> Tuple[int, float]:
    """Choose how many leading ``features`` items to split.

    Returns ``(prefix_length, achieved_depth)`` where ``achieved_depth`` is
    the fraction of convolutional layers inside the chosen prefix — the
    boundary whose fraction is closest to ``depth`` among item boundaries.
    """
    if not 0.0 <= depth <= 1.0:
        raise ValueError(f"depth must be in [0, 1], got {depth}")
    counts = [conv_count(item) for item in items]
    total = sum(counts)
    if total == 0:
        raise ValueError("model has no convolutional layers to split")
    best_length, best_fraction, best_error = 0, 0.0, depth
    cumulative = 0
    for length, count in enumerate(counts, start=1):
        cumulative += count
        if count == 0:
            # Joining after a conv-free item is never better than joining
            # before it; skip to keep the region minimal.
            continue
        fraction = cumulative / total
        error = abs(fraction - depth)
        if error < best_error:
            best_length, best_fraction, best_error = length, fraction, error
    return best_length, best_fraction


def to_split_cnn(
    model: ConvClassifier,
    depth: float,
    num_splits: IntPair = (2, 2),
    stochastic: bool = False,
    omega: float = DEFAULT_OMEGA,
    position: float = 0.5,
    seed: Optional[int] = None,
    eval_unsplit: Optional[bool] = None,
) -> ConvClassifier:
    """Transform ``model`` into a Split-CNN (parameters shared by reference).

    Parameters mirror the paper's tunables: ``depth`` is the percentage of
    convolutional layers split, ``num_splits`` the ``(h, w)`` patch grid,
    ``stochastic``/``omega`` enable §3.3 stochastic splitting.

    ``depth = 0`` (or a depth closest to an empty prefix) returns a model
    with an unmodified feature chain — the baseline CNN.
    """
    items = list(model.features)
    prefix_length, achieved = find_split_prefix(items, depth)
    total = sum(conv_count(item) for item in items)
    split_convs = sum(conv_count(item) for item in items[:prefix_length])
    if prefix_length == 0:
        new_features = Sequential(*items)
    else:
        region = SplitRegion(
            Sequential(*items[:prefix_length]),
            num_splits=num_splits,
            stochastic=stochastic,
            omega=omega,
            position=position,
            seed=seed,
            eval_unsplit=eval_unsplit,
        )
        new_features = Sequential(region, *items[prefix_length:])
    split_model = model.clone_with_features(new_features)
    split_model.name = (
        f"{model.name}-{'s' if stochastic else ''}split"
        f"{num_splits[0]}x{num_splits[1]}-d{achieved:.3f}"
    )
    split_model.split_info = SplitInfo(
        requested_depth=depth,
        achieved_depth=achieved,
        num_splits=(int(num_splits[0]), int(num_splits[1])),
        stochastic=stochastic,
        prefix_items=prefix_length,
        total_convs=total,
        split_convs=split_convs,
    )
    return split_model


def build_zoo_model(name: str, split: int = 1,
                    split_depth: float = 0.5) -> ConvClassifier:
    """A zoo model by name, optionally split-transformed — the one
    builder behind the CLI and :meth:`ServingEngine.from_zoo`.

    ``split`` is the paper's total patch count (a ``GRID_OF_SPLITS`` key;
    1 = unsplit), ``split_depth`` the fraction of conv layers split; the
    model is transformed only when both ask for it.  Zoo models whose
    constructors default to CIFAR shapes get their ImageNet heads, and
    weights are fast-initialised (callers plan and bench, not train).
    Raises ``ValueError`` on an unknown name or split count, or a
    ``split_depth`` outside ``[0, 1]`` (NaN included: it would skip the
    transform and serve the unsplit model).
    """
    # Deferred: repro.models' residual handlers import this package.
    from ..models import build_model
    from ..nn import init

    if split not in GRID_OF_SPLITS:
        raise ValueError(
            f"split must be one of {sorted(GRID_OF_SPLITS)}, got {split}")
    if not 0.0 <= split_depth <= 1.0:
        raise ValueError(f"split depth must be in [0, 1], got {split_depth}")
    kwargs = {}
    if name in ("vgg11", "resnet18", "resnet34"):
        kwargs = {"dataset": "imagenet", "num_classes": 1000}
    with init.fast_init():
        model = build_model(name, **kwargs)
        if split > 1 and split_depth > 0:
            model = to_split_cnn(model, depth=split_depth,
                                 num_splits=GRID_OF_SPLITS[split])
    return model
