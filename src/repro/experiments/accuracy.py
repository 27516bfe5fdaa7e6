"""Experiments E2-E5 — the accuracy studies of paper §5.

- Figure 4: test error vs splitting depth (4 patches).
- Figure 5: test error vs number of splits (depth ~25%).
- Figure 6: stochastic vs deterministic splitting (deep split, evaluated
  on the unsplit network for the stochastic variant).
- Table 1 / Figure 7: baseline vs Split-CNN vs Stochastic Split-CNN final
  accuracy and convergence curves.

All runs use the scaled-down trainable model variants and, by default,
the synthetic shapes dataset (strong global spatial structure, so breaking
spatial communication measurably hurts — see DESIGN.md substitutions).
``ExperimentConfig.dataset`` selects "gratings" (local-texture regime)
instead; with a real CIFAR-10 on disk, build an
:class:`repro.data.ArrayDataset` via :func:`repro.data.load_cifar10` and
call :func:`repro.experiments.training.train_classifier` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import GRID_OF_SPLITS, to_split_cnn
from ..data import ShapesDataset, make_dataset
from ..models import ConvClassifier, small_resnet, small_vgg
from .training import TrainResult, train_classifier

__all__ = [
    "AccuracyPoint", "ExperimentConfig", "GRID_OF_SPLITS",
    "make_datasets", "make_model", "train_variant",
    "sweep_depth", "sweep_num_splits", "stochastic_comparison",
    "table1_run",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the accuracy experiments (scaled-down defaults)."""

    model: str = "small_resnet"            # or "small_vgg"
    dataset: str = "shapes"                # or "gratings"
    num_classes: int = 6
    image_size: int = 32
    train_samples: int = 400
    test_samples: int = 200
    epochs: int = 8
    batch_size: int = 32
    lr: float = 0.05
    seed: int = 0
    data_seed: int = 1


@dataclass
class AccuracyPoint:
    """One configuration's outcome."""

    label: str
    test_error: float
    best_error: float
    achieved_depth: float = 0.0
    num_splits: int = 1
    curve: List[float] = field(default_factory=list)


def make_datasets(config: ExperimentConfig) -> Tuple[ShapesDataset, ShapesDataset]:
    train = make_dataset(config.dataset,
                         num_samples=config.train_samples,
                         image_size=config.image_size,
                         num_classes=config.num_classes,
                         seed=config.data_seed)
    test = make_dataset(config.dataset,
                        num_samples=config.test_samples,
                        image_size=config.image_size,
                        num_classes=config.num_classes,
                        seed=config.data_seed + 977)
    return train, test


def make_model(config: ExperimentConfig) -> ConvClassifier:
    rng = np.random.default_rng(config.seed)
    if config.model == "small_resnet":
        return small_resnet(num_classes=config.num_classes,
                            input_size=config.image_size, rng=rng)
    if config.model == "small_vgg":
        return small_vgg(num_classes=config.num_classes,
                         input_size=config.image_size, rng=rng)
    raise ValueError(f"unknown model {config.model!r}")


def train_variant(
    config: ExperimentConfig,
    depth: float,
    grid: Tuple[int, int],
    stochastic: bool = False,
    lr: Optional[float] = None,
) -> Tuple[TrainResult, ConvClassifier]:
    """Build (optionally split) model and train it; returns (result, model)."""
    train_ds, test_ds = make_datasets(config)
    base = make_model(config)
    if depth > 0 and grid != (1, 1):
        model = to_split_cnn(base, depth=depth, num_splits=grid,
                             stochastic=stochastic, seed=config.seed)
    else:
        model = base
    result = train_classifier(
        model, train_ds, test_ds,
        epochs=config.epochs, batch_size=config.batch_size,
        lr=lr if lr is not None else config.lr, seed=config.seed,
    )
    return result, model


def sweep_depth(
    config: ExperimentConfig = ExperimentConfig(),
    depths: Sequence[float] = (0.0, 0.125, 0.25, 0.375, 0.5),
    grid: Tuple[int, int] = (2, 2),
) -> List[AccuracyPoint]:
    """Figure 4: error vs splitting depth at 4 patches."""
    points: List[AccuracyPoint] = []
    for depth in depths:
        result, model = train_variant(config, depth, grid)
        info = getattr(model, "split_info", None)
        points.append(AccuracyPoint(
            label=f"depth={depth:.3f}",
            test_error=result.final_test_error,
            best_error=result.best_test_error,
            achieved_depth=info.achieved_depth if info else 0.0,
            num_splits=grid[0] * grid[1] if depth > 0 else 1,
            curve=result.error_curve(),
        ))
    return points


def sweep_num_splits(
    config: ExperimentConfig = ExperimentConfig(),
    split_counts: Sequence[int] = (1, 2, 3, 4, 6, 9),
    depth: float = 0.25,
) -> List[AccuracyPoint]:
    """Figure 5: error vs number of splits at ~25% depth."""
    points: List[AccuracyPoint] = []
    for count in split_counts:
        grid = GRID_OF_SPLITS[count]
        result, model = train_variant(config, depth if count > 1 else 0.0, grid)
        info = getattr(model, "split_info", None)
        points.append(AccuracyPoint(
            label=f"splits={count}",
            test_error=result.final_test_error,
            best_error=result.best_test_error,
            achieved_depth=info.achieved_depth if info else 0.0,
            num_splits=count,
            curve=result.error_curve(),
        ))
    return points


def stochastic_comparison(
    config: ExperimentConfig = ExperimentConfig(),
    depth: float = 0.5,
    grid: Tuple[int, int] = (2, 2),
) -> Dict[str, AccuracyPoint]:
    """Figure 6 / Table 1 triple: baseline vs SCNN vs SSCNN.

    The stochastic variant (SSCNN) is *evaluated on the unsplit network*,
    exactly as §3.3 prescribes (its SplitRegion defaults to
    ``eval_unsplit=True``).
    """
    results: Dict[str, AccuracyPoint] = {}
    for label, use_depth, stochastic in (
        ("baseline", 0.0, False),
        ("scnn", depth, False),
        ("sscnn", depth, True),
    ):
        result, model = train_variant(config, use_depth, grid,
                                      stochastic=stochastic)
        info = getattr(model, "split_info", None)
        results[label] = AccuracyPoint(
            label=label,
            test_error=result.final_test_error,
            best_error=result.best_test_error,
            achieved_depth=info.achieved_depth if info else 0.0,
            num_splits=grid[0] * grid[1] if use_depth > 0 else 1,
            curve=result.error_curve(),
        )
    return results


def table1_run(
    configs: Optional[Dict[str, ExperimentConfig]] = None,
    depth_by_model: Optional[Dict[str, float]] = None,
) -> Dict[str, Dict[str, AccuracyPoint]]:
    """Table 1: the baseline/SCNN/SSCNN triple per architecture.

    Defaults mirror the paper's table shape with our two scaled model
    families standing in for the {AlexNet, ResNet-50} x ImageNet and
    {VGG-19, ResNet-18} x CIFAR pairs.
    """
    if configs is None:
        configs = {
            "small_vgg": ExperimentConfig(model="small_vgg", lr=0.01),
            "small_resnet": ExperimentConfig(model="small_resnet"),
        }
    if depth_by_model is None:
        depth_by_model = {"small_vgg": 0.5, "small_resnet": 0.5}
    table: Dict[str, Dict[str, AccuracyPoint]] = {}
    for name, config in configs.items():
        table[name] = stochastic_comparison(
            config, depth=depth_by_model.get(name, 0.5)
        )
    return table
