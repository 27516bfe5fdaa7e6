"""``repro.experiments`` — one driver per paper table/figure (see DESIGN.md)."""

from .accuracy import (
    AccuracyPoint, ExperimentConfig, GRID_OF_SPLITS, stochastic_comparison,
    sweep_depth, sweep_num_splits, table1_run,
)
from .batchscale import BatchScalingResult, max_batch_size, render_fig10, run_fig10
from .fig1 import Fig1Result, render_fig1, run_fig1
from .fig11 import (
    PAPER_BANDWIDTHS, Fig11Point, Fig11Result, TrainingProfile,
    allreduce_seconds, analytical_speedup, profile_plan, render_fig11,
    run_fig11, transfer_bracket,
)
from .tables import format_table
from .throughput import (
    SchedulerOutcome, ThroughputComparison, compare_schedulers, render_fig8,
    run_fig8, run_fig9_timelines,
)
from .training import EpochStats, TrainResult, evaluate, train_classifier

__all__ = [
    "train_classifier", "evaluate", "TrainResult", "EpochStats",
    "ExperimentConfig", "AccuracyPoint", "GRID_OF_SPLITS",
    "sweep_depth", "sweep_num_splits", "stochastic_comparison", "table1_run",
    "run_fig1", "render_fig1", "Fig1Result",
    "compare_schedulers", "run_fig8", "render_fig8", "run_fig9_timelines",
    "SchedulerOutcome", "ThroughputComparison",
    "max_batch_size", "run_fig10", "render_fig10", "BatchScalingResult",
    "run_fig11", "render_fig11", "Fig11Result", "Fig11Point",
    "PAPER_BANDWIDTHS", "TrainingProfile", "allreduce_seconds",
    "analytical_speedup", "transfer_bracket", "profile_plan",
    "format_table",
]
