"""Experiments E6-E7 — Figures 8 and 9: scheduling-method throughput.

Builds the training graph for a model at a shared batch size, plans it
under each of the three scheduling methods (baseline, layer-wise/vDNN,
HMMS) and replays each plan on the event-driven simulator, reporting
throughput degradation relative to the no-offload baseline, plus the
stream timelines behind Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..graph import build_training_graph
from ..hmms import SCHEDULERS, HMMSPlanner, MemoryPlan
from ..models import ConvClassifier, resnet18, resnet50, vgg19
from ..nn import init
from ..profile import DeviceSpec, P100_NVLINK
from ..sim import GPUSimulator, SimResult, render_timeline
from .tables import format_table

__all__ = ["SchedulerOutcome", "ThroughputComparison", "run_fig8",
           "render_fig8", "run_fig9_timelines"]

FIG8_MODELS = {
    "vgg19": lambda: vgg19(),
    "resnet50": lambda: resnet50(),
    "resnet18-me": lambda: resnet18(dataset="imagenet", num_classes=1000,
                                    memory_efficient=True),
}


@dataclass
class SchedulerOutcome:
    scheduler: str
    plan: MemoryPlan
    result: SimResult
    throughput: float
    degradation: float       # vs the 'none' baseline, fraction


@dataclass
class ThroughputComparison:
    model_name: str
    batch_size: int
    outcomes: Dict[str, SchedulerOutcome]

    def degradation(self, scheduler: str) -> float:
        return self.outcomes[scheduler].degradation


def compare_schedulers(
    model: ConvClassifier,
    batch_size: int = 64,
    device: DeviceSpec = P100_NVLINK,
) -> ThroughputComparison:
    """Plan + simulate one model under each scheduler, the no-offload
    baseline first."""
    graph = build_training_graph(model, batch_size)
    outcomes: Dict[str, SchedulerOutcome] = {}
    baseline_time: Optional[float] = None
    simulator = GPUSimulator(device)
    for scheduler in SCHEDULERS:
        plan = HMMSPlanner(device=device, scheduler=scheduler).plan(graph)
        result = simulator.run(plan)
        if scheduler == "none":
            baseline_time = result.total_time
        degradation = 0.0
        if baseline_time:
            degradation = (result.total_time - baseline_time) / baseline_time
        outcomes[scheduler] = SchedulerOutcome(
            scheduler=scheduler, plan=plan, result=result,
            throughput=result.throughput(batch_size),
            degradation=degradation,
        )
    return ThroughputComparison(
        model_name=model.name, batch_size=batch_size, outcomes=outcomes,
    )


def run_fig8(batch_size: int = 64,
             device: DeviceSpec = P100_NVLINK,
             models: Optional[List[str]] = None) -> Dict[str, ThroughputComparison]:
    """Figure 8: three scheduling methods on VGG-19 and ResNet-50."""
    names = models if models is not None else ["vgg19", "resnet50"]
    comparisons: Dict[str, ThroughputComparison] = {}
    with init.fast_init():
        for name in names:
            model = FIG8_MODELS[name]()
            comparisons[name] = compare_schedulers(model, batch_size, device)
    return comparisons


def render_fig8(comparisons: Dict[str, ThroughputComparison]) -> str:
    rows = []
    for name, comparison in comparisons.items():
        for scheduler, outcome in comparison.outcomes.items():
            rows.append((
                name, scheduler,
                outcome.throughput,
                100.0 * outcome.degradation,
                outcome.result.stall_time * 1e3,
                outcome.plan.offload_fraction_used,
            ))
    return format_table(
        ["model", "scheduler", "imgs/s", "degradation %", "stall ms",
         "offload frac"],
        rows, title="Figure 8 — training throughput by scheduling method",
    )


def run_fig9_timelines(batch_size: int = 64,
                       device: DeviceSpec = P100_NVLINK,
                       model: str = "vgg19", width: int = 100) -> Dict[str, str]:
    """Figure 9: stream timelines for VGG-19 under the three schedulers."""
    with init.fast_init():
        comparison = compare_schedulers(FIG8_MODELS[model](), batch_size, device)
    return {
        scheduler: render_timeline(outcome.result, width=width)
        for scheduler, outcome in comparison.outcomes.items()
    }
