"""Experiment E8 — Figure 10: maximum trainable batch size and throughput.

For each configuration the maximum batch size is found by replanning the
training graph at doubling batch sizes until the planned device peak no
longer fits in GPU memory, then bisecting over the step grid.  The paper's
configurations:

- baseline: regular model, no offloading;
- split+HMMS: Split-CNN (4 patches, depth ~75%) planned by HMMS with the
  theoretical offload cap, using the memory-efficient ResNet variant.

Throughput at the respective maximum batch is measured on the simulator
(per-image throughput, so larger batches are comparable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core import to_split_cnn
from ..graph import build_training_graph
from ..hmms import HMMSPlanner
from ..models import ConvClassifier, resnet18, vgg19
from ..nn import init
from ..planned import dyadic_search
from ..profile import DeviceSpec, P100_NVLINK
from ..sim import GPUSimulator
from .tables import format_table

__all__ = ["BatchScalingResult", "max_batch_size", "run_fig10", "render_fig10"]

#: The largest batch :func:`max_batch_size` probes.
_BATCH_CEILING = 4096


@dataclass
class BatchScalingResult:
    label: str
    scheduler: str
    max_batch: int
    device_peak_at_max: int
    throughput: float              # images/s at the maximum batch
    baseline_throughput: Optional[float] = None

    @property
    def throughput_degradation(self) -> Optional[float]:
        if not self.baseline_throughput:
            return None
        return (self.baseline_throughput - self.throughput) / self.baseline_throughput


def max_batch_size(
    build_model: Callable[[], ConvClassifier],
    planner: HMMSPlanner,
    device: DeviceSpec = P100_NVLINK,
    step: int = 8,
) -> Tuple[int, int]:
    """Largest batch (multiple of ``step``, at most ``_BATCH_CEILING``)
    whose plan fits device memory.

    Returns ``(batch, device_peak_bytes)``.  :func:`dyadic_search` doubles
    from ``step`` to the largest fit; a binary search over the step grid
    then narrows the gap to the next doubling (peak memory grows
    monotonically with batch size).
    """
    def peak_of(batch: int) -> int:
        return planner.plan(
            build_training_graph(build_model(), batch)).device_peak

    capacity = device.memory_capacity
    peaks = dyadic_search(
        peak_of, capacity, device, cap=_BATCH_CEILING,
        what=f"a training plan of batch {step}", start=step)
    lo_batch = max(peaks)
    lo_peak = peaks[lo_batch]
    hi_batch = min(2 * lo_batch, _BATCH_CEILING)
    while hi_batch - lo_batch > step:
        mid = (lo_batch + hi_batch) // (2 * step) * step
        if mid <= lo_batch:
            break
        peak = peak_of(mid)
        if peak > capacity:
            hi_batch = mid
        else:
            lo_batch, lo_peak = mid, peak
    return lo_batch, lo_peak


def run_fig10(
    device: DeviceSpec = P100_NVLINK,
    num_splits: Tuple[int, int] = (2, 2),
    depth: float = 0.75,
    step: int = 8,
) -> Dict[str, Dict[str, BatchScalingResult]]:
    """Figure 10 for VGG-19 and (memory-efficient) ResNet-18."""
    configurations = {
        "vgg19": {
            "base": lambda: vgg19(),
            "split": lambda: to_split_cnn(vgg19(), depth=depth,
                                          num_splits=num_splits),
        },
        "resnet18": {
            "base": lambda: resnet18(dataset="imagenet", num_classes=1000),
            "split": lambda: to_split_cnn(
                resnet18(dataset="imagenet", num_classes=1000,
                         memory_efficient=True),
                depth=depth, num_splits=num_splits,
            ),
        },
    }
    simulator = GPUSimulator(device)
    results: Dict[str, Dict[str, BatchScalingResult]] = {}
    with init.fast_init():
        for model_name, builders in configurations.items():
            base_planner = HMMSPlanner(device=device, scheduler="none")
            hmms_planner = HMMSPlanner(device=device, scheduler="hmms")

            base_batch, base_peak = max_batch_size(
                builders["base"], base_planner, device, step=step)
            base_graph = build_training_graph(builders["base"](), base_batch)
            base_result = simulator.run(base_planner.plan(base_graph))
            base_throughput = base_result.throughput(base_batch)

            split_batch, split_peak = max_batch_size(
                builders["split"], hmms_planner, device, step=step)
            split_graph = build_training_graph(builders["split"](), split_batch)
            split_result = simulator.run(hmms_planner.plan(split_graph))
            split_throughput = split_result.throughput(split_batch)

            results[model_name] = {
                "baseline": BatchScalingResult(
                    label=model_name, scheduler="none",
                    max_batch=base_batch, device_peak_at_max=base_peak,
                    throughput=base_throughput,
                ),
                "split+hmms": BatchScalingResult(
                    label=model_name, scheduler="hmms",
                    max_batch=split_batch, device_peak_at_max=split_peak,
                    throughput=split_throughput,
                    baseline_throughput=base_throughput,
                ),
            }
    return results


def render_fig10(results: Dict[str, Dict[str, BatchScalingResult]]) -> str:
    rows = []
    for model_name, entries in results.items():
        base = entries["baseline"]
        split = entries["split+hmms"]
        rows.append((
            model_name, base.max_batch, split.max_batch,
            split.max_batch / base.max_batch,
            base.throughput, split.throughput,
            100.0 * (split.throughput_degradation or 0.0),
        ))
    return format_table(
        ["model", "base max batch", "split+HMMS max batch", "gain x",
         "base imgs/s", "split imgs/s", "thpt degradation %"],
        rows, title="Figure 10 — maximum batch size and throughput",
    )
