"""Experiment E9 — Figure 11: distributed-training speedup of Split-CNN.

§6.4 does not run a cluster: it extrapolates multi-node performance from
single-node forward/backward times with the bandwidth-optimal allreduce
bound of Patarasuk & Yuan [31] — aggregating ``|G|`` gradient bytes takes
at least ``2|G| / (alpha * B)`` — pipelined against the backward pass
(Goyal et al. [15]):

    T_epoch = |D| / N * ( T_forward + max(T_backward, 2|G|*8 / (alpha*B)) )

Split-CNN helps because its larger trainable batch ``N`` means fewer
parameter updates (network synchronizations) per epoch.

This module runs that sweep for real — data-parallel replicas of the
baseline and the split model on an N-device mesh (:mod:`repro.mesh`),
gradient buckets as explicit link transfers scheduled FIFO with
contention — and keeps the closed form as the *analytical column* next
to the measured one.  Both columns derive from the same graphs, plans
and single-device replays.

The closed form is also what the measurement is held against: every
measured step must sit inside the closed-form bracket of
:func:`transfer_bracket`, or the simulator and the model disagree about
the physics and :meth:`Fig11Result.check` raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis import detect_mesh_hazards
from ..core import to_split_cnn
from ..graph import build_training_graph
from ..graph.ir import Graph
from ..hmms import HMMSPlanner
from ..hmms.planner import MemoryPlan
from ..mesh import (
    DeviceMesh, MeshPartitioner, MeshPlan, MeshSimulator, build_mesh,
)
from ..models import vgg19
from ..nn import init
from ..profile import CostModel, DeviceSpec, P100_NVLINK
from ..sim import GPUSimulator
from .tables import format_table

__all__ = [
    "PAPER_BANDWIDTHS", "TrainingProfile", "allreduce_seconds",
    "analytical_speedup", "transfer_bracket", "profile_plan",
    "Fig11Point", "Fig11Result", "run_fig11", "render_fig11",
]

#: Figure 11's network link rates, Gbit/s.
PAPER_BANDWIDTHS: Tuple[float, ...] = (0.5, 1, 2, 4, 8, 10, 16, 32)

#: The paper's (optimistic) bandwidth-utilization efficiency.
PAPER_ALPHA = 0.8

#: §6.4's |D|: the ImageNet training set.
IMAGENET_TRAIN_IMAGES = 1_281_167

#: Relative slack on the analytical bracket (float accumulation plus the
#: per-op launch overheads the closed form does not itemize).
BRACKET_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TrainingProfile:
    """Single-node measurements for one configuration (base or Split-CNN)."""

    name: str
    batch_size: int
    forward_seconds: float
    backward_seconds: float
    gradient_bytes: int

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for field in ("forward_seconds", "backward_seconds",
                      "gradient_bytes"):
            value = getattr(self, field)
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"{field} must be finite and >= 0, got {value}")

    def step_seconds(self, bandwidth_bits_per_s: float) -> float:
        comm = allreduce_seconds(self.gradient_bytes, bandwidth_bits_per_s)
        return self.forward_seconds + max(self.backward_seconds, comm)


def allreduce_seconds(gradient_bytes: int,
                      bandwidth_bits_per_s: float) -> float:
    """Lower-bound allreduce time: ``2|G| / (alpha * B)`` (ref. [31]).

    ``bandwidth_bits_per_s`` is the network link rate in bits/s; ``alpha``
    is :data:`PAPER_ALPHA`, the paper's bandwidth-utilization efficiency.
    """
    if bandwidth_bits_per_s <= 0:
        raise ValueError("bandwidth must be positive")
    return (2.0 * gradient_bytes * 8.0
            / (PAPER_ALPHA * bandwidth_bits_per_s))


def _epoch_speedup(dataset_size: int,
                   base_images: int, base_step: float,
                   split_images: int, split_step: float) -> float:
    """Baseline epoch time over split epoch time, ``images`` per step."""
    return ((dataset_size / base_images * base_step)
            / (dataset_size / split_images * split_step))


def analytical_speedup(baseline: TrainingProfile, split: TrainingProfile,
                       bandwidth_gbit: float, dataset_size: int) -> float:
    """§6.4's epoch speedup of ``split`` over ``baseline`` at one link rate.

    Approaches ``N_split / N_base`` as the network becomes the bottleneck
    and ~1x (minus the Split-CNN compute overhead) when bandwidth is
    plentiful.
    """
    bits = bandwidth_gbit * 1e9
    return _epoch_speedup(
        dataset_size,
        baseline.batch_size, baseline.step_seconds(bits),
        split.batch_size, split.step_seconds(bits))


def transfer_bracket(
    profile: TrainingProfile, mesh_plan: MeshPlan, mesh: DeviceMesh,
    kernel_floors: Tuple[float, float],
) -> Tuple[float, float]:
    """Closed-form (lower, upper) step bound for a data-parallel plan —
    the bracket the mesh event loop provably stays inside.

    - lower: ``F + max(B, C_max)`` — every gradient bucket issues after
      its producing backward op, which runs after every forward kernel,
      so no bucket can be on the wire before ``F`` and the busiest link's
      traffic ``C_max`` serializes FIFO behind that;
    - upper: ``T_step + C_max`` — all issues happen by the single-device
      step's end ``T_step`` (the profile's forward+backward wall
      seconds), after which the busiest link drains its whole backlog.

    ``C_max`` — the busiest link's total wire occupancy (latency + bytes
    over the alpha-derated line rate, summed per link) — comes from the
    plan's actual transfer list routed over the actual mesh, so the
    bracket holds for ring, bus, and p2p alike (all single-hop for the
    data strategy's neighbor/direct transfers; bus traffic all lands on
    the one shared link).

    ``(F, B) = kernel_floors`` are the cost model's pure (forward,
    backward) kernel sums.  The profile's per-phase seconds apportion
    stall overhead proportionally, which can *overstate* the forward
    phase — the provable floor for when the first gradient bucket can
    hit the wire is the raw forward kernel time (stalls only push issues
    later).
    """
    per_link: Dict[str, float] = {}
    for transfer in mesh_plan.transfers:
        for link in mesh.route(transfer.src, transfer.dst):
            per_link[link.name] = (per_link.get(link.name, 0.0)
                                   + link.wire_seconds(transfer.nbytes))
    c_max = max(per_link.values(), default=0.0)
    step = profile.forward_seconds + profile.backward_seconds
    forward_floor, backward_floor = kernel_floors
    return (forward_floor + max(backward_floor, c_max), step + c_max)


def _kernel_seconds(graph: Graph, device: DeviceSpec) -> Tuple[float, float]:
    """The cost model's pure (forward, backward) kernel sums."""
    cost = CostModel(device)
    return (cost.total_time(graph, "forward"),
            cost.total_time(graph, "backward"))


def _apportion_overhead(forward: float, backward: float,
                        overhead: float) -> Tuple[float, float]:
    """Split simulator overhead across the two phases, by kernel weight.

    A degenerate profile (both phases zero — e.g. an empty graph) splits
    evenly instead of dividing by zero.
    """
    total_kernel = forward + backward
    if total_kernel <= 0.0:
        return forward + overhead / 2.0, backward + overhead / 2.0
    return (forward + overhead * (forward / total_kernel),
            backward + overhead * (backward / total_kernel))


def profile_plan(name: str, batch: int, graph: Graph, plan: MemoryPlan,
                 device: DeviceSpec) -> TrainingProfile:
    """Forward/backward wall seconds of one already-planned step.

    Simulates the plan, splits kernel time at the forward/backward
    boundary via the cost model, and apportions the (small) stall
    overhead proportionally.
    """
    result = GPUSimulator(device).run(plan)
    forward, backward = _kernel_seconds(graph, device)
    overhead = result.total_time - (forward + backward)
    forward, backward = _apportion_overhead(forward, backward, overhead)
    return TrainingProfile(
        name=name, batch_size=batch,
        forward_seconds=forward, backward_seconds=backward,
        gradient_bytes=graph.parameter_bytes(),
    )


@dataclass
class Fig11Point:
    """One bandwidth point: §6.4 projection next to the mesh measurement."""

    bandwidth_gbit: float
    analytical_speedup: float
    measured_speedup: float
    base_step_seconds: float
    split_step_seconds: float
    base_bracket: Tuple[float, float]
    split_bracket: Tuple[float, float]


@dataclass
class Fig11Result:
    baseline: TrainingProfile
    split: TrainingProfile
    devices: int
    topology: str
    points: List[Fig11Point]

    def check(self) -> None:
        """Raise unless every measured step sits in its analytical bracket."""
        for point in self.points:
            for which, measured, (low, high) in (
                    ("base", point.base_step_seconds, point.base_bracket),
                    ("split", point.split_step_seconds, point.split_bracket)):
                if not (low * (1 - BRACKET_TOLERANCE) <= measured
                        <= high * (1 + BRACKET_TOLERANCE)):
                    raise AssertionError(
                        f"measured {which} step escapes its analytical "
                        f"bracket at {point.bandwidth_gbit:g} Gbit/s: "
                        f"{measured:.6f}s outside ({low:.6f}s, {high:.6f}s)")

    def assert_monotone(self) -> None:
        """Measured speedup must not increase with bandwidth.

        Both models sync the same |G| per step but the split variant runs
        6x fewer steps per epoch, so cheaper links favor it; as bandwidth
        grows the advantage decays toward the pure-compute ratio.
        """
        ordered = sorted(self.points, key=lambda p: p.bandwidth_gbit)
        for before, after in zip(ordered, ordered[1:]):
            if after.measured_speedup > before.measured_speedup + 1e-6:
                raise AssertionError(
                    f"measured speedup not monotone: "
                    f"{before.bandwidth_gbit:g} Gbit/s -> "
                    f"{before.measured_speedup:.4f} but "
                    f"{after.bandwidth_gbit:g} Gbit/s -> "
                    f"{after.measured_speedup:.4f}")


def run_fig11(
    devices: int = 4,
    topology: str = "ring",
    device: DeviceSpec = P100_NVLINK,
    base_batch: int = 64,
    split_batch_factor: int = 6,
    model_factory: Callable = vgg19,
    split_depth: float = 0.75,
    num_splits: Tuple[int, int] = (2, 2),
    shuffle_seed: Optional[int] = None,
) -> Fig11Result:
    """Figure 11 on an N-device mesh, next to the §6.4 projection.

    Sweeps :data:`PAPER_BANDWIDTHS` at the paper's ``alpha`` and |D|.
    ``split_batch_factor`` defaults to the paper's headline 6x batch
    enlargement for VGG-19 (Figure 10).  Graphs and HMMS plans are built
    once; the analytical profile and the mesh partition share them, and
    the per-device timelines are cached on the partition — the whole
    bandwidth sweep re-runs only the link-level event loop.  The shipped
    partitions go through the static plan verifier and the SCA104
    cross-device hazard pass (raising on any finding).
    """
    for name, value in (("devices", devices),
                        ("split_batch_factor", split_batch_factor)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")

    partitioner = MeshPartitioner(devices, topology=topology, device=device)

    def plan_one(model, batch: int, scheduler: str):
        graph = build_training_graph(model, batch)
        plan = HMMSPlanner(device=device, scheduler=scheduler).plan(graph)
        profile = profile_plan(model.name, batch, graph, plan, device)
        mesh_plan = partitioner.data_from_plan(graph, plan,
                                               model_name=model.name)
        mesh_plan.verify()
        hazards = detect_mesh_hazards(mesh_plan)
        if hazards:
            raise AssertionError(
                f"shipped partition has cross-device hazards: "
                f"{[f'{d.code}: {d.message}' for d in hazards]}")
        return profile, mesh_plan, _kernel_seconds(graph, device)

    split_batch = base_batch * split_batch_factor
    with init.fast_init():
        baseline, base_mesh_plan, base_floors = plan_one(
            model_factory(), base_batch, "none")
        split, split_mesh_plan, split_floors = plan_one(
            to_split_cnn(model_factory(), depth=split_depth,
                         num_splits=num_splits),
            split_batch, "hmms")

    points: List[Fig11Point] = []
    for gbit in PAPER_BANDWIDTHS:
        mesh = build_mesh(devices, topology, bandwidth_gbit=gbit,
                          device=device, efficiency=PAPER_ALPHA)
        simulator = MeshSimulator(mesh, shuffle_seed=shuffle_seed)
        base_step = simulator.run(base_mesh_plan).step_seconds
        split_step = simulator.run(split_mesh_plan).step_seconds
        points.append(Fig11Point(
            bandwidth_gbit=gbit,
            analytical_speedup=analytical_speedup(
                baseline, split, gbit, IMAGENET_TRAIN_IMAGES),
            measured_speedup=_epoch_speedup(
                IMAGENET_TRAIN_IMAGES, base_batch * devices, base_step,
                split_batch * devices, split_step),
            base_step_seconds=base_step,
            split_step_seconds=split_step,
            base_bracket=transfer_bracket(baseline, base_mesh_plan, mesh,
                                          base_floors),
            split_bracket=transfer_bracket(split, split_mesh_plan, mesh,
                                           split_floors)))
    return Fig11Result(baseline=baseline, split=split, devices=devices,
                       topology=topology, points=points)


def render_fig11(result: Fig11Result) -> str:
    header = "".join(
        f"{role:9s} {profile.name} batch={profile.batch_size} "
        f"fwd={profile.forward_seconds*1e3:.1f}ms "
        f"bwd={profile.backward_seconds*1e3:.1f}ms "
        f"|G|={profile.gradient_bytes/2**20:.0f}MiB\n"
        for role, profile in (("baseline:", result.baseline),
                              ("split:", result.split)))
    return header + "\n" + format_table(
        ["bandwidth", "analytical", "measured", "base step", "split step"],
        [(f"{point.bandwidth_gbit:g} Gbit/s",
          f"{point.analytical_speedup:.3f}", f"{point.measured_speedup:.3f}",
          f"{point.base_step_seconds*1e3:.1f}ms",
          f"{point.split_step_seconds*1e3:.1f}ms")
         for point in sorted(result.points, key=lambda p: p.bandwidth_gbit)],
        title=(f"Figure 11 — distributed speedup of Split-CNN, §6.4 closed "
               f"form vs {result.devices}-device {result.topology} mesh"),
    )
