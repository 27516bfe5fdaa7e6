"""``plan_sim``: one planning session over four fixed ImageNet-head
configurations, then the first of them across a four-device ring.

No numeric kernel runs: the graph builder, the HMMS planner, its
verifier, the GPU simulator and the mesh partitioner/simulator do all the
work, on graphs of up to 1.3k ops.  This is the Figure 8/10/11 path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core import to_split_cnn
from repro.experiments import PAPER_BANDWIDTHS
from repro.graph import build_training_graph
from repro.hmms import HMMSPlanner, MemoryPlan, assign_storage, verify_plan
from repro.mesh import MeshPartitioner, MeshPlan, MeshResult, MeshSimulator, \
    build_mesh
from repro.models import resnet18, resnet50, vgg19
from repro.nn import init
from repro.profile.cost import CostModel
from repro.sim import GPUSimulator, SimResult

from harness import MIB, Workload, timed
from spans import SETUP

DEVICES = 4
TOPOLOGY = "ring"
#: The mesh plans are re-verified on every tenth op, outside the timed
#: interval (the single-device plans are verified inside every op).
MESH_VERIFY_EVERY = 10


@dataclass
class Config:
    model: Any
    batch: int
    scheduler: str


@dataclass
class Session:
    """Everything one op produced."""

    plans: List[MemoryPlan]
    results: List[SimResult]
    mesh_plans: List[MeshPlan]
    mesh_results: List[MeshResult]

    def numbers(self) -> Tuple[float, ...]:
        return tuple(
            [r.total_time for r in self.results]
            + [float(p.device_peak) for p in self.plans]
            + [r.step_seconds for r in self.mesh_results])


class PlanSim(Workload):
    name = "plan_sim"

    def setup(self) -> None:
        def imagenet(factory):
            return factory(num_classes=1000, dataset="imagenet")

        # Weights never matter to planning: skip the RNG.
        with init.fast_init():
            bases = [imagenet(vgg19), imagenet(vgg19), imagenet(resnet50),
                     imagenet(resnet18)]
        with self.tracer.span("core.transform", "core"):
            self.configs = [
                Config(to_split_cnn(bases[0], depth=0.75, num_splits=(2, 2)),
                       64, "hmms"),
                Config(bases[1], 64, "layerwise"),
                Config(to_split_cnn(bases[2], depth=0.5, num_splits=(2, 2)),
                       64, "hmms"),
                Config(to_split_cnn(bases[3], depth=0.5, num_splits=(3, 3)),
                       128, "none"),
            ]

    def op(self, index: int, prepared: Any) -> Session:
        tracer = self.tracer
        session = Session([], [], [], [])
        for config in self.configs:
            with tracer.span("graph.builder.build", "graph.builder"):
                graph = build_training_graph(config.model, config.batch)
            planner = HMMSPlanner(scheduler=config.scheduler)
            with tracer.span("hmms.planner.plan", "hmms.planner"):
                plan = planner.plan(graph)
            with tracer.span("hmms.verify.verify", "hmms.verify"):
                verify_plan(plan, device=planner.device,
                            cost_model=planner.cost_model).raise_if_failed()
            with tracer.span("sim.gpu.run", "sim.gpu"):
                result = GPUSimulator().run(plan)
            session.plans.append(plan)
            session.results.append(result)

        first = self.configs[0]
        partitioner = MeshPartitioner(DEVICES, TOPOLOGY)
        with tracer.span("mesh.partition.data", "mesh.partition"):
            data = partitioner.data(first.model, first.batch)
        with tracer.span("mesh.partition.spatial", "mesh.partition"):
            spatial = partitioner.spatial(first.model, first.batch)
        with tracer.span("mesh.partition.pipeline", "mesh.partition"):
            pipeline = partitioner.pipeline(first.model, first.batch)
        session.mesh_plans = [data, spatial, pipeline]
        runs = [(data, gbit) for gbit in PAPER_BANDWIDTHS] \
            + [(spatial, 10.0), (pipeline, 10.0)]
        for mesh_plan, gbit in runs:
            with tracer.span("mesh.simulate.run", "mesh.simulate"):
                mesh = build_mesh(DEVICES, TOPOLOGY, bandwidth_gbit=gbit)
                session.mesh_results.append(
                    MeshSimulator(mesh).run(mesh_plan))
        return session

    def token(self, index: int, prepared: Any,
              out: Session) -> Tuple[Tuple[float, ...], bool]:
        # Simulator and planner account memory independently: the replay
        # may never hold more than the plan's first-fit peak.
        sound = all(result.peak_live_bytes <= plan.device_general_peak
                    for plan, result in zip(out.plans, out.results))
        if index % MESH_VERIFY_EVERY == 0:
            for mesh_plan in out.mesh_plans:
                mesh_plan.verify()              # raises on a violation
        images = sum(c.batch for c in self.configs) + sum(
            r.global_batch for r in out.mesh_results)
        seconds = sum(r.total_time for r in out.results) + sum(
            r.step_seconds for r in out.mesh_results)
        self.sim = (images / seconds,
                    sum(p.device_peak for p in out.plans) / MIB)
        return out.numbers(), sound

    def verify(self, tokens: List[Tuple[int, Any]]) -> List[int]:
        expected = tokens[0][1][0]
        return [index for index, (numbers, sound) in tokens
                if not sound or numbers != expected]

    def layers(self, last_out: Session, op_ms_p50: float) -> Dict[str, float]:
        tracer = self.tracer
        ops = tracer.count("bench.op")

        def per_op(name: str) -> float:
            return tracer.total_ms(name) / ops

        graphs = [plan.graph for plan in last_out.plans]
        _, assign_ms = timed(lambda: [assign_storage(g) for g in graphs])
        _, profile_ms = timed(
            lambda: [CostModel().profile(g) for g in graphs])
        data, spatial, pipeline = last_out.mesh_plans

        events = sum(len(r.events) for r in last_out.results)
        data_10gbit = last_out.mesh_results[PAPER_BANDWIDTHS.index(10)]
        return {
            "core.transform_ms": tracer.total_ms("core.transform", SETUP),
            "graph.builder.build_ms": per_op("graph.builder.build"),
            "graph.builder.ops": float(sum(len(g.ops) for g in graphs)),
            "profile.cost.profile_ms": profile_ms,
            "hmms.storage.assign_ms": assign_ms,
            "hmms.planner.plan_ms": per_op("hmms.planner.plan"),
            "hmms.verify.verify_ms": per_op("hmms.verify.verify"),
            "hmms.planner.tsos":
                float(sum(len(p.assignment.tsos) for p in last_out.plans)),
            "hmms.planner.offloaded_mib":
                sum(r.offloaded_bytes for r in last_out.results) / MIB,
            "sim.gpu.run_ms": per_op("sim.gpu.run"),
            "sim.gpu.events": float(events),
            "sim.gpu.us_per_event": per_op("sim.gpu.run") * 1e3 / events,
            "sim.gpu.stall_ms":
                sum(r.stall_time for r in last_out.results) * 1e3,
            "mesh.partition.data_ms": per_op("mesh.partition.data"),
            "mesh.partition.spatial_ms": per_op("mesh.partition.spatial"),
            "mesh.partition.pipeline_ms": per_op("mesh.partition.pipeline"),
            "mesh.simulate.run_ms": per_op("mesh.simulate.run"),
            "mesh.simulate.transfers": float(
                len(data.transfers) * len(PAPER_BANDWIDTHS)
                + len(spatial.transfers) + len(pipeline.transfers)),
            "mesh.simulate.step_ms.data_10gbit":
                data_10gbit.step_seconds * 1e3,
        }
