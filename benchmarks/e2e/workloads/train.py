"""``train_interp`` and ``train_compiled``: one training step of split-2x2
VGG-11 (CIFAR head), batch 2, float64 — through the interpreter and
through the compiled plan.

The two share model, input and kernels and differ only in the executor,
so a change to ``compile/`` or to lowering shows on ``train_compiled``
alone and a kernel change shows on both.
"""

from __future__ import annotations

import hashlib
import statistics
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import analyze_graph, verify_lowering
from repro.compile import CompiledPlan, compile_graph
from repro.core import to_split_cnn
from repro.graph import GraphExecutor, build_training_graph
from repro.hmms import HMMSPlanner
from repro.models import vgg11
from repro.nn import CrossEntropyLoss
from repro.profile.cost import CostModel
from repro.sim import GPUSimulator
from repro.tensor import Tensor

from harness import MIB, Workload, timed
from spans import SETUP
from workloads.kernels import TYPES, base_type, measure_kernels, time_shares

BATCH = 2
#: Full loss+gradient digests are taken on every tenth op (74 MB to hash);
#: the loss bytes are compared on every op.
DIGEST_EVERY = 10
REFERENCE_RTOL = 1e-9


def digest(outputs: Dict[str, np.ndarray]) -> str:
    state = hashlib.blake2b(digest_size=16)
    for key in sorted(outputs):
        state.update(key.encode())
        state.update(outputs[key].tobytes())
    return state.hexdigest()


def median_ms(call: Callable[[], Any], repeats: int = 3) -> float:
    call()                                            # warm-up
    return statistics.median(timed(call)[1] for _ in range(repeats))


class _TrainStep(Workload):
    """Common set-up; subclasses choose the executor and the reference."""

    def setup(self) -> None:
        tracer = self.tracer
        rng = np.random.default_rng(self.seed)
        base = vgg11(num_classes=10, rng=rng)
        for param in base.parameters():
            param.data = param.data.astype(np.float64)
        with tracer.span("core.transform", "core"):
            self.model = to_split_cnn(base, depth=1.0, num_splits=(2, 2))
        size = self.model.input_size
        self.x = rng.standard_normal((BATCH, 3, size, size))
        self.y = rng.integers(0, 10, size=BATCH)
        self.graph = self.build_graph()
        self.params = GraphExecutor.parameters_from_model(self.graph,
                                                          self.model)
        self.executor = self.make_executor()
        planner = HMMSPlanner(scheduler="hmms")
        with tracer.span("hmms.planner.plan", "hmms.planner"):
            plan = planner.plan(self.graph)
        with tracer.span("sim.gpu.run", "sim.gpu"):
            result = GPUSimulator().run(plan)
        self.sim = (BATCH / result.total_time, plan.device_peak / MIB)

    def build_graph(self):
        with self.tracer.span("graph.builder.build", "graph.builder"):
            return build_training_graph(self.model, BATCH)

    def make_executor(self):
        raise NotImplementedError

    def reference(self) -> Tuple[bytes, str]:
        """(loss bytes, full digest) every op must reproduce."""
        raise NotImplementedError

    def op(self, index: int, prepared: Any) -> Dict[str, np.ndarray]:
        return self.executor.run(self.x, self.y)

    def token(self, index: int, prepared: Any,
              out: Dict[str, np.ndarray]) -> Tuple[bytes, Optional[str]]:
        full = digest(out) if index % DIGEST_EVERY == 0 else None
        return out["loss"].tobytes(), full

    def verify(self, tokens: List[Tuple[int, Any]]) -> List[int]:
        loss_bytes, full_digest = self.reference()
        return [index for index, (loss, full) in tokens
                if loss != loss_bytes
                or (full is not None and full != full_digest)]

    def common_layers(self, kernel_ms: Dict[str, float]) -> Dict[str, float]:
        tracer = self.tracer
        layers = {
            "core.transform_ms": tracer.total_ms("core.transform", SETUP),
            "graph.builder.build_ms":
                tracer.total_ms("graph.builder.build", SETUP),
            "graph.builder.ops": float(len(self.graph.ops)),
            "graph.registry.kernel_calls": float(len(self.graph.ops)),
            "graph.registry.kernel_ms.other": kernel_ms["other"],
            "hmms.planner.plan_ms":
                tracer.total_ms("hmms.planner.plan", SETUP),
            "sim.gpu.run_ms": tracer.total_ms("sim.gpu.run", SETUP),
        }
        for op_type in TYPES:
            layers[f"graph.registry.kernel_ms.{op_type}"] = kernel_ms[op_type]
        return layers


class TrainInterp(_TrainStep):
    name = "train_interp"

    def make_executor(self) -> GraphExecutor:
        executor = GraphExecutor(self.graph, self.params)
        self.tracer.wrap(executor, "run", "graph.executor",
                         "graph.executor.run")
        self.tracer.wrap(executor, "execute_op", "graph.registry",
                         lambda op: op.op_type)
        return executor

    def autograd_step(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """The eager ``repro.nn`` engine on the same model and batch."""
        model = self.model
        model.train()
        model.zero_grad()
        loss = CrossEntropyLoss()(model(Tensor(self.x, dtype=np.float64)),
                                  self.y)
        loss.backward()
        return loss.data, [p.grad for _, p in model.named_parameters()]

    def reference(self) -> Tuple[bytes, str]:
        out = self.executor.run(self.x, self.y)
        loss, grads = self.autograd_step()
        parameters = [t for t in sorted(self.graph.tensors.values(),
                                        key=lambda t: t.id)
                      if t.kind == "parameter"]
        pairs = [(out["loss"], loss)] + [
            (out[f"grad({t.name})"], grad)
            for t, grad in zip(parameters, grads)]
        for ours, eager in pairs:
            scale = float(np.max(np.abs(eager))) or 1.0
            if float(np.max(np.abs(ours - eager))) > REFERENCE_RTOL * scale:
                # No op can match a digest nobody produced.
                return b"", "executor disagrees with eager autograd"
        return out["loss"].tobytes(), digest(out)

    def layers(self, last_out: Any, op_ms_p50: float) -> Dict[str, float]:
        kernel_ms, measure_ms = measure_kernels(self.graph, self.params,
                                                self.x, self.y)
        layers = self.common_layers(kernel_ms)
        kernel_total = sum(kernel_ms.values())
        wavefront = GraphExecutor(self.graph, self.params, workers=2)
        roofline_ms = dict.fromkeys(kernel_ms, 0.0)
        profile, profile_ms = timed(lambda: CostModel().profile(self.graph))
        for op in self.graph.ops:
            roofline_ms[base_type(op.op_type)] += profile[op.id].seconds
        modelled, measured = time_shares(roofline_ms), time_shares(kernel_ms)
        gaps = [abs(modelled[key] - measured[key]) for key in kernel_ms]
        layers.update({
            "graph.executor.step_ms": op_ms_p50,
            "graph.executor.kernel_ms": kernel_total,
            "graph.executor.overhead_ms": op_ms_p50 - kernel_total,
            "graph.executor.wavefront2_step_ms":
                median_ms(lambda: wavefront.run(self.x, self.y)),
            "nn.autograd.step_ms": median_ms(self.autograd_step),
            "profile.cost.profile_ms": profile_ms,
            "profile.measured.measure_ms": measure_ms,
            "profile.residual.share_l1": sum(gaps),
            "profile.residual.worst_type_gap": max(gaps),
        })
        return layers


class TrainCompiled(_TrainStep):
    name = "train_compiled"

    def make_executor(self) -> CompiledPlan:
        tracer = self.tracer
        with tracer.span("compile.pipeline.compile", "compile.pipeline"):
            self.report = compile_graph(self.graph, params=self.params)
        with tracer.span("compile.plan.lower", "compile.plan"):
            plan = CompiledPlan(self.graph, self.params)
        tracer.wrap(plan, "run", "compile.plan", "compile.plan.run")
        return plan

    def reference(self) -> Tuple[bytes, str]:
        """The interpreter on the uncompiled twin graph."""
        self.twin = GraphExecutor(build_training_graph(self.model, BATCH),
                                  self.params)
        out = self.twin.run(self.x, self.y)
        return out["loss"].tobytes(), digest(out)

    def layers(self, last_out: Any, op_ms_p50: float) -> Dict[str, float]:
        tracer = self.tracer
        kernel_ms, _ = measure_kernels(self.graph, self.params,
                                       self.x, self.y)
        layers = self.common_layers(kernel_ms)
        kernel_total = sum(kernel_ms.values())
        interp_ms = median_ms(lambda: self.twin.run(self.x, self.y))
        _, graph_passes_ms = timed(
            lambda: analyze_graph(self.twin.graph, workers=1))
        _, lowering_ms = timed(lambda: verify_lowering(self.executor))
        layers.update({
            "compile.pipeline.compile_ms":
                tracer.total_ms("compile.pipeline.compile", SETUP),
            "compile.pipeline.ops_before": float(self.report.ops_before),
            "compile.pipeline.ops_after": float(self.report.ops_after),
            "compile.pipeline.rewrites_applied":
                float(sum(p.changed for p in self.report.passes)),
            "compile.plan.lower_ms":
                tracer.total_ms("compile.plan.lower", SETUP),
            "compile.plan.step_ms": op_ms_p50,
            "compile.plan.kernel_ms": kernel_total,
            "compile.plan.overhead_ms": op_ms_p50 - kernel_total,
            "compile.speedup_ratio": interp_ms / op_ms_p50,
            "analysis.graph_passes_ms": graph_passes_ms,
            "analysis.lowering_ms": lowering_ms,
        })
        return layers
