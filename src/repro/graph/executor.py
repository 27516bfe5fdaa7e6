"""The IR executor: a graph lowered to flat tables, run on numpy arrays.

Executes a training or inference graph independently of the autograd
engine that normally runs the models.  Three uses:

1. **Cross-validation** — the same training step through (a) the autograd
   engine and (b) this executor must produce identical losses and
   parameter gradients; that pins down the graph builder and the backward
   generator end to end (``tests/test_executor.py``).
2. **Measured profiling** — the paper's §4.3 times 20 repeated executions
   per layer; :class:`repro.profile.measured.MeasuredCostModel` drives
   :meth:`GraphExecutor.execute_op` to do exactly that.
3. **Serving and patch inference** — the engine and the inferer run
   (optionally pipeline-compiled) graphs through it.

There is one executor.  A graph rewritten by :mod:`repro.compile` and a
graph straight from the builder are lowered the same way at construction
time: kernels bound once per op (``_steps``; :meth:`execute_op` is the
single per-op seam every run loop, timing loop and tracer goes through),
values and saved contexts in dense lists indexed by tensor / op id, the
eager-free refcounts, the overwrite table, dropout seed pairs,
forward-twin references and the wavefront dependency counts as dense
per-run templates.  :func:`repro.analysis.verify_lowering` re-derives
every one of those tables from raw graph structure (SCA401-406) without
sharing code with this module.  ``repro.compile.CompiledPlan`` is this
class under its old name.

Kernels live in :mod:`repro.graph.registry`, one per op type.  Backward
ops run against the *saved context* of their forward op — the fused
:class:`~repro.tensor.autograd.Function` instantiated by the forward
kernel — so gradients are bit-identical with the autograd engine.

**Wavefront parallelism** — ``workers=N`` replaces the serialized walk
with a ready-queue scheduler over the op dependency DAG
(:meth:`Graph.op_dependencies`) on a thread pool, so the independent
patch chains a Split-CNN transform creates (paper §3.2) can overlap.
Results are bit-identical to serial execution for any worker count: every
op reads and writes *fixed* tensors (``grad_acc`` chains fix the gradient
reduction order structurally), dropout masks come from per-op seeded
streams ``(dropout_seed, op seed)``, and a parameter's total gradient is
the structural tail of its ``grad_acc`` chain, never a tensor-id maximum.

**Eager value release** — with ``eager_free`` (the default) a value is
dropped when its last consumer retires (:func:`~repro.graph.liveness.
compute_free_plan`) and a saved context when the last backward twin of
its forward op has run, so peak memory tracks the graph's liveness
profile.  ``eager_free=False`` keeps everything until the next run (the
§4.3 loop re-times individual ops after a run and needs them all).
A context no backward twin will read — every one in an inference graph —
is never kept at all (:meth:`GraphExecutor.needs_context`, structural
like the overwrite table below).

**Overwrite table** — the same liveness facts say when an input's
*array* is dead: :func:`overwritable_inputs` lists, per op, the inputs it
may write its result into (``grad_acc`` accumulates per-patch gradients
in place).  Structural, independent of ``eager_free`` and ``workers``, so
every run and the §4.3 timing loop execute the same kernels.
"""

from __future__ import annotations

import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .ir import Graph, OpNode
from .liveness import compute_free_plan
from .registry import SHARE_NONE, op_def

__all__ = ["GraphExecutor", "resolve_final_gradients", "overwritable_inputs",
           "OUTPUT_NAMES"]

#: Tensor names whose values are run outputs (never freed eagerly).
OUTPUT_NAMES = ("loss", "logits")

_Kernel = Callable[["GraphExecutor", OpNode], None]


def resolve_final_gradients(graph: Graph) -> Dict[str, int]:
    """Map each parameter name to the tensor id of its total gradient.

    A parameter consumed by several forward ops (split patches, weight
    sharing) accumulates through a chain of ``grad_acc`` ops, unless its
    split layer takes one weight-gradient GEMM.  The total is the chain's
    *structural* end: the gradient tensor that no further ``grad_acc`` op
    folds into another gradient of the same parameter.
    Selecting by tensor id (the historical ``max(finals, key=id)``)
    silently breaks whenever a transform or re-serialization renumbers
    tensors — ids carry no semantics.

    Shared between :class:`GraphExecutor` (run outputs, pinning) and the
    determinism audit of :mod:`repro.analysis` (which reports an
    un-frozen reduction instead of raising).
    """
    param_names = [t.name for t in graph.tensors.values()
                   if t.kind == "parameter"]
    finals: Dict[str, int] = {}
    for param_name in param_names:
        names = (f"grad({param_name})", f"grad_acc({param_name})")
        candidates = [t for t in graph.tensors.values()
                      if t.kind == "gradient" and t.name in names]
        if not candidates:
            continue
        candidate_ids = {t.id for t in candidates}
        merged = set()
        for tensor in candidates:
            for op_id in set(tensor.consumers):
                op = graph.op_by_id(op_id)
                if op.op_type == "grad_acc" and any(
                        out_id in candidate_ids for out_id in op.outputs):
                    merged.add(tensor.id)
        tails = [t for t in candidates if t.id not in merged]
        if len(tails) != 1:
            raise ValueError(
                f"gradient accumulation chain for {param_name!r} has "
                f"{len(tails)} tails, expected exactly one"
            )
        finals[param_name] = tails[0].id
    return finals


def overwritable_inputs(graph: Graph,
                        counts: Dict[int, int]) -> Dict[int, Tuple[int, ...]]:
    """Map each op id to the input tensors whose arrays it may overwrite.

    ``counts`` is the refcount map of :func:`compute_free_plan` (pinned
    tensors absent).  Input ``t`` qualifies when ``counts[t] == 1`` — the
    op is its only consumer, so ``t`` is unpinned and no other op, serial
    or wavefront, reads the array afterwards — and ``t`` is produced in
    the backward phase by an op that allocates: not a graph input, not a
    ``free`` / aliasing registry entry (``flatten`` views, ``add_bwd``'s
    shared error term), and not a forward value, which a saved context
    may hold outside the graph's edges (``Conv2d.xp`` *is* the conv's
    input when its padding is zero).

    Shared with the race detector, which counts each such input as a
    write; :func:`repro.analysis.verify_lowering` re-derives it (SCA406).
    """
    allocating = set()
    for op in graph.ops:
        definition = op_def(op.op_type)
        if (op.phase == "backward" and not definition.free
                and definition.sharing == SHARE_NONE):
            allocating.update(op.outputs)
    return {op.id: tuple(t for t in dict.fromkeys(op.inputs)
                         if counts.get(t) == 1 and t in allocating)
            for op in graph.ops}


class GraphExecutor:
    """Executes a serialized training or inference graph numerically.

    Parameters
    ----------
    graph: a graph produced by :func:`repro.graph.build_training_graph` /
        :func:`~repro.graph.build_inference_graph`, optionally rewritten
        by :func:`repro.compile.compile_graph`.
    parameters: mapping from parameter tensor *name* to its array; use
        :meth:`parameters_from_model` to extract them in builder order.
    dropout_seed: base seed for dropout masks; each dropout op derives its
        own stream from ``(dropout_seed, op seed)`` so distinct layers
        draw distinct masks while staying replayable.
    workers: number of threads for wavefront execution.  ``1`` (default)
        walks the ops serially; ``N > 1`` executes every
        dependency-satisfied op concurrently with bit-identical results.
    eager_free: drop each intermediate value after its last consumer op
        retires (and each saved context after its last backward twin).
        ``False`` keeps everything live until the next :meth:`run` or
        :meth:`release_intermediates`.

    To reject a broken graph before running it, call
    ``repro.analysis.analyze_graph(graph).raise_if_failed()`` first.
    """

    def __init__(self, graph: Graph, parameters: Dict[str, np.ndarray],
                 dropout_seed: int = 0, workers: int = 1,
                 eager_free: bool = True) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.graph = graph
        #: The dtype every input arrives in and every kernel computes in.
        self.width = graph.width
        self.dropout_seed = dropout_seed
        self.workers = workers
        self.eager_free = eager_free
        self.targets: Optional[np.ndarray] = None

        num_tensors = 1 + max((t.id for t in graph.tensors.values()),
                              default=0)
        num_ops = 1 + max((op.id for op in graph.ops), default=0)

        # -- persistent values (parameters + constants), seeded once ----
        base: List[Optional[np.ndarray]] = [None] * num_tensors
        persistent = set()
        for tensor in graph.tensors.values():
            if tensor.kind == "parameter":
                if tensor.name not in parameters:
                    raise KeyError(f"missing parameter array {tensor.name!r}")
                array = parameters[tensor.name]
                if tuple(array.shape) != tensor.shape:
                    raise ValueError(
                        f"parameter {tensor.name!r}: expected {tensor.shape}, "
                        f"got {array.shape}"
                    )
                base[tensor.id] = array
                persistent.add(tensor.id)
            elif tensor.kind == "constant":
                try:
                    base[tensor.id] = graph.constants[tensor.id]
                except KeyError:
                    raise KeyError(
                        f"constant tensor {tensor.name!r} (id {tensor.id}) "
                        "has no value in graph.constants"
                    ) from None
                persistent.add(tensor.id)
        self._base_values = base
        #: Dense by tensor id; ``None`` = unbound or already freed.  After
        #: an ``eager_free=False`` run an input its consumer overwrote
        #: (:meth:`may_overwrite`) aliases that consumer's result.
        self.values: List[Optional[np.ndarray]] = list(base)
        #: Dense by forward op id: the saved ``Function`` contexts.
        self._contexts: List[Any] = [None] * num_ops

        self._input_ids = [t.id for t in graph.tensors.values()
                           if t.kind == "input"]
        self._outputs_by_name = {
            t.name: t.id for t in graph.tensors.values()
            if t.name in OUTPUT_NAMES
        }
        self._final_grads = resolve_final_gradients(graph)
        self._result_ids = {
            **self._outputs_by_name,
            **{f"grad({name})": tensor_id
               for name, tensor_id in self._final_grads.items()},
        }
        self._pinned = frozenset(persistent
                                 | set(self._outputs_by_name.values())
                                 | set(self._final_grads.values()))

        # -- lowered step list: kernels bound once ----------------------
        self._steps: List[Tuple[_Kernel, OpNode]] = [
            (op_def(op.op_type).kernel, op) for op in graph.ops
        ]
        self._step_by_id = {step[1].id: step for step in self._steps}
        self._fwd: List[Optional[OpNode]] = [None] * num_ops
        self._seeds: List[Optional[Tuple[int, int]]] = [None] * num_ops
        for op in graph.ops:
            # The builder stamps attrs["seed"] = op.id on every stochastic
            # op (audited by repro.analysis); hand-built graphs fall back
            # to the op id, which is the same stream.
            self._seeds[op.id] = (dropout_seed, op.attrs.get("seed", op.id))
            if op.forward_of is not None:
                self._fwd[op.id] = self._step_by_id[op.forward_of][1]

        # -- dense eager-free schedule ----------------------------------
        counts, consumed_by_op = compute_free_plan(graph, pinned=self._pinned)
        self._counts_template: List[int] = [0] * num_tensors
        for tensor_id, count in counts.items():
            self._counts_template[tensor_id] = count
        self._consumed: List[Tuple[int, ...]] = [()] * num_ops
        for op_id, tensor_ids in consumed_by_op.items():
            self._consumed[op_id] = tuple(tensor_ids)
        self._ctx_template: List[int] = [0] * num_ops
        for op_id, twins in Counter(op.forward_of for op in graph.ops
                                    if op.forward_of is not None).items():
            self._ctx_template[op_id] = twins
        #: Dense by op id: the input tensors the op may overwrite.
        self._overwrite: List[Tuple[int, ...]] = [()] * num_ops
        for op_id, tensor_ids in overwritable_inputs(graph, counts).items():
            self._overwrite[op_id] = tensor_ids

        # -- dense wavefront schedule -----------------------------------
        self._remaining_template: List[int] = [0] * num_ops
        dependents: Dict[int, List[int]] = {}
        for op_id, op_deps in graph.op_dependencies().items():
            self._remaining_template[op_id] = len(op_deps)
            for dep in op_deps:
                dependents.setdefault(dep, []).append(op_id)
        self._dependents: List[Tuple[int, ...]] = [()] * num_ops
        for op_id, dep_list in dependents.items():
            self._dependents[op_id] = tuple(dep_list)
        self._initial = [op for op in graph.ops
                         if self._remaining_template[op.id] == 0]

    # ------------------------------------------------------------------
    @staticmethod
    def parameters_from_model(graph: Graph,
                              model: Any) -> Dict[str, np.ndarray]:
        """Match the graph's parameter tensors to the model's arrays.

        The builder caches one parameter tensor per (module, attribute) and
        emits them in first-use order, which equals ``named_parameters``
        traversal order for our sequential models.
        """
        graph_params = [t for t in sorted(graph.tensors.values(),
                                          key=lambda t: t.id)
                        if t.kind == "parameter"]
        model_params = [p for _, p in model.named_parameters()]
        if len(graph_params) != len(model_params):
            raise ValueError(
                f"graph has {len(graph_params)} parameters, model has "
                f"{len(model_params)}"
            )
        mapping = {}
        for tensor, param in zip(graph_params, model_params):
            if tuple(param.data.shape) != tensor.shape:
                raise ValueError(
                    f"parameter order mismatch at {tensor.name!r}: "
                    f"{tensor.shape} vs {param.data.shape}"
                )
            mapping[tensor.name] = param.data
        return mapping

    # ------------------------------------------------------------------
    def release_intermediates(self) -> None:
        """Reset to the persistent (parameter + constant) values only.

        Repeated :meth:`run` calls (the §4.3 profiling loop) would
        otherwise keep the outputs and, without ``eager_free``, every
        activation, gradient and forward context of the last step live.
        """
        self.values = list(self._base_values)
        self._contexts = [None] * len(self._contexts)

    def run(self, input_array: np.ndarray,
            targets: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
        """Execute every op; returns {'loss': ..., 'grad(<param>)': ...}
        for training graphs, {'logits': ...} for inference graphs.

        The single-input case of :meth:`run_with_inputs`: on a graph with
        several inputs the others are reported unbound."""
        if not self._input_ids:
            raise ValueError(
                f"graph {self.graph.name!r} has no input tensor to bind")
        return self.run_with_inputs({self._input_ids[0]: input_array},
                                    targets=targets)

    def run_with_inputs(self, inputs: Dict[int, np.ndarray],
                        targets: Optional[np.ndarray] = None,
                        ) -> Dict[str, np.ndarray]:
        """Execute with every ``kind == "input"`` tensor bound explicitly.

        Partitioned graphs (mesh patch chains, pipeline stages) carry
        several input tensors — the per-patch slices and the remote patch
        results arriving from other devices.  Raises on missing, unknown,
        mis-shaped, or mis-typed bindings.

        Every kernel computes at the graph's width (:attr:`width`, its
        model's parameter dtype), so graph inputs must arrive at that
        width: any other dtype (a float64 image for a float32 model)
        raises ``TypeError`` instead of being converted silently, which
        would hide the producer's dtype bug — the cast is the *caller's*
        explicit decision, made once per entry point.
        """
        self.release_intermediates()
        input_ids = set(self._input_ids)
        missing = input_ids - set(inputs)
        if missing:
            names = sorted(self.graph.tensors[i].name for i in missing)
            raise ValueError(f"unbound graph inputs: {names}")
        unknown = set(inputs) - input_ids
        if unknown:
            raise ValueError(
                f"tensor ids {sorted(unknown)} are not graph inputs")
        for tensor_id, array in inputs.items():
            tensor = self.graph.tensors[tensor_id]
            array = np.asarray(array)
            if tuple(array.shape) != tensor.shape:
                raise ValueError(
                    f"input {tensor.name!r} shape {array.shape} != "
                    f"graph input {tensor.shape}")
            if array.dtype != self.width:
                raise TypeError(
                    f"input {tensor.name!r} dtype {array.dtype} != the "
                    f"graph's width {self.width}; convert explicitly "
                    f"(silent casts hide producer dtype bugs)")
            self.values[tensor_id] = array
        self.targets = targets
        if self.workers > 1:
            self._run_wavefront()
        else:
            self._run_serial()
        outputs: Dict[str, np.ndarray] = {}
        for name, tensor_id in self._result_ids.items():
            value = self.values[tensor_id]
            if value is None:
                raise self._dead(tensor_id, "the run's output dict")
            outputs[name] = value
        return outputs

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _retire(self, op: OpNode, counts: List[int],
                ctx_left: List[int]) -> None:
        """Free the values and the context made dead by ``op`` completing.

        ``counts``/``ctx_left`` are the run's copies of the refcount
        templates.  Callers serialize calls (the wavefront holds its
        scheduler lock), so plain list updates are safe.
        """
        values = self.values
        for tensor_id in self._consumed[op.id]:
            counts[tensor_id] -= 1
            if counts[tensor_id] == 0:
                values[tensor_id] = None
        forward_id = op.forward_of
        if forward_id is not None:
            ctx_left[forward_id] -= 1
            if ctx_left[forward_id] == 0:
                self._contexts[forward_id] = None

    def _run_serial(self) -> None:
        execute, eager_free = self.execute_op, self.eager_free
        counts = list(self._counts_template)
        ctx_left = list(self._ctx_template)
        for _, op in self._steps:
            execute(op)
            if eager_free:
                self._retire(op, counts, ctx_left)

    def _run_wavefront(self) -> None:
        """Ready-queue execution of the op DAG on a thread pool.

        Every op whose dependencies (:meth:`Graph.op_dependencies`) have
        retired is submitted immediately; completion retires it under one
        scheduler lock, releasing dead values and newly-ready successors.
        Kernels themselves run outside the lock — that is where the BLAS
        time goes and where the GIL is released.
        """
        execute = self.execute_op
        remaining = list(self._remaining_template)
        counts = list(self._counts_template)
        ctx_left = list(self._ctx_template)
        lock = threading.Lock()
        done = threading.Event()
        failures: List[BaseException] = []
        ops_left = len(self._steps)

        def finish(op: OpNode) -> None:
            nonlocal ops_left
            ready_next: List[OpNode] = []
            with lock:
                if self.eager_free:
                    self._retire(op, counts, ctx_left)
                for dep_id in self._dependents[op.id]:
                    remaining[dep_id] -= 1
                    if remaining[dep_id] == 0:
                        ready_next.append(self._step_by_id[dep_id][1])
                ops_left -= 1
                if ops_left == 0:
                    done.set()
            for next_op in ready_next:
                pool.submit(task, next_op)

        def task(op: OpNode) -> None:
            if failures:
                return
            try:
                execute(op)
            except BaseException as exc:  # surfaced to the caller below
                failures.append(exc)
                done.set()
                return
            finish(op)

        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            for op in self._initial:
                pool.submit(task, op)
            done.wait()
        finally:
            pool.shutdown(wait=True)
        if failures:
            raise failures[0]

    # ------------------------------------------------------------------
    def execute_op(self, op: OpNode) -> None:
        """Run one op's bound kernel — the per-op seam.

        Both run loops dispatch through here, so shadowing this method on
        an instance (a tracer) sees every kernel call of a run; the §4.3
        timing loop calls it out of band after an ``eager_free=False``
        run.

        Out-of-band calls are **not idempotent** for an accumulating op
        (``grad_acc`` adds into the input :meth:`may_overwrite` grants it
        again): re-execution is for timing, values come from :meth:`run`.
        """
        self._step_by_id[op.id][0](self, op)

    # -- kernel-facing helpers (the registry kernels' executor API) ------
    def _dead(self, tensor_id: int, reader: str) -> RuntimeError:
        return RuntimeError(
            f"{reader} reads tensor {self.graph.tensors[tensor_id].name!r} "
            f"(id {tensor_id}), which is unbound or already freed")

    def input(self, op: OpNode, index: int) -> np.ndarray:
        value = self.values[op.inputs[index]]
        if value is None:
            raise self._dead(op.inputs[index], f"op {op.name!r}")
        return value

    def set_output(self, op: OpNode, index: int, value: np.ndarray) -> None:
        self.values[op.outputs[index]] = value

    def may_overwrite(self, op: OpNode, index: int) -> bool:
        """May ``op`` write its result into input ``index``'s array?"""
        return op.inputs[index] in self._overwrite[op.id]

    def forward_op(self, op: OpNode) -> OpNode:
        forward = self._fwd[op.id]
        if forward is None:
            raise ValueError(f"op {op.name!r} has no forward twin "
                             f"(forward_of={op.forward_of})")
        return forward

    def needs_context(self, op: OpNode) -> bool:
        """Will a backward twin read the context ``op`` saves?  Never in
        an inference graph; a kernel asks before computing what only
        ``backward`` uses."""
        return self._ctx_template[op.id] > 0

    def save_context(self, op: OpNode, fn: Any) -> None:
        """Cache a forward op's ``Function`` for its backward twins;
        with no twin to read (or free) it, nothing is kept."""
        if self.needs_context(op):
            self._contexts[op.id] = fn

    def forward_context(self, op: OpNode) -> Any:
        """The ``Function`` context saved when ``op``'s forward op ran."""
        forward = self.forward_op(op)
        ctx = self._contexts[forward.id]
        if ctx is None:
            raise RuntimeError(
                f"op {op.name!r} needs the saved context of "
                f"{forward.name!r}, which has not run or was already freed")
        return ctx

    def dropout_op_seed(self, op: OpNode) -> Tuple[int, int]:
        """Per-op dropout seed pair: distinct layers, distinct masks."""
        seed = self._seeds[op.id]
        if seed is None:
            raise ValueError(f"op {op.name!r} (id {op.id}) is not an op "
                             f"of graph {self.graph.name!r}")
        return seed
