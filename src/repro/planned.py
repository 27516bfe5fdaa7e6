"""The planned-graph core under serving and patch inference.

Two decisions live here and nowhere else (``docs/serving.md``):

- **How a forward graph becomes a servable entry.**  :class:`PlanCore`
  runs ``compile pipeline -> HMMSPlanner.plan -> verify_plan ->
  inference_latency -> GraphExecutor`` and caches the result under a key
  that always ends in the pipeline fingerprint (what ``SCA504`` audits),
  so ``plans_verified == cache.misses`` for whoever shares the core.
- **How the largest size that fits a budget is found.**
  :func:`dyadic_search`, the paper's Figure-10 question, asked of a
  batch size, a patch batch or an input side.

:class:`~repro.serve.engine.ServingEngine` and
:class:`~repro.infer.inferer.PatchInferer` own which graph to build;
everything after the graph exists is this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from .compile import default_pipeline
from .graph import GraphExecutor
from .graph.ir import Graph
from .hmms import HMMSPlanner, MemoryPlan, PlanCache, verify_plan
from .profile.device import DeviceSpec, P100_NVLINK

__all__ = ["PlannedEntry", "PlanCore", "dyadic_bucket", "dyadic_search"]

Params = Dict[str, np.ndarray]


@dataclass
class PlannedEntry:
    """A forward graph made servable: planned, verified, priced and (for
    a numeric core) executable."""

    batch: int                          # leading dim of the graph's input
    graph: Graph
    plan: MemoryPlan
    latency: float                      # simulated seconds per execution
    params: Params
    executor: Optional[GraphExecutor] = None


class PlanCore:
    """Compiles, plans, verifies, prices and caches forward graphs.

    Parameters
    ----------
    device: prices kernels and is what plans are verified against.
    numeric: give every entry a :class:`GraphExecutor` (real outputs);
        simulated latency is charged either way.
    compile_plans: run the default compile pipeline (chain + sibling
        fusion, constant folding) over every graph before planning it.
    cache: a :class:`PlanCache` shared with other cores (a fleet's
        engines, an engine and its dense inferer); private when omitted.
    """

    def __init__(self, device: DeviceSpec = P100_NVLINK,
                 numeric: bool = False, compile_plans: bool = False,
                 cache: Optional[PlanCache] = None) -> None:
        self.device = device
        self.numeric = numeric
        self.pipeline = default_pipeline() if compile_plans else None
        #: Compilation identity closing every cache key.
        self.fingerprint = self.pipeline.fingerprint if self.pipeline \
            else "interpreter"
        # Offloading has nothing to hide behind in a forward-only graph:
        # 'hmms' degenerates to 'none' there, so 'none' it is.
        self.planner = HMMSPlanner(device=device, scheduler="none")
        self.cache = cache if cache is not None else PlanCache()
        #: Plans that passed ``verify_plan`` — one per cache miss.
        self.plans_verified = 0

    def budget(self, memory_budget: Optional[int]) -> int:
        """Bytes a capacity search may assume: the whole device unless
        the owner was handed a share of it."""
        if memory_budget is None:
            return self.device.memory_capacity
        if memory_budget < 1:
            raise ValueError(
                f"memory_budget must be >= 1 byte, got {memory_budget}")
        return memory_budget

    def probe(self, graph: Graph, params: Params) -> MemoryPlan:
        """Plan ``graph`` as it would be served (compiled in place first),
        outside the cache — a capacity search that must not count as
        traffic probes with this; :meth:`build` starts with it, so the
        graph a search measured is the graph that executes."""
        if self.pipeline is not None:
            self.pipeline.run(graph, params=params)
        return self.planner.plan(graph)

    def build(self, graph: Graph, params: Params) -> PlannedEntry:
        plan = self.probe(graph, params)
        verify_plan(plan, device=self.device,
                    cost_model=self.planner.cost_model).raise_if_failed()
        self.plans_verified += 1
        latency = self.planner.cost_model.inference_latency(graph)
        executor = GraphExecutor(graph, params) if self.numeric else None
        batch = next(t for t in graph.tensors.values()
                     if t.kind == "input").shape[0]
        return PlannedEntry(batch=batch, graph=graph, plan=plan,
                            latency=latency, params=params,
                            executor=executor)

    def entry(self, key: Tuple[Hashable, ...],
              make_graph: Callable[[], Tuple[Graph, Params]],
              ) -> PlannedEntry:
        """Cached entry for ``key`` (the fingerprint is appended here);
        ``make_graph`` runs only on a miss."""
        return self.cache.get_or_build(
            key + (self.fingerprint,),
            lambda: self.build(*make_graph()))


def dyadic_bucket(size: int) -> int:
    """Smallest point of the dyadic grid (power of two) covering ``size``."""
    return 1 << (size - 1).bit_length()


def dyadic_search(peak_of: Callable[[int], int], budget: int,
                  device: DeviceSpec, cap: int, what: str,
                  start: int = 1, hint: str = "") -> Dict[int, int]:
    """The Figure-10 search: walk ``start, 2*start, 4*start, ... <= cap``
    while the planned device peak fits ``budget`` bytes; returns every
    fitting size's measured peak (the answer is the largest key).

    ``peak_of(size)`` returns the planned peak; a ``ValueError`` from it
    means the size is too small to build at all (a window larger than the
    input) and the size is skipped, not counted as a misfit.  Raises
    ``ValueError`` when nothing fits (the last rejection itself when no
    size could even be measured) and when ``start`` is already past ``cap``
    (nothing would be measured, so the budget is not to blame).
    """
    if start > cap:
        raise ValueError(
            f"search start {start} exceeds cap {cap}: nothing to measure "
            f"({what})")
    peaks: Dict[int, int] = {}
    rejection: Optional[ValueError] = None
    size = start
    while size <= cap:
        try:
            peak = peak_of(size)
        except ValueError as error:
            rejection = error
        else:
            if peak > budget:
                break
            peaks[size] = peak
        size *= 2
    if not peaks:
        if rejection is not None and size > cap:
            raise rejection
        raise ValueError(
            f"{what} exceeds the memory budget ({budget} bytes of "
            f"{device.memory_capacity} device bytes){hint}")
    return peaks
