"""Child-process side of the benchmark: set one workload up, time its ops,
check them, and report.

One child process runs one workload once (the parent pools several
children into one measurement).  The order is fixed so that each number
means one thing:

1. set-up (imports, model, graphs, planning, three warm-up ops) —
   ``setup_s`` runs from the moment the parent spawned the process to the
   first timed op;
2. the timed window — a closed loop of one client, each op timed with
   ``perf_counter`` around one public call sequence; per-op output tokens
   (digests) are taken between ops, outside the timed interval;
3. ``peak_rss_mib`` is read here, before any reference is computed;
4. the checks — references are computed now and every token compared.

A traced child splits the window in two halves, tracing off then on, so
the per-layer numbers and the tracing overhead come from one process.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import SETUP, WARMUP, Tracer

WARMUP_OPS = 3
MIB = float(1 << 20)


def timed(call: Callable[[], Any]) -> Tuple[Any, float]:
    """(the call's result, its wall time in ms)."""
    started = time.perf_counter()
    result = call()
    return result, (time.perf_counter() - started) * 1e3


class Workload:
    """One benchmark workload.  Subclasses fill in the hooks.

    ``tracer`` is disabled in the untraced pass; hooks call
    ``self.tracer.span``/``wrap`` unconditionally.
    """

    name = ""
    #: (simulated images/s, planned device peak in MiB), set during set-up
    #: (planning and capacity discovery are set-up work) or by the first
    #: warm-up op.
    sim: Tuple[float, float]

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        """Everything before the first op."""
        raise NotImplementedError

    def prepare(self, index: int) -> Any:
        """Untimed per-op preparation (fresh schedulers, copied traces)."""
        return None

    def op(self, index: int, prepared: Any) -> Any:
        """The timed interval: one public call sequence."""
        raise NotImplementedError

    def token(self, index: int, prepared: Any, out: Any) -> Any:
        """Untimed: reduce an op's output to what :meth:`verify` needs.
        Must not compute references (they would count in the peak RSS)."""
        raise NotImplementedError

    def verify(self, tokens: List[Tuple[int, Any]]) -> List[int]:
        """Compute the references and return the indexes of failed ops."""
        raise NotImplementedError

    def layers(self, last_out: Any, op_ms_p50: float) -> Dict[str, float]:
        """Per-layer metrics of a traced run (probes may run here);
        ``op_ms_p50`` is the untraced window's median."""
        raise NotImplementedError


def nearest_rank(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    rank = min(max(math.ceil(q / 100.0 * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


class Window:
    """Result of one timed window."""

    def __init__(self) -> None:
        self.op_ms: List[float] = []
        self.tokens: List[Tuple[int, Any]] = []
        self.raised: List[int] = []
        self.attempted = 0
        self.wall_s = 0.0           # window wall minus untimed prepare/token
        self.last_out: Any = None

    @property
    def p50(self) -> float:
        return statistics.median(self.op_ms)


def run_window(workload: Workload, first_index: int, seconds: float,
               max_ops: Optional[int], trace_ops: bool) -> Window:
    """Closed loop, one client: time-boxed, or exactly ``max_ops`` ops."""
    window = Window()
    tracer = workload.tracer
    gc.collect()
    started = time.perf_counter()
    untimed = 0.0
    index = first_index
    while True:
        if max_ops is not None:
            if window.attempted >= max_ops:
                break
        elif window.attempted and time.perf_counter() - started >= seconds:
            break
        mark = time.perf_counter()
        prepared = workload.prepare(index)
        tracer.op_id = index if trace_ops else WARMUP
        begin = time.perf_counter()
        untimed += begin - mark
        try:
            with tracer.span("bench.op", "bench"):
                out = workload.op(index, prepared)
            end = time.perf_counter()
            window.op_ms.append((end - begin) * 1e3)
            window.tokens.append((index, workload.token(index, prepared, out)))
            window.last_out = out
        except Exception:
            # An op that raises is a failed op, not a failed benchmark:
            # keep measuring and report it in fail_ratio.
            end = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            window.raised.append(index)
        untimed += time.perf_counter() - end
        window.attempted += 1
        index += 1
    window.wall_s = time.perf_counter() - started - untimed
    tracer.op_id = SETUP
    return window


def run_child(workload_cls: type, seed: int, seconds: float, trace: bool,
              spawned_at: float, max_ops: Optional[int],
              trace_path: Optional[str]) -> Dict[str, Any]:
    """Run one workload in this process and return its record: the raw
    op times of the untraced window (the parent pools them over its
    children) and, when traced, the per-layer metrics."""
    tracer = Tracer(enabled=trace)
    workload = workload_cls(seed, tracer)
    with tracer.span("bench.setup", "bench"):
        workload.setup()
        run_window(workload, -WARMUP_OPS, 0.0, WARMUP_OPS, trace_ops=False)
    setup_s = time.time() - spawned_at

    # Tracing off first: the end-to-end numbers never see a live span.
    tracer.enabled = False
    share = seconds / 2 if trace else seconds
    plain = run_window(workload, 0, share, max_ops, trace_ops=False)
    traced = None
    if trace:
        tracer.enabled = True
        traced = run_window(workload, plain.attempted, share, max_ops,
                            trace_ops=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not plain.op_ms:
        raise RuntimeError(f"{workload.name}: every timed op raised")

    windows = [plain] + ([traced] if traced else [])
    check_started = time.perf_counter()
    tokens = [t for w in windows for t in w.tokens]
    failed = sorted(set(workload.verify(tokens))
                    | {i for w in windows for i in w.raised})
    check_s = time.perf_counter() - check_started
    for index in failed:
        print(f"{workload.name}: op {index} FAILED its output check",
              file=sys.stderr)

    sim_img_per_s, sim_peak_mib = workload.sim
    record: Dict[str, Any] = {
        "workload": workload.name, "seed": seed,
        "attempted": sum(w.attempted for w in windows),
        "failed": len(failed),
        "setup_s": setup_s, "op_ms": plain.op_ms, "wall_s": plain.wall_s,
        "peak_rss_mib": peak_rss_mib,
        "sim_img_per_s": sim_img_per_s, "sim_peak_mib": sim_peak_mib,
    }
    if traced:
        layers = workload.layers(traced.last_out, plain.p50)
        op_total = tracer.total_ms("bench.op")
        layers.update({
            "bench.ops": float(len(plain.op_ms)),
            "bench.op_ms_p80": nearest_rank(plain.op_ms, 80),
            "bench.op_ms_min": min(plain.op_ms),
            "bench.timed_wall_s": plain.wall_s,
            "bench.check_s": check_s,
            "bench.trace_overhead_ratio": traced.p50 / plain.p50 - 1.0,
            "bench.span_coverage_ratio":
                1.0 - tracer.self_ms_by_layer().get("bench", 0.0) / op_total,
        })
        record["layers"] = layers
        if trace_path:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            tracer.write_chrome_trace(trace_path)
    return record
