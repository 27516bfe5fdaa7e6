"""Compiled-graph IR-step wall clock vs the uncompiled graph on VGG-11.

The compiler's perf claim: a Split-CNN transform multiplies op count by
the patch grid, and most of the new ops are small per-patch convs — so
sibling fusion collapses the S per-patch convs of a stage back into one
batched im2col call.  Both graphs run on the one executor
(``CompiledPlan`` is ``GraphExecutor``'s old name), so the speedup is
the rewrites'.  This benchmark times one IR step of VGG-11 (CIFAR head)
three ways — unsplit inference, split-2x2 inference, split-2x2 training
— uncompiled vs compiled graph, asserting byte-identity on every row and a >= 1.3x
compiled speedup on the split inference row (>= 1.0x / 0.9x floors under
``REPRO_SMOKE=1``, where repeats shrink and CI runners are noisy).
"""

import os
import time

import numpy as np

from repro.compile import compile_graph
from repro.core import to_split_cnn
from repro.experiments import format_table
from repro.graph import (
    GraphExecutor, build_inference_graph, build_training_graph,
)
from repro.models import vgg11

from _util import run_once, save_and_print

SMOKE = bool(os.environ.get("REPRO_SMOKE"))
REPEATS = 2 if SMOKE else 5
# (split-inference floor, other-rows floor): the split row is the claim,
# the others only guard against regressions.
FLOORS = (1.0, 0.9) if SMOKE else (1.3, 0.97)


def _best_step_seconds(run, repeats):
    run()  # warm-up (allocations, cache effects)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _row(name, model, mode, x, y):
    batch = x.shape[0]
    targets = y if mode == "train" else None
    if mode == "train":
        reference = build_training_graph(model, batch)
        compiled = build_training_graph(model, batch)
    else:
        reference = build_inference_graph(model, batch, eval_batchnorm=True)
        compiled = build_inference_graph(model, batch, eval_batchnorm=True)
    params = GraphExecutor.parameters_from_model(reference, model)
    report = compile_graph(compiled, params=params)

    interpreter = GraphExecutor(reference, params)
    plan = GraphExecutor(compiled, params)
    expected = interpreter.run(x, targets)
    actual = plan.run(x, targets)
    assert expected.keys() == actual.keys()
    assert all(expected[key].tobytes() == actual[key].tobytes()
               for key in expected), f"{name}: compiled output mismatch"

    interp_s = _best_step_seconds(lambda: interpreter.run(x, targets),
                                  REPEATS)
    plan_s = _best_step_seconds(lambda: plan.run(x, targets), REPEATS)
    return {
        "case": name,
        "ops": f"{report.ops_before}->{report.ops_after}",
        "interp (ms)": f"{interp_s * 1e3:.2f}",
        "compiled (ms)": f"{plan_s * 1e3:.2f}",
        "speedup": f"{interp_s / plan_s:.2f}x",
        "_speedup": interp_s / plan_s,
    }


def test_compile_speedup(benchmark):
    rng = np.random.default_rng(0)
    unsplit = vgg11(num_classes=10, rng=rng)
    split = to_split_cnn(vgg11(num_classes=10,
                               rng=np.random.default_rng(0)),
                         depth=1.0, num_splits=(2, 2))
    x = rng.standard_normal((2, 3, unsplit.input_size, unsplit.input_size))
    y = rng.integers(0, 10, size=2)

    def measure():
        return [
            _row("vgg11/unsplit/infer", unsplit, "infer", x, y),
            _row("vgg11/split-2x2/infer", split, "infer", x, y),
            _row("vgg11/split-2x2/train", split, "train", x, y),
        ]

    rows = run_once(benchmark, measure)
    headers = ["case", "ops", "interp (ms)", "compiled (ms)", "speedup"]
    table = format_table(
        headers, [[row[key] for key in headers] for row in rows],
        title="compiled plan vs interpreter, one IR step "
              f"(best of {REPEATS}, batch 2)")
    save_and_print("compile_speedup", table)

    split_floor, other_floor = FLOORS
    for row in rows:
        floor = split_floor if row["case"] == "vgg11/split-2x2/infer" \
            else other_floor
        assert row["_speedup"] >= floor, (
            f"{row['case']}: compiled/interpreter speedup "
            f"{row['_speedup']:.2f}x below the {floor}x floor")
