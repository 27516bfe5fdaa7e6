"""Patch inference — bounded-memory serving of over-capacity inputs.

The acceptance demonstration behind ``repro patch-bench``: find the
largest single-pass input that fits the modelled device, then serve an
input at least 4x that *area* through streaming patch plans whose peak
stays under budgets far below device capacity.  The full-scale committed
snapshot lives in ``benchmarks/results/patch_bench.txt`` (32768^2 pixels
through a 16 GiB P100 twin, 4 GiB working budget); this test reproduces
the same shape at CI scale and re-asserts the identity guarantee
numerically.

``REPRO_SMOKE=1`` shrinks the sweep (fewer grids/budgets).
"""

import os

import numpy as np

from repro.experiments import format_table
from repro.infer import PatchInferer
from repro.models import small_vgg
from repro.profile.device import P100_NVLINK

from _util import run_once, save_and_print

SMOKE = bool(os.environ.get("REPRO_SMOKE"))

# The baseline budget is deliberately tiny so the "device" saturates at
# a small single-pass side and the 4x-area demonstration stays cheap.
BASELINE_BUDGET = 48 << 20
GRIDS = [(4, 4), (8, 8)] if SMOKE else [(2, 2), (4, 4), (8, 8)]
BUDGET_FRACTIONS = [0.25] if SMOKE else [1.0, 0.5, 0.25]


def test_patch_bench_over_capacity_demonstration(benchmark):
    def measure():
        inferer = PatchInferer(
            small_vgg(rng=np.random.default_rng(0)),
            device=P100_NVLINK, numeric=False)
        single = inferer.max_single_pass_side(budget=BASELINE_BUDGET)
        side = 2 * single                       # 4x the area
        unsplit_peak = inferer.unsplit_entry((side, side)).plan.device_peak
        rows = []
        for fraction in BUDGET_FRACTIONS:
            budget = int(BASELINE_BUDGET * fraction)
            inferer.memory_budget = budget
            for grid in GRIDS:
                try:
                    report = inferer.plan_dense((side, side), grid)
                except ValueError:
                    rows.append((f"{grid[0]}x{grid[1]}",
                                 budget >> 20, None, None, None, None))
                    continue
                rows.append((f"{grid[0]}x{grid[1]}", budget >> 20,
                             report.patch_batch, report.join_depth,
                             report.peak_bytes / float(1 << 20),
                             report.latency * 1e3))
        return single, side, unsplit_peak, rows

    single, side, unsplit_peak, rows = run_once(benchmark, measure)
    save_and_print("patch_bench_smoke", format_table(
        ["grid", "budget MiB", "patch batch", "join", "peak MiB",
         "latency ms"],
        [(g, b, pb if pb is not None else "-",
          join if join is not None else "-",
          f"{pk:.1f}" if pk is not None else "UNSERVABLE",
          f"{lat:.3f}" if lat is not None else "-")
         for g, b, pb, join, pk, lat in rows],
        title=(f"Patch bench — {side}x{side} input "
               f"(4x the {single}x{single} single-pass max)"),
    ))
    # The input genuinely does not fit unsplit...
    assert unsplit_peak > BASELINE_BUDGET
    # ...yet some grid serves it under every budget in the sweep,
    # including the smallest, with the planned peak inside the budget.
    by_budget = {}
    for grid, budget_mib, patch_batch, _, peak_mib, _ in rows:
        served = peak_mib is not None and peak_mib <= budget_mib
        by_budget[budget_mib] = by_budget.get(budget_mib, False) or served
    assert all(by_budget.values())


def test_patch_identity_at_bench_scale(benchmark):
    """The sweep is symbolic; this re-proves byte-identity numerically
    on the same model family at a size CI can afford."""
    def measure():
        inferer = PatchInferer(small_vgg(rng=np.random.default_rng(1)))
        x = np.random.default_rng(2).standard_normal((1, 3, 64, 64))
        ref = inferer.run_unsplit(x)
        results = []
        for overlap in (0, 1):
            out = inferer.infer(x, grid=(2, 2), overlap=overlap)
            results.append(out.tobytes() == ref.tobytes())
        return results

    results = run_once(benchmark, measure)
    assert results == [True, True]
