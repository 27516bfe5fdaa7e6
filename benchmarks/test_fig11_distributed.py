"""E9 — Figure 11: distributed-training speedup of Split-CNN.

Runs the bandwidth sweep (32 down to 0.5 Gbit/s, alpha = 0.8) for VGG-19
at batch 64 against its Split-CNN+HMMS variant at a 6x batch, on a
4-device ring: data-parallel replicas, gradient buckets as FIFO link
transfers.  Each point carries the §6.4 closed-form projection next to
the measured epoch speedup.

Shape claims, both columns: the speedup is monotone non-increasing in
bandwidth, exceeds 2x at the paper's 10 Gbit/s cloud-bandwidth point,
approaches the batch ratio as bandwidth vanishes, and approaches ~1x
when bandwidth is plentiful.  Measured column: never below the 1x floor
(the split variant syncs 6x less often, so more bandwidth can only erode
its advantage, not invert it), and every step sits inside its
closed-form analytical bracket.

``REPRO_SMOKE=1`` swaps VGG-19/batch-64 for VGG-11/batch-16 so CI
finishes in seconds (a CIFAR head that stays communication-bound across
the sweep, so only the bandwidth-independent claims are held); the
committed snapshot under ``benchmarks/results`` records the full
configuration.
"""

import os

from repro.experiments import render_fig11, run_fig11
from repro.models import vgg11

from _util import run_once, save_and_print

SMOKE = bool(os.environ.get("REPRO_SMOKE"))


def test_fig11_distributed_speedup(benchmark):
    if SMOKE:
        run = lambda: run_fig11(base_batch=16, model_factory=vgg11)  # noqa: E731
    else:
        run = run_fig11
    result = run_once(benchmark, run)
    if not SMOKE:
        save_and_print("fig11_distributed", render_fig11(result))

    result.check()
    result.assert_monotone()
    points = sorted(result.points, key=lambda p: p.bandwidth_gbit)
    floor = min(p.measured_speedup for p in points)
    assert floor >= 1.0, f"measured speedup fell below the 1x floor: {floor:.4f}"

    for column in ("analytical_speedup", "measured_speedup"):
        curve = {p.bandwidth_gbit: getattr(p, column) for p in points}
        speedups = list(curve.values())
        assert all(a >= b - 1e-9 for a, b in zip(speedups, speedups[1:])), \
            f"{column} must be non-increasing in bandwidth"
        # Low-bandwidth limit approaches the batch-size ratio (6x here).
        assert curve[0.5] > 4.0
        if not SMOKE:
            assert curve[10] > 2.0, \
                f"{column} {curve[10]:.2f}x at 10 Gbit/s (paper: 2.1x)"
            # High-bandwidth regime: little to gain.
            assert curve[32] < 2.0
