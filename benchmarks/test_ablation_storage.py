"""Ablation — the §4.2 storage optimizations and §4.4 first-fit allocation.

Quantifies what each HMMS design choice buys on VGG-19 (batch 64):

- in-place ReLU storage sharing — and, on the 2x2 Split-CNN, the
  in-place ``grad_acc`` share the same switch controls (per-patch
  weight-gradient partials fold into one running sum's TSO),
- summation-error TSO sharing (on ResNet-50, which has residual adds),
- first-fit address reuse vs a bump allocator.
"""

from repro.core import to_split_cnn
from repro.experiments import format_table
from repro.graph import build_training_graph
from repro.hmms import HMMSPlanner
from repro.models import resnet50, vgg19
from repro.nn import init

from _util import run_once, save_and_print

GIB = 1 << 30


def test_ablation_inplace_relu(benchmark):
    def measure():
        with init.fast_init():
            model = vgg19()
            split = to_split_cnn(model, depth=0.75, num_splits=(2, 2))
        plans = {}
        for name, network in (("vgg19", model), ("vgg19 split 2x2", split)):
            graph = build_training_graph(network, 64)
            for label, inplace in (("on", True), ("off", False)):
                plans[name, label] = HMMSPlanner(
                    scheduler="none", inplace_relu=inplace).plan(graph)
        return plans

    plans = run_once(benchmark, measure)
    save_and_print("ablation_inplace_relu", format_table(
        ["network", "in-place", "TSOs", "grad_acc shares",
         "general-pool bytes GiB", "peak GiB"],
        [(name, label, len(plan.assignment.tsos),
          plan.assignment.accumulate_shares_applied,
          plan.assignment.total_bytes("device_general") / GIB,
          plan.device_general_peak / GIB)
         for (name, label), plan in plans.items()],
        title="Ablation — in-place ReLU and in-place grad_acc (VGG-19 @ 64)",
    ))
    for name in ("vgg19", "vgg19 split 2x2"):
        on, off = plans[name, "on"].assignment, plans[name, "off"].assignment
        assert on.inplace_relu_applied > 0
        assert on.total_bytes("device_general") < \
            off.total_bytes("device_general")
        # The static pool never depends on the switch or the split.
        assert on.total_bytes("device_param") == \
            off.total_bytes("device_param") == \
            plans["vgg19", "on"].device_param_bytes
    assert plans["vgg19 split 2x2", "on"].assignment \
        .accumulate_shares_applied > 0


def test_ablation_summation_sharing(benchmark):
    def measure():
        with init.fast_init():
            graph = build_training_graph(resnet50(), 32)
        on = HMMSPlanner(scheduler="none").plan(graph)
        off = HMMSPlanner(scheduler="none", share_summation=False).plan(graph)
        return on, off

    on, off = run_once(benchmark, measure)
    saved = (off.assignment.total_bytes("device_general")
             - on.assignment.total_bytes("device_general"))
    save_and_print("ablation_summation", format_table(
        ["summation sharing", "TSOs", "general-pool bytes GiB"],
        [("on", len(on.assignment.tsos),
          on.assignment.total_bytes("device_general") / GIB),
         ("off", len(off.assignment.tsos),
          off.assignment.total_bytes("device_general") / GIB)],
        title="Ablation — summation error TSO sharing (ResNet-50 @ 32)",
    ))
    assert on.assignment.summation_shares_applied > 0
    assert saved > 0


def test_ablation_first_fit_vs_bump(benchmark):
    def measure():
        with init.fast_init():
            graph = build_training_graph(vgg19(), 64)
        first_fit = HMMSPlanner(scheduler="hmms", first_fit=True).plan(graph)
        bump = HMMSPlanner(scheduler="hmms", first_fit=False).plan(graph)
        return first_fit, bump

    first_fit, bump = run_once(benchmark, measure)
    save_and_print("ablation_first_fit", format_table(
        ["allocator", "general-pool peak GiB"],
        [("first-fit", first_fit.device_general_peak / GIB),
         ("bump (no reuse)", bump.device_general_peak / GIB)],
        title="Ablation — first-fit vs bump allocation (VGG-19 @ 64, HMMS)",
    ))
    # Address reuse is what makes offloading actually shrink the pool.
    assert first_fit.device_general_peak < 0.7 * bump.device_general_peak
