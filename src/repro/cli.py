"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment drivers so every paper figure
that trains nothing is reproducible from a shell (Figures 4-6 train
models: ``python examples/train_split_cnn.py``):

    python -m repro fig1                 # generated vs offload-able data
    python -m repro fig8                 # scheduler throughput comparison
    python -m repro fig9                 # stream timelines
    python -m repro fig10                # max batch size search
    python -m repro fig11                # distributed speedup, §6.4 vs mesh
    python -m repro plan vgg19 -b 64     # plan + simulate one model
    python -m repro verify-plan vgg19    # static plan verification
    python -m repro info resnet50 -b 64  # graph statistics

plus the serving-side bench, the graph compiler, and the static analyzer:

    python -m repro serve-bench vgg11 --rps 100 --duration 5
    python -m repro fleet-bench --mode compare
    python -m repro compile vgg11 --split 4 --check
    python -m repro lint vgg11 -b 16 --workers 4
    python -m repro mesh-bench vgg19 --devices 4 --topology ring

Exit codes are uniform across commands: ``0`` clean, ``1`` the command
ran but found problems (plan violations, lint errors, zero completed
requests), ``2`` usage or internal error (matching argparse).
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from typing import List, Optional

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """Bad command-line input — reported on stderr, exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Split-CNN (ASPLOS 2019) reproduction toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser("fig1", help="Figure 1: generated vs offload-able")
    fig1.add_argument("-b", "--batch", type=int, default=64)
    fig1.add_argument("--per-layer", action="store_true")

    fig8 = sub.add_parser("fig8", help="Figure 8: scheduler throughput")
    fig8.add_argument("-b", "--batch", type=int, default=64)

    fig9 = sub.add_parser("fig9", help="Figure 9: stream timelines")
    fig9.add_argument("-b", "--batch", type=int, default=64)
    fig9.add_argument("--width", type=int, default=100)

    sub.add_parser("fig10", help="Figure 10: maximum batch size")

    fig11 = sub.add_parser(
        "fig11",
        help="Figure 11: distributed speedup at every paper bandwidth, "
             "§6.4 closed form next to the mesh measurement")
    fig11.add_argument("--factor", type=int, default=6,
                       help="split batch enlargement factor")
    fig11.add_argument("--devices", type=int, default=4, help="mesh size")
    fig11.add_argument("--topology", default="ring",
                       choices=["ring", "bus", "p2p"])

    mesh = sub.add_parser(
        "mesh-bench",
        help="measured distributed execution over a simulated device mesh")
    mesh.add_argument("model", nargs="?", default="vgg19")
    mesh.add_argument("--devices", type=int, default=4)
    mesh.add_argument("--topology", default="ring",
                      choices=["ring", "bus", "p2p"])
    mesh.add_argument("--bandwidth", type=float, default=10.0,
                      help="per-link bandwidth in Gbit/s")
    mesh.add_argument("--strategy", default="data",
                      choices=["data", "spatial", "pipeline"],
                      help="partitioning: data = training replicas + "
                           "gradient allreduce; spatial = split patches "
                           "across devices (inference); pipeline = layer "
                           "stages (inference)")
    mesh.add_argument("-b", "--batch", type=int, default=64,
                      help="per-device batch (data) or global batch "
                           "(spatial/pipeline)")
    mesh.add_argument("--split", type=int, default=4,
                      help="total patches (1,2,3,4,6,9); used by spatial")
    mesh.add_argument("--split-depth", type=float, default=0.75)
    mesh.add_argument("--seed", type=int, default=None,
                      help="shuffle event tie-breaking order (results "
                           "must be identical for every seed)")

    plan = sub.add_parser("plan", help="plan + simulate one training step")
    plan.add_argument("model")
    plan.add_argument("-b", "--batch", type=int, default=64)
    plan.add_argument("--scheduler", default="hmms",
                      choices=["none", "layerwise", "hmms"])
    plan.add_argument("--split-depth", type=float, default=0.0)
    plan.add_argument("--splits", type=int, default=4,
                      help="total patches (1,2,3,4,6,9)")

    verify = sub.add_parser(
        "verify-plan",
        help="statically verify a memory plan (five invariant families)")
    verify.add_argument("model")
    verify.add_argument("-b", "--batch", type=int, default=64)
    verify.add_argument("--scheduler", default="hmms",
                        choices=["none", "layerwise", "hmms"])
    verify.add_argument("--split-depth", type=float, default=0.0)
    verify.add_argument("--splits", type=int, default=4,
                        help="total patches (1,2,3,4,6,9)")
    verify.add_argument("--grouped-sync", action="store_true",
                        help="paper-literal Algorithm 1 grouped sync mode")
    verify.add_argument("--capacity-gib", type=float, default=None,
                        help="device pool capacity the plan must fit (GiB)")
    verify.add_argument("--strict-stalls", action="store_true",
                        help="treat zero-stall violations as errors")

    serve = sub.add_parser(
        "serve-bench",
        help="open-loop serving benchmark (queue -> batcher -> engine)")
    serve.add_argument("model")
    serve.add_argument("--rps", type=float, default=100.0,
                       help="offered Poisson request rate")
    serve.add_argument("--duration", type=float, default=5.0,
                       help="arrival window in simulated seconds")
    serve.add_argument("--split", type=int, default=1,
                       help="total patches (1,2,3,4,6,9); 1 = unsplit")
    serve.add_argument("--split-depth", type=float, default=0.5)
    serve.add_argument("--flush-ms", type=float, default=5.0,
                       help="dynamic batcher flush timeout (ms)")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="admission queue bound (requests)")
    serve.add_argument("--max-batch", type=int, default=None,
                       help="cap batches below the discovered maximum")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request latency budget (ms)")
    serve.add_argument("--request-size", type=int, default=1,
                       help="images per request")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--numeric", action="store_true",
                       help="also run real numpy forward passes")
    serve.add_argument("--compile", action="store_true",
                       help="compile cached graphs (fusion + constant "
                            "folding) and serve the rewritten graphs")

    fleet = sub.add_parser(
        "fleet-bench",
        help="multi-tenant fleet bench: N model variants co-resident on "
             "one device, continuous batching, replica autoscaler")
    fleet.add_argument(
        "--tenant", action="append", dest="tenants", metavar="SPEC",
        help="tenant spec 'model[/SPLIT[@DEPTH]]:slo:rps', e.g. "
             "'vgg11:interactive:800' or 'vgg11/4@0.5:standard:800'; "
             "repeat per tenant (default: a vgg11 unsplit + vgg11 "
             "split-4 + resnet18 trio)")
    fleet.add_argument("--duration", type=float, default=2.0,
                       help="arrival window in simulated seconds")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--mode", default="continuous",
                       choices=["continuous", "flush", "compare"],
                       help="batching mode; 'compare' runs both on the "
                            "same trace and reports the p99 delta")
    fleet.add_argument("--no-autoscale", action="store_true",
                       help="disable the replica autoscaler")
    fleet.add_argument("--compile", action="store_true",
                       help="compile cached graphs in every tenant engine")
    fleet.add_argument("--queue-depth", type=int, default=512,
                       help="per-tenant admission quota (requests)")

    patch = sub.add_parser(
        "patch-bench",
        help="streaming patch-inference bench: grid x overlap x memory "
             "budget sweep over an input larger than single-pass capacity")
    patch.add_argument("model")
    patch.add_argument("--grids", default="2x2,4x4,8x8",
                       help="comma-separated output tilings, e.g. '2x2,4x4'")
    patch.add_argument("--overlaps", default="0,1",
                       help="comma-separated overlaps (output rows/cols)")
    patch.add_argument("--budgets-gib", default="16,8,4",
                       help="comma-separated device memory budgets (GiB)")
    patch.add_argument("--target-factor", type=int, default=2,
                       help="input side = factor x the single-pass maximum "
                            "(area grows as factor^2; 2 -> the 4x-area "
                            "demonstration)")
    patch.add_argument("--identity-side", type=int, default=0,
                       help="also run the numeric byte-identity check at "
                            "this input side (0 = skip)")
    patch.add_argument("--compile", action="store_true",
                       help="compile per-tile graphs (fusion + constant "
                            "folding) before planning")

    compile_ = sub.add_parser(
        "compile",
        help="run the graph compiler; report per-pass rewrites")
    compile_.add_argument("model")
    compile_.add_argument("-b", "--batch", type=int, default=2)
    compile_.add_argument("--split", type=int, default=1,
                          help="total patches (1,2,3,4,6,9); 1 = unsplit")
    compile_.add_argument("--split-depth", type=float, default=0.5)
    compile_.add_argument("--train", action="store_true",
                          help="compile the training graph "
                               "(default: inference)")
    compile_.add_argument("--check", action="store_true",
                          help="execute compiled vs interpreted graphs "
                               "and require byte-identical outputs")

    lint = sub.add_parser(
        "lint",
        help="static analysis: graph lint (dead ops, inference purity, "
             "constants, dtype widths), race detector, determinism audit, "
             "lowering verifier")
    lint.add_argument("model", nargs="?", default=None,
                      help="zoo model (omit with --matrix to lint all)")
    lint.add_argument("-b", "--batch", type=int, default=16)
    lint.add_argument("--split", type=int, default=1,
                      help="total patches (1,2,3,4,6,9); 1 = unsplit")
    lint.add_argument("--split-depth", type=float, default=0.5)
    lint.add_argument("--workers", type=int, default=4,
                      help="happens-before model the concurrency pass "
                           "checks: >1 = DAG reachability (wavefront "
                           "executor), 1 = serialized order")
    lint.add_argument("--inference", action="store_true",
                      help="lint the inference graph (purity enforced)")
    lint.add_argument("--compile", action="store_true",
                      help="run the compile pipeline first (the lowered "
                           "tables are verified either way, SCA4xx)")
    lint.add_argument("--matrix", action="store_true",
                      help="lint the full zoo x split x compile x mode "
                           "matrix")
    lint.add_argument("--models", default=None,
                      help="comma-separated zoo subset for --matrix")
    lint.add_argument("--format", default="text", choices=["text", "json"],
                      help="report format")

    info = sub.add_parser("info", help="graph statistics for a model")
    info.add_argument("model")
    info.add_argument("-b", "--batch", type=int, default=64)

    export = sub.add_parser("export",
                            help="export a model's training graph as DOT")
    export.add_argument("model")
    export.add_argument("-b", "--batch", type=int, default=4)
    export.add_argument("-o", "--output", default="-",
                        help="output file ('-' for stdout)")
    export.add_argument("--max-ops", type=int, default=200)

    return parser


# ----------------------------------------------------------------------
# Command implementations (imports are local so `--help` stays instant).
# ----------------------------------------------------------------------
def _cmd_fig1(args) -> int:
    from .experiments import render_fig1, run_fig1
    print(render_fig1(run_fig1(batch_size=args.batch),
                      per_layer=args.per_layer))
    return 0


def _cmd_fig8(args) -> int:
    from .experiments import render_fig8, run_fig8
    print(render_fig8(run_fig8(batch_size=args.batch)))
    return 0


def _cmd_fig9(args) -> int:
    from .experiments import run_fig9_timelines
    for scheduler, timeline in run_fig9_timelines(
            batch_size=args.batch, width=args.width).items():
        print(f"--- {scheduler} ---")
        print(timeline)
        print()
    return 0


def _cmd_fig10(args) -> int:
    from .experiments import render_fig10, run_fig10
    print(render_fig10(run_fig10()))
    return 0


def _cmd_fig11(args) -> int:
    from .experiments import render_fig11, run_fig11
    result = run_fig11(devices=args.devices, topology=args.topology,
                       split_batch_factor=args.factor)
    print(render_fig11(result))
    try:
        result.check()
        result.assert_monotone()
    except AssertionError as error:
        print(f"analytical bracket : CHECK FAILED — {error}")
        return 1
    print("analytical bracket : holds at every bandwidth "
          "(measured curve monotone)")
    return 0


def _cmd_mesh_bench(args) -> int:
    from .analysis import detect_mesh_hazards
    from .mesh import (
        MeshPartitioner, MeshSimulator, build_mesh, run_spatial_numeric,
    )

    depth = args.split_depth if args.strategy == "spatial" else 0.0
    model = _build_named_model(args.model, args.split, depth)
    partitioner = MeshPartitioner(args.devices, topology=args.topology)
    if args.strategy == "data":
        mesh_plan = partitioner.data(model, args.batch)
    elif args.strategy == "spatial":
        try:
            mesh_plan = partitioner.spatial(model, args.batch)
        except ValueError as error:   # no split region to distribute
            raise _UsageError(str(error)) from None
    else:
        mesh_plan = partitioner.pipeline(model, args.batch)

    try:
        mesh_plan.verify()
        print("plan verification  : ok (all per-device plans)")
    except Exception as error:
        print(f"plan verification  : FAILED — {error}")
        return 1
    hazards = detect_mesh_hazards(mesh_plan)
    if hazards:
        print(f"cross-device pass  : {len(hazards)} hazard(s)")
        for finding in hazards:
            print(f"  {finding.code}: {finding.message}")
        return 1
    print("cross-device pass  : clean (SCA104, zero hazards)")

    mesh = build_mesh(args.devices, args.topology,
                      bandwidth_gbit=args.bandwidth)
    result = MeshSimulator(mesh, shuffle_seed=args.seed).run(mesh_plan)
    print(result.render())
    if args.strategy == "spatial":
        import numpy as np
        size = model.input_size
        rng = np.random.default_rng(0)
        x = rng.standard_normal((args.batch, 3, size, size))
        merged = run_spatial_numeric(mesh_plan, x)["logits"]
        print(f"merged logits      : shape {merged.shape} "
              f"(byte-identical to the single-device split graph)")
    return 0


def _build_named_model(name: str, split: int = 1, split_depth: float = 0.0):
    """:func:`repro.core.build_zoo_model`, a bad name or split count
    being the user's error."""
    from .core import build_zoo_model

    try:
        return build_zoo_model(name, split, split_depth)
    except ValueError as error:
        raise _UsageError(str(error)) from None


def _cmd_plan(args) -> int:
    from .graph import build_training_graph
    from .hmms import HMMSPlanner
    from .sim import GPUSimulator

    model = _build_named_model(args.model, args.splits, args.split_depth)
    graph = build_training_graph(model, args.batch)
    plan = HMMSPlanner(scheduler=args.scheduler).plan(graph)
    result = GPUSimulator().run(plan)
    gib = 1 << 30
    print(f"model            : {model.name}")
    print(f"scheduler        : {plan.scheduler}")
    print(f"offload fraction : {plan.offload_fraction_used:.2f}")
    print(f"device peak      : {plan.device_peak / gib:.2f} GiB "
          f"(general {plan.device_general_peak / gib:.2f} + "
          f"params {plan.device_param_bytes / gib:.2f})")
    print(f"host pinned pool : {plan.host_pool_bytes / gib:.2f} GiB")
    print(f"step time        : {result.total_time * 1e3:.1f} ms "
          f"({result.throughput(args.batch):.1f} images/s)")
    print(f"stall time       : {result.stall_time * 1e3:.1f} ms")
    return 0


def _cmd_verify_plan(args) -> int:
    from .graph import build_training_graph
    from .hmms import HMMSPlanner, verify_plan

    model = _build_named_model(args.model, args.splits, args.split_depth)
    graph = build_training_graph(model, args.batch)
    planner = HMMSPlanner(scheduler=args.scheduler,
                          grouped_sync=args.grouped_sync)
    plan = planner.plan(graph)
    capacity = int(args.capacity_gib * (1 << 30)) \
        if args.capacity_gib is not None else None
    report = verify_plan(plan, device=planner.device,
                         cost_model=planner.cost_model,
                         capacity=capacity,
                         strict_stalls=args.strict_stalls)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_serve_bench(args) -> int:
    from .serve import BenchConfig, ServingEngine, render_report, run_bench

    engine = ServingEngine(
        _build_named_model(args.model, args.split, args.split_depth),
        numeric=args.numeric, compile_plans=args.compile)
    largest = engine.max_batch
    if args.max_batch is not None and args.max_batch > largest:
        raise _UsageError(f"--max-batch {args.max_batch} exceeds "
                          f"{args.model}'s largest batch of {largest}")
    largest = args.max_batch or largest
    if args.request_size > largest:
        raise _UsageError(f"--request-size {args.request_size} exceeds the "
                          f"largest servable batch of {largest} images")
    config = BenchConfig(
        rps=args.rps,
        duration=args.duration,
        seed=args.seed,
        request_size=args.request_size,
        flush_timeout=args.flush_ms / 1e3,
        queue_depth=args.queue_depth,
        max_batch_images=args.max_batch,
        deadline=args.deadline_ms / 1e3 if args.deadline_ms is not None
        else None,
    )
    metrics = run_bench(engine, config)
    print(render_report(engine, config, metrics))
    # Cache-stats invariants: every miss is either resident or evicted,
    # and every executed batch went through exactly one cache lookup.
    cache = engine.cache
    stats_ok = (cache.misses == len(cache) + cache.evictions
                and cache.hits + cache.misses == engine.executed_batches)
    print(f"plan cache         : {cache.hits} hits / {cache.misses} misses "
          f"/ {cache.evictions} evictions / {len(cache)} resident "
          f"(fingerprint {engine.pipeline_fingerprint}) "
          f"[invariant {'ok' if stats_ok else 'VIOLATED'}]")
    if not stats_ok:
        return 1
    return 0 if metrics.completed_requests else 1


def _parse_tenant_spec(spec: str, index: int):
    """``model[/SPLIT[@DEPTH]]:slo:rps`` -> :class:`TenantConfig`; every
    bad field is a usage error."""
    from .models import MODEL_REGISTRY
    from .serve import SLO_CLASSES, TenantConfig

    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError(
            f"tenant spec {spec!r} must be 'model[/SPLIT[@DEPTH]]:slo:rps'")
    variant, slo_name, rps_text = parts
    split, split_depth = 1, 0.5
    model = variant
    if "/" in variant:
        model, split_text = variant.split("/", 1)
        if "@" in split_text:
            split_text, depth_text = split_text.split("@", 1)
            try:
                split_depth = float(depth_text)
            except ValueError:
                raise _UsageError(
                    f"tenant spec {spec!r}: bad split depth "
                    f"{depth_text!r}") from None
        try:
            split = int(split_text)
        except ValueError:
            raise _UsageError(
                f"tenant spec {spec!r}: bad split count "
                f"{split_text!r}") from None
    if model not in MODEL_REGISTRY:
        raise _UsageError(
            f"tenant spec {spec!r}: unknown model {model!r}; zoo: "
            f"{sorted(MODEL_REGISTRY)}")
    if slo_name not in SLO_CLASSES:
        raise _UsageError(
            f"tenant spec {spec!r}: slo must be one of "
            f"{sorted(SLO_CLASSES)}")
    try:
        rps = float(rps_text)
    except ValueError:
        raise _UsageError(
            f"tenant spec {spec!r}: bad rps {rps_text!r}") from None
    name = f"t{index}-{model}" + (f"-split{split}" if split > 1 else "")
    try:
        return TenantConfig(name=name, model=model, split=split,
                            split_depth=split_depth,
                            slo=SLO_CLASSES[slo_name], rps=rps)
    except ValueError as error:     # split count, depth or rps out of range
        raise _UsageError(f"tenant spec {spec!r}: {error}") from None


def _cmd_fleet_bench(args) -> int:
    from .serve import (
        FleetBenchConfig, SLO_CLASSES, TenantConfig, render_fleet_report,
        run_fleet_bench,
    )

    if args.tenants:
        tenants = [_parse_tenant_spec(spec, index)
                   for index, spec in enumerate(args.tenants)]
    else:
        tenants = [
            TenantConfig(name="vgg11-unsplit", model="vgg11",
                         slo=SLO_CLASSES["interactive"], rps=800),
            TenantConfig(name="vgg11-split4", model="vgg11", split=4,
                         slo=SLO_CLASSES["standard"], rps=800),
            TenantConfig(name="resnet18", model="resnet18",
                         slo=SLO_CLASSES["batch"], rps=400),
        ]
    for tenant in tenants:
        tenant.queue_depth = args.queue_depth

    def run(continuous: bool):
        config = FleetBenchConfig(
            tenants=tenants, duration=args.duration, seed=args.seed,
            continuous=continuous, autoscale=not args.no_autoscale,
            compile_plans=args.compile)
        fleet, metrics = run_fleet_bench(config)
        return config, fleet, metrics

    modes = {"continuous": [True], "flush": [False],
             "compare": [True, False]}[args.mode]
    results = {}
    for continuous in modes:
        config, fleet, metrics = run(continuous)
        results[continuous] = metrics
        print(render_fleet_report(fleet, config, metrics))
        print()
    if args.mode == "compare":
        print("continuous vs flush-only (same trace):")
        worse = 0
        for tenant in tenants:
            cont = results[True].tenant(tenant.name)
            flush = results[False].tenant(tenant.name)
            if not cont.latency.samples or not flush.latency.samples:
                print(f"  {tenant.name}: no completions to compare")
                worse += 1
                continue
            cp99, fp99 = cont.latency.p(99), flush.latency.p(99)
            print(f"  {tenant.name}: p99 {cp99 * 1e3:.2f} ms vs "
                  f"{fp99 * 1e3:.2f} ms "
                  f"({'better' if cp99 < fp99 else 'NOT better'})")
            if cp99 >= fp99:
                worse += 1
        if worse:
            return 1
    completed = sum(metrics.tenant(t.name).completed_requests
                    for metrics in results.values() for t in tenants)
    return 0 if completed else 1


def _cmd_compile(args) -> int:
    import numpy as np

    from .compile import compile_graph
    from .graph import (
        GraphExecutor, build_inference_graph, build_training_graph,
    )

    model = _build_named_model(args.model, args.split, args.split_depth)

    def build():
        if args.train:
            return build_training_graph(model, args.batch)
        return build_inference_graph(model, args.batch)

    graph = build()
    params = GraphExecutor.parameters_from_model(graph, model)
    report = compile_graph(graph, params)
    print(report.render())
    if not args.check:
        return 0

    reference = build()
    interpreter = GraphExecutor(
        reference, GraphExecutor.parameters_from_model(reference, model),
        dropout_seed=0)
    plan = GraphExecutor(graph, params, dropout_seed=0)
    rng = np.random.default_rng(0)
    input_shape = next(t for t in reference.tensors.values()
                       if t.kind == "input").shape
    x = rng.standard_normal(input_shape).astype(plan.width, copy=False)
    targets = None
    if args.train:
        logits = next(t for t in reference.tensors.values()
                      if t.name == "softmax")
        targets = rng.integers(0, logits.shape[-1], size=args.batch)
    expected = interpreter.run(x, targets)
    actual = plan.run(x, targets)
    identical = set(expected) == set(actual) and all(
        expected[key].tobytes() == actual[key].tobytes()
        for key in expected)
    print(f"byte-identity check: "
          f"{'identical' if identical else 'MISMATCH'} "
          f"({len(expected)} outputs)")
    return 0 if identical else 1


def _lint_build(model, batch: int, inference: bool, compiled: bool,
                workers: int):
    """(graph, executor) for one lint configuration; the executor's
    lowered tables go to the SCA4xx verifier."""
    from .compile import compile_graph
    from .graph import (
        GraphExecutor, build_inference_graph, build_training_graph,
    )

    if inference:
        graph = build_inference_graph(model, batch)
    else:
        graph = build_training_graph(model, batch)
    params = GraphExecutor.parameters_from_model(graph, model)
    if compiled:
        compile_graph(graph, params)
    return graph, GraphExecutor(graph, params, dropout_seed=0,
                                workers=workers)


def _lint_matrix(args) -> int:
    """zoo x {split, unsplit} x {interpreted, compiled} x {train, infer}."""
    from .analysis import analyze_graph
    from .models import MODEL_REGISTRY

    names = sorted(MODEL_REGISTRY)
    if args.models is not None:
        names = [n.strip() for n in args.models.split(",") if n.strip()]
        if not names:
            raise _UsageError("--models names no model")
        unknown = [n for n in names if n not in MODEL_REGISTRY]
        if unknown:
            raise _UsageError(
                f"unknown model(s) {unknown}; zoo: "
                f"{sorted(MODEL_REGISTRY)}")
    splits = (1, args.split) if args.split > 1 else (1, 4)
    # Every model is built before the first line prints, so a bad
    # --split or --split-depth never follows partial results.
    models = [(name, split, _build_named_model(name, split,
                                               args.split_depth))
              for name in names for split in splits]
    failures = []
    for name, split, model in models:
        for compiled in (False, True):
            for inference in (False, True):
                graph, plan = _lint_build(
                    model, args.batch, inference, compiled, args.workers)
                report = analyze_graph(
                    graph, workers=args.workers, inference=inference,
                    plan=plan)
                label = (f"{name} split={split} "
                         f"{'compiled' if compiled else 'interpreted'}"
                         f" {'infer' if inference else 'train'}")
                if report.findings:
                    status = (f"{len(report.errors)} errors, "
                              f"{len(report.warnings)} warnings")
                else:
                    status = "clean"
                print(f"  {label:<46} {status}")
                if not report.ok:
                    failures.append(label)
                    for finding in report.findings:
                        print(f"    {finding}")
    print(f"{4 * len(models)} configurations linted: "
          f"{len(failures)} failing")
    return 1 if failures else 0


def _cmd_lint(args) -> int:
    from .analysis import analyze_graph

    if args.matrix:
        if args.model is not None:
            raise _UsageError(
                "--matrix lints the whole zoo; drop the model argument")
        if args.format != "text":
            raise _UsageError("--matrix reports as text only")
        return _lint_matrix(args)
    if args.model is None:
        raise _UsageError("a model is required unless --matrix is given")
    if args.models is not None:
        raise _UsageError("--models picks the --matrix models; drop it or "
                          "give --matrix instead of a model")

    model = _build_named_model(args.model, args.split, args.split_depth)
    graph, plan = _lint_build(model, args.batch, args.inference,
                              args.compile, args.workers)
    report = analyze_graph(graph, workers=args.workers,
                           inference=args.inference, plan=plan)
    print(report.to_json() if args.format == "json" else report.render())
    return 0 if report.ok else 1


def _cmd_info(args) -> int:
    from .graph import build_training_graph
    from .graph.export import graph_stats

    model = _build_named_model(args.model)
    stats = graph_stats(build_training_graph(model, args.batch))
    gib = 1 << 30
    print(f"model               : {model.name} (batch {args.batch})")
    print(f"ops                 : {stats.num_ops} "
          f"({stats.num_forward_ops} fwd / {stats.num_backward_ops} bwd)")
    print(f"tensors             : {stats.num_tensors}")
    print(f"memory-bound ops    : {stats.memory_bound_fraction:.0%}")
    print(f"parameters          : {stats.parameter_bytes / gib:.2f} GiB")
    print(f"saved for backward  : {stats.saved_bytes / gib:.2f} GiB")
    print(f"widest tensor       : {stats.widest_tensor_name} "
          f"({stats.widest_tensor_bytes / gib:.2f} GiB)")
    print(f"critical path       : {stats.critical_path_length} ops")
    print("op histogram        : " + ", ".join(
        f"{op_type} x{count}" for op_type, count in
        stats.op_type_histogram[:8]))
    return 0


def _cmd_export(args) -> int:
    from .graph import build_training_graph
    from .graph.export import to_dot

    model = _build_named_model(args.model)
    dot = to_dot(build_training_graph(model, args.batch),
                 max_ops=args.max_ops)
    if args.output == "-":
        print(dot)
    else:
        try:
            with open(args.output, "w") as handle:
                handle.write(dot + "\n")
        except OSError as error:
            raise _UsageError(
                f"--output {args.output!r}: {error.strerror}") from None
        print(f"wrote {args.output}")
    return 0


def _parse_grid(text: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise _UsageError(f"grid {text!r} must look like '4x4'")
    try:
        grid = (int(parts[0]), int(parts[1]))
    except ValueError:
        raise _UsageError(f"grid {text!r} must look like '4x4'") from None
    if grid[0] < 1 or grid[1] < 1:
        raise _UsageError(f"grid {text!r} must be >= 1 per axis")
    return grid


def _parse_list(flag: str, text: str, convert) -> list:
    try:
        items = [convert(item) for item in text.split(",") if item]
    except ValueError:
        raise _UsageError(f"{flag} {text!r} must be comma-separated "
                          f"{convert.__name__}s") from None
    if not items:
        raise _UsageError(f"{flag} {text!r} names no value")
    return items


def _cmd_patch_bench(args) -> int:
    """Sweep grid x overlap x memory budget for one dense model.

    The headline demonstration: find the largest input side the modelled
    device serves in a single unsplit pass, then serve an input
    ``--target-factor`` times that side (>= 4x the area at the default
    factor 2) under each bounded budget via streamed patch plans.

    ``REPRO_SMOKE=1`` truncates everything — first grid, first overlap,
    one small budget — so CI exercises the full code path in seconds.
    """
    import os

    from .infer import GridSplitter, PatchInferer
    from .profile.device import P100_NVLINK

    gib = 1 << 30
    smoke = bool(os.environ.get("REPRO_SMOKE"))
    device = P100_NVLINK
    model = _build_named_model(args.model)
    model.eval()
    grids = _parse_list("--grids", args.grids, _parse_grid)
    overlaps = _parse_list("--overlaps", args.overlaps, int)
    if any(overlap < 0 for overlap in overlaps):
        raise _UsageError(f"--overlaps {args.overlaps!r} must be >= 0")
    budgets_gib = _parse_list("--budgets-gib", args.budgets_gib, float)
    if not all(0 < b < float("inf") for b in budgets_gib):
        raise _UsageError(
            f"--budgets-gib {args.budgets_gib!r} must be positive and finite")
    budgets = [int(b * gib) for b in budgets_gib]
    identity_side = args.identity_side
    if smoke:
        grids = grids[:1]
        overlaps = overlaps[:1]
        budgets = [min(device.memory_capacity, gib // 4)]
    baseline_budget = budgets[0] if smoke else device.memory_capacity

    try:
        inferer = PatchInferer(model, device=device, numeric=False,
                               compile_plans=args.compile)
    except TypeError as error:
        raise _UsageError(str(error)) from None
    if identity_side:
        # The identity check's reference is the unsplit pass: a side too
        # small for the body's windows fails here, before the sweep
        # prints a line.  A one-tile plan walks exactly those shapes.
        try:
            GridSplitter((1, 1)).plan(model, (identity_side, identity_side))
        except ValueError as error:
            raise _UsageError(
                f"--identity-side {identity_side}: {error}") from None
    single = inferer.max_single_pass_side(budget=baseline_budget)
    single_peak = inferer.unsplit_entry((single, single), 1).plan.device_peak
    side = args.target_factor * single
    unsplit_peak = inferer.unsplit_entry((side, side), 1).plan.device_peak
    factor_area = (side * side) / (single * single)
    print(f"model            : {model.name}"
          f"{' (compiled)' if args.compile else ''}")
    print(f"device           : {device.name} "
          f"({device.memory_capacity / gib:.2f} GiB"
          f"{', smoke budget %.2f GiB' % (baseline_budget / gib) if smoke else ''})")
    print(f"single-pass max  : side {single} "
          f"(peak {single_peak / gib:.3f} GiB <= "
          f"{baseline_budget / gib:.2f} GiB)")
    print(f"target input     : side {side} = {factor_area:.1f}x the "
          f"single-pass area; unsplit peak {unsplit_peak / gib:.3f} GiB "
          f"({'does not fit' if unsplit_peak > baseline_budget else 'fits'})")

    served_target = False
    for budget in budgets:
        # One inferer serves every budget: the budget picks the join
        # depth and the patch batch, and a variant's cache key carries
        # both (its paddings are its depth), so plans of one budget are
        # never served to another and the sweep shares one plan cache.
        inferer.memory_budget = budget
        for grid in grids:
            for overlap in overlaps:
                try:
                    report = inferer.plan_dense((side, side), grid, overlap)
                except ValueError as error:
                    print(f"patch-bench model={model.name} input={side} "
                          f"grid={grid[0]}x{grid[1]} overlap={overlap} "
                          f"budget_gib={budget / gib:.2f} UNSERVABLE "
                          f"({error})")
                    continue
                served_target = served_target \
                    or budget <= baseline_budget
                print(f"patch-bench model={model.name} input={side} "
                      f"grid={grid[0]}x{grid[1]} overlap={overlap} "
                      f"budget_gib={budget / gib:.2f} "
                      f"patches={report.patches} "
                      f"variants={report.variants} "
                      f"patch_batch={report.patch_batch} "
                      f"join_depth={report.join_depth} "
                      f"executions={report.executions} "
                      f"peak_gib={report.peak_bytes / gib:.3f} "
                      f"latency_ms={report.latency * 1e3:.2f}")
    if served_target:
        print(f"demonstration    : input {side}x{side} "
              f"({factor_area:.1f}x the largest single-pass area) served "
              f"under a bounded plan; unsplit it needs "
              f"{unsplit_peak / gib:.3f} GiB")

    if identity_side:
        import numpy as np

        numeric = PatchInferer(model, device=device,
                               compile_plans=args.compile)
        rng = np.random.default_rng(0)
        image = rng.standard_normal(
            (1, numeric.in_channels, identity_side, identity_side))
        reference = numeric.run_unsplit(image)
        checked = []
        for grid, overlap in [((2, 2), 0), ((2, 2), 1)]:
            merged = numeric.infer(image, grid=grid, overlap=overlap,
                                   merge="valid")
            if merged.tobytes() != reference.tobytes():
                print(f"identity         : FAILED at side {identity_side} "
                      f"grid {grid[0]}x{grid[1]} overlap {overlap}")
                return 1
            checked.append(f"{grid[0]}x{grid[1]}/ov{overlap}")
        print(f"identity         : ok — merged output byte-identical to "
              f"the unsplit pass at side {identity_side} "
              f"({', '.join(checked)})")

    cache = inferer.cache
    stats_ok = cache.misses == len(cache) + cache.evictions
    print(f"plan cache       : {cache.hits} hits / {cache.misses} misses "
          f"/ {cache.evictions} evictions / {len(cache)} resident "
          f"[invariant {'ok' if stats_ok else 'VIOLATED'}]")
    if not stats_ok:
        return 1
    return 0 if served_target else 1


_COMMANDS = {
    "fig1": _cmd_fig1,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "mesh-bench": _cmd_mesh_bench,
    "plan": _cmd_plan,
    "verify-plan": _cmd_verify_plan,
    "serve-bench": _cmd_serve_bench,
    "fleet-bench": _cmd_fleet_bench,
    "patch-bench": _cmd_patch_bench,
    "compile": _cmd_compile,
    "lint": _cmd_lint,
    "info": _cmd_info,
    "export": _cmd_export,
}


#: Numeric options that must be positive on every command defining them ...
_POSITIVE = ("batch", "width", "factor", "devices", "bandwidth", "rps",
             "duration", "queue_depth", "request_size", "max_batch",
             "target_factor", "workers", "capacity_gib", "deadline_ms")
#: ... and those that may be zero but not negative.  Every one is finite.
_NON_NEGATIVE = ("flush_ms", "identity_side", "max_ops", "seed")


def _check_ranges(args) -> None:
    """Reject out-of-range numbers before any command runs."""
    for dest in _POSITIVE + _NON_NEGATIVE:
        value = getattr(args, dest, None)
        flag = "--" + dest.replace("_", "-")
        if value is None:
            continue
        if not math.isfinite(value):
            raise _UsageError(f"{flag} must be finite, got {value}")
        if dest in _POSITIVE and not value > 0:
            raise _UsageError(f"{flag} must be positive, got {value}")
        if dest in _NON_NEGATIVE and not value >= 0:
            raise _UsageError(f"{flag} must be >= 0, got {value}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        return _COMMANDS[args.command](args)
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0                      # downstream pager/head closed the pipe
    except Exception:
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
