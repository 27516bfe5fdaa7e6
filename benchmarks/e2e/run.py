"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

Driver contract (one workload, one pass; last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Developer commands::

    python benchmarks/e2e/run.py run [--seed N] [--seconds S] [--smoke]
    python benchmarks/e2e/run.py repeat N [--seed N] [--seconds S] [--smoke]
    python benchmarks/e2e/run.py compare A.json B.json

``BENCHMARK.json`` at the repo root is the single declaration of the
workloads and of every metric's unit, direction and bound; this file and
``README.md`` explain them.  Each workload runs in fresh child processes
of this script (``run.py child ...``) with ``src/`` on ``PYTHONPATH`` and
the BLAS pool pinned to ``min(2, nproc)`` threads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

WORKLOADS = {
    "train_interp": "workloads.train:TrainInterp",
    "train_compiled": "workloads.train:TrainCompiled",
    "patch_infer": "workloads.patch_infer:PatchInfer",
    "plan_sim": "workloads.plan_sim:PlanSim",
    "fleet_serve": "workloads.fleet_serve:FleetServe",
}
#: Fresh processes per untraced measurement, each given an equal share of
#: the window.  ``setup_s`` is the median of their set-up times and the op
#: samples are pooled: a process keeps one speed for its whole life (page
#: placement, which core it woke on), and pooling three draws of that
#: halves the run-to-run spread of a pure-Python workload.
PROCESSES = 3
SMOKE_OPS = 3
#: The driver allows one pass 180 s; all children of a pass share this.
PASS_TIMEOUT_S = 170
BLAS_THREADS = min(2, os.cpu_count() or 1)
#: Simulated-clock and planned-memory metrics repeat exactly at one seed.
DETERMINISTIC = ("sim_img_per_s", "sim_peak_mib")


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py child")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args(argv)

    from harness import run_child
    module, _, cls = WORKLOADS[args.workload].partition(":")
    workload_cls = getattr(importlib.import_module(module), cls)
    record = run_child(
        workload_cls, args.seed, args.seconds, bool(args.trace),
        args.spawned_at, args.ops,
        str(OUT_DIR / f"trace_{args.workload}.json"))
    print(json.dumps(record))
    return 0


def spawn_child(workload: str, seed: int, seconds: float, trace: bool,
                ops: Optional[int], deadline: float) -> Dict[str, Any]:
    env = dict(os.environ)
    # Str hashes, and with them set order and dict collisions, would
    # otherwise differ from one child to the next.
    env["PYTHONHASHSEED"] = "0"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + inherited if inherited else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    command = [sys.executable, str(HERE / "run.py"), "child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--spawned-at", repr(time.time())]
    if ops is not None:
        command += ["--ops", str(ops)]
    # run() waits for the child and kills it on a timeout.
    done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: child process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            ops: Optional[int] = None) -> Dict[str, Any]:
    """One pass of one workload.

    Untraced: ``PROCESSES`` children share the window (a smoke run, which
    fixes ``ops``, uses one) and are pooled into the end-to-end metrics.
    Traced: one child, whose record carries the per-layer metrics.
    """
    deadline = time.monotonic() + PASS_TIMEOUT_S
    if trace:
        return spawn_child(workload, seed, seconds, True, ops, deadline)
    processes = 1 if ops else PROCESSES
    children = [spawn_child(workload, seed, seconds / processes, False, ops,
                            deadline)
                for _ in range(processes)]
    op_ms = [sample for child in children for sample in child["op_ms"]]
    first = children[0]
    return {
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "e2e": {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "op_ms_p50": statistics.median(op_ms),
            "ops_per_s": len(op_ms) / sum(c["wall_s"] for c in children),
            "peak_rss_mib": max(c["peak_rss_mib"] for c in children),
            "sim_img_per_s": first["sim_img_per_s"],
            "sim_peak_mib": first["sim_peak_mib"],
        },
    }


# ----------------------------------------------------------------------
# Driver contract: one workload, one pass, one JSON line
# ----------------------------------------------------------------------
def contract_metrics(record: Dict[str, Any], spec: Dict[str, Any],
                     trace: bool) -> Dict[str, Dict[str, Any]]:
    """Every declared metric of the pass, with its unit.  A layer the
    workload never enters reports 0 (no calls, no time)."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = record["layers"] if trace else record["e2e"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: "
                         f"{sorted(unknown)}")
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in declared}


def contract_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    spec = load_spec()
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    metrics = contract_metrics(record, spec, bool(args.trace))
    print(f"{args.workload}  seed {args.seed}  blas_threads {BLAS_THREADS}  "
          f"ops attempted {record['attempted']}  failed {record['failed']}  "
          f"fail_ratio {record['failed'] / record['attempted']:g}")
    for name, metric in metrics.items():
        print(f"  {name:<42s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": metrics}))
    return 0 if record["failed"] == 0 else 1


# ----------------------------------------------------------------------
# run / repeat: the whole set, both passes
# ----------------------------------------------------------------------
def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              text=True, capture_output=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_set(seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    ops = SMOKE_OPS if smoke else None
    result: Dict[str, Any] = {
        "commit": git_commit(), "seed": seed, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "workloads": {}}
    for workload in WORKLOADS:
        plain = measure(workload, seed, seconds, False, ops)
        traced = measure(workload, seed, seconds, True, ops)
        result["workloads"][workload] = {
            "e2e": plain["e2e"], "layers": traced["layers"],
            "ops_attempted": plain["attempted"] + traced["attempted"],
            "ops_failed": plain["failed"] + traced["failed"]}
    return result


def print_set(result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"commit {result['commit']}  seed {result['seed']}  "
          f"nproc {result['nproc']}  blas_threads {result['blas_threads']}")
    for name, entry in result["workloads"].items():
        ratio = entry["ops_failed"] / entry["ops_attempted"]
        print(f"\n== {name}: ops_attempted {entry['ops_attempted']}  "
              f"ops_failed {entry['ops_failed']}  fail_ratio {ratio:g}")
        for metric, value in entry["e2e"].items():
            print(f"  {metric:<42s} {value:>16.6f} {units[metric]}")
        for metric, value in sorted(entry["layers"].items()):
            print(f"    {metric:<40s} {value:>16.6f} {units[metric]}")


def failed_ops(result: Dict[str, Any]) -> int:
    return sum(w["ops_failed"] for w in result["workloads"].values())


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (the driver's)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def merge_runs(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians of N sets, each end-to-end metric's runs kept beside it."""
    merged = dict(runs[0], workloads={})
    for name in runs[0]["workloads"]:
        entries = [run["workloads"][name] for run in runs]
        e2e_runs = {metric: [e["e2e"][metric] for e in entries]
                    for metric in entries[0]["e2e"]}
        merged["workloads"][name] = {
            "e2e": {m: statistics.median(v) for m, v in e2e_runs.items()},
            "e2e_runs": e2e_runs,
            "layers": entries[-1]["layers"],
            "ops_attempted": sum(e["ops_attempted"] for e in entries),
            "ops_failed": sum(e["ops_failed"] for e in entries)}
    return merged


def run_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py run|repeat")
    parser.add_argument("command", choices=("run", "repeat"))
    parser.add_argument("times", type=int, nargs="?", default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_OPS} ops per window instead of a "
                             "time box")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    runs = [run_set(args.seed, seconds, args.smoke)
            for _ in range(args.times)]
    result = runs[0] if args.command == "run" else merge_runs(runs)
    print_set(result, spec)
    if args.command == "repeat":
        print(f"\n{'workload':<15s} {'metric':<14s} {'min':>12s} "
              f"{'median':>12s} {'max':>12s} {'spread':>8s}")
        for name, entry in result["workloads"].items():
            for metric, values in entry["e2e_runs"].items():
                print(f"{name:<15s} {metric:<14s} {min(values):>12.4f} "
                      f"{statistics.median(values):>12.4f} "
                      f"{max(values):>12.4f} {spread(values):>8.4f}")
    out = Path(args.out) if args.out else OUT_DIR / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    return 0 if failed_ops(result) == 0 else 1


# ----------------------------------------------------------------------
# compare: the regression gate
# ----------------------------------------------------------------------
def compare(base: Dict[str, Any], change: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric), plus ``fail_ratio``.

    ``worse`` is the share of the base by which the change is worse.  A
    row is ``REGRESSED`` beyond the metric's bound (a deterministic
    metric: on any worsening at equal seeds), ``unresolved`` when either
    input's own repeat spread exceeds the bound — unless every run of the
    change reads better than every run of the base — and ``moved`` when a
    deterministic metric changed for the better, which a planner change
    must call out and a simulator-speed change must not cause.
    """
    same_seed = base["seed"] == change["seed"]
    rows = []
    for name, before in base["workloads"].items():
        after = change["workloads"][name]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = before["e2e"][key], after["e2e"][key]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b - a) / a
            runs_a = before.get("e2e_runs", {}).get(key, [a])
            runs_b = after.get("e2e_runs", {}).get(key, [b])
            noise = max(spread(runs_a), spread(runs_b))
            all_better = max(sign * v for v in runs_b) \
                < min(sign * v for v in runs_a)
            if key in DETERMINISTIC and same_seed:
                status = "ok" if a == b else \
                    "REGRESSED" if worse > 0 else "moved"
            elif noise > bound and not all_better:
                status = "unresolved"
            else:
                status = "REGRESSED" if worse > bound else "ok"
            rows.append({"workload": name, "metric": key, "base": a,
                         "change": b, "ratio": b / a, "worse": worse,
                         "bound": bound, "spread": noise, "status": status})
        a = before["ops_failed"] / before["ops_attempted"]
        b = after["ops_failed"] / after["ops_attempted"]
        rows.append({"workload": name, "metric": "fail_ratio", "base": a,
                     "change": b, "ratio": float("nan"), "worse": b - a,
                     "bound": 0.0, "spread": 0.0,
                     "status": "REGRESSED" if b > a else "ok"})
    return rows


def compare_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    rows = compare(base, change, load_spec())
    print(f"base   {args.base} (commit {base['commit']}, seed {base['seed']})")
    print(f"change {args.change} (commit {change['commit']}, "
          f"seed {change['seed']})")
    print(f"{'workload':<15s} {'metric':<14s} {'base':>14s} {'change':>14s} "
          f"{'change/base':>11s} {'bound':>7s} {'spread':>7s}  status")
    for row in rows:
        print(f"{row['workload']:<15s} {row['metric']:<14s} "
              f"{row['base']:>14.4f} {row['change']:>14.4f} "
              f"{row['ratio']:>11.4f} {row['bound']:>7.3f} "
              f"{row['spread']:>7.3f}  {row['status']}")
    regressed = [r for r in rows if r["status"] == "REGRESSED"]
    print(f"{len(regressed)} regressed, "
          f"{sum(r['status'] == 'unresolved' for r in rows)} unresolved, "
          f"{len(rows)} rows")
    return 1 if regressed else 0


def main(argv: Sequence[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"run.py: no src/repro or BENCHMARK.json under {ROOT}: the "
              "benchmark runs from a checkout of the repository",
              file=sys.stderr)
        return 2
    if argv and argv[0] == "child":
        return child_main(argv[1:])
    if argv and argv[0] in ("run", "repeat"):
        return run_main(argv)
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    return contract_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
