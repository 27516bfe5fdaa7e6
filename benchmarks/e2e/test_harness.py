"""Checks on the benchmark itself (not tier-1: ``testpaths`` is ``tests``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

Two smoke sets (3 ops per window, both passes, all five workloads) take
about a minute and a half together.
"""

import copy
import json
import re
import sys
import time

import pytest

import run

if str(run.ROOT / "src") not in sys.path:
    sys.path.insert(0, str(run.ROOT / "src"))

import harness  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Per-layer metrics that are counts or simulated-clock values: they must
#: repeat exactly from one run to the next at one seed.
EXACT_UNITS = ("count", "sim_ms", "MiB")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def smoke_sets():
    return [run.run_set(seed=0, seconds=0.0, smoke=True) for _ in range(2)]


def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert set(run.DETERMINISTIC) <= set(names)


def test_every_workload_reports_every_metric_and_passes(spec, smoke_sets):
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for result in smoke_sets:
        assert set(result["workloads"]) == set(run.WORKLOADS)
        for name, entry in result["workloads"].items():
            assert set(entry["e2e"]) == e2e, name
            assert all(value > 0 for value in entry["e2e"].values()), name
            assert set(entry["layers"]) <= layers, name
            assert entry["ops_failed"] == 0, name
            # smoke: plain window + the traced child's two windows
            assert entry["ops_attempted"] == 3 * run.SMOKE_OPS, name
    reported = set().union(*(entry["layers"] for entry in
                             smoke_sets[0]["workloads"].values()))
    assert reported == layers, "a declared per-layer metric is never measured"


def test_simulated_and_count_metrics_repeat_exactly(spec, smoke_sets):
    first, second = smoke_sets
    exact = {m["name"] for m in spec["per_layer"]
             if m["unit"] in EXACT_UNITS}
    for name in run.WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        for metric in run.DETERMINISTIC:
            assert a["e2e"][metric] == b["e2e"][metric], (name, metric)
        for metric in exact & set(a["layers"]):
            assert a["layers"][metric] == b["layers"][metric], (name, metric)
    rows = run.compare(first, second, spec)
    assert not [r for r in rows if r["metric"] in run.DETERMINISTIC
                and r["status"] != "ok"]


def test_layer_accounting_closes(smoke_sets):
    layers = {name: entry["layers"]
              for name, entry in smoke_sets[0]["workloads"].items()}
    interp, plan = layers["train_interp"], layers["train_compiled"]
    assert interp["graph.executor.kernel_ms"] \
        + interp["graph.executor.overhead_ms"] \
        == pytest.approx(interp["graph.executor.step_ms"])
    assert plan["compile.plan.kernel_ms"] + plan["compile.plan.overhead_ms"] \
        == pytest.approx(plan["compile.plan.step_ms"])
    for name in ("plan_sim", "fleet_serve"):
        assert layers[name]["bench.span_coverage_ratio"] >= 0.9, name
    for name in run.WORKLOADS:
        assert "bench.trace_overhead_ratio" in layers[name]


def test_mutated_reference_fails_ops_and_the_gate(monkeypatch, tmp_path,
                                                  spec, smoke_sets):
    from workloads.train import TrainCompiled
    genuine = TrainCompiled.reference
    monkeypatch.setattr(TrainCompiled, "reference",
                        lambda self: (genuine(self)[0], "0" * 32))
    record = harness.run_child(
        TrainCompiled, seed=0, seconds=0.0, trace=False,
        spawned_at=time.time(), max_ops=run.SMOKE_OPS,
        trace_path=None)
    assert record["failed"] >= 1        # op 0 carries a full digest

    base = smoke_sets[0]
    change = copy.deepcopy(base)
    change["workloads"]["train_compiled"]["ops_failed"] = record["failed"]
    assert run.failed_ops(change) > 0   # `run`/`repeat` would exit 1
    paths = []
    for label, result in (("base", base), ("change", change)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(result))
    assert run.compare_main([str(paths[0]), str(paths[0])]) == 0
    assert run.compare_main([str(paths[0]), str(paths[1])]) == 1
    gate = [r for r in run.compare(base, change, spec)
            if r["status"] == "REGRESSED"]
    assert [(r["workload"], r["metric"]) for r in gate] \
        == [("train_compiled", "fail_ratio")]
