"""Tests for the command-line interface.

Exit codes are part of the contract: 0 = clean, 1 = the command ran and
found problems, 2 = usage or internal error (matching argparse).
"""

import json

import pytest

from repro.analysis import AnalysisReport, Diagnostic
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig1_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.batch == 64 and not args.per_layer

    def test_plan_options(self):
        args = build_parser().parse_args(
            ["plan", "vgg19", "-b", "32", "--scheduler", "layerwise",
             "--split-depth", "0.5", "--splits", "9"])
        assert args.model == "vgg19"
        assert args.batch == 32
        assert args.scheduler == "layerwise"
        assert args.splits == 9

    def test_serve_bench_options(self):
        args = build_parser().parse_args(
            ["serve-bench", "vgg11", "--rps", "250", "--duration", "2",
             "--split", "4", "--flush-ms", "2.5", "--deadline-ms", "40"])
        assert args.model == "vgg11"
        assert args.rps == 250.0 and args.duration == 2.0
        assert args.split == 4
        assert args.flush_ms == 2.5 and args.deadline_ms == 40.0

    def test_accuracy_choices(self):
        args = build_parser().parse_args(["accuracy", "depth", "--quick"])
        assert args.experiment == "depth" and args.quick
        with pytest.raises(SystemExit):
            build_parser().parse_args(["accuracy", "bogus"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "small_vgg", "-b", "4"]) == 0
        out = capsys.readouterr().out
        assert "memory-bound ops" in out
        assert "critical path" in out

    def test_plan_none_scheduler(self, capsys):
        assert main(["plan", "small_vgg", "-b", "4",
                     "--scheduler", "none"]) == 0
        out = capsys.readouterr().out
        assert "offload fraction : 0.00" in out
        assert "step time" in out

    def test_plan_with_split(self, capsys):
        assert main(["plan", "small_resnet", "-b", "4",
                     "--split-depth", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "split" in out

    def test_plan_invalid_splits_exits_two(self, capsys):
        assert main(["plan", "small_vgg", "-b", "4",
                     "--split-depth", "0.5", "--splits", "5"]) == 2
        assert "split must be one of" in capsys.readouterr().err

    def test_fig1_small_batch(self, capsys):
        assert main(["fig1", "-b", "8"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_fig11(self, capsys):
        assert main(["fig11", "--factor", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "analytical" in out and "measured" in out
        assert "analytical bracket : holds" in out

    @pytest.mark.parametrize("argv,flag", [
        (["fig11", "--devices", "0"], "--devices"),
        (["fig11", "--factor", "0"], "--factor"),
        (["mesh-bench", "small_vgg", "--devices", "0"], "--devices"),
        (["mesh-bench", "small_vgg", "--bandwidth", "0"], "--bandwidth"),
        (["mesh-bench", "small_vgg", "-b", "0"], "--batch"),
        (["mesh-bench", "small_vgg", "--strategy", "spatial",
          "--split", "1"], "SplitRegion"),
    ])
    def test_mesh_usage_errors_exit_two(self, capsys, argv, flag):
        # 92fcb94: a traceback + "internal error" (or, for -b 0, a plan
        # verifier FAIL on a batch-0 graph).
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and flag in line

    @pytest.mark.parametrize("argv,flag", [
        (["serve-bench", "small_vgg", "--rps", "0"], "--rps"),
        (["serve-bench", "small_vgg", "--queue-depth", "0"], "--queue-depth"),
        (["serve-bench", "small_vgg", "--request-size", "0"],
         "--request-size"),
        (["fleet-bench", "--duration", "0"], "--duration"),
        (["patch-bench", "small_vgg", "--overlaps", "x"], "--overlaps"),
        (["patch-bench", "small_vgg", "--target-factor", "0"],
         "--target-factor"),
        (["lint", "small_vgg", "--workers", "0"], "--workers"),
        (["fig9", "--width", "0"], "--width"),
        (["export", "small_vgg", "--max-ops", "-1"], "--max-ops"),
        (["verify-plan", "small_vgg", "--capacity-gib", "0"],
         "--capacity-gib"),
        (["verify-plan", "small_vgg", "--capacity-gib", "-1"],
         "--capacity-gib"),
        (["serve-bench", "small_vgg", "--split", "5"], "split must be"),
        (["serve-bench", "small_vgg", "--split-depth", "3"],
         "split depth must be"),
        (["lint", "small_vgg", "--split", "5"], "split must be"),
        (["lint", "small_vgg", "--split-depth", "2"], "split depth must be"),
        (["patch-bench", "small_vgg", "--overlaps", "-1"], "--overlaps"),
        (["patch-bench", "small_vgg", "--budgets-gib", "0"], "--budgets-gib"),
        (["patch-bench", "small_vgg", "--budgets-gib", "-1"],
         "--budgets-gib"),
        (["serve-bench", "small_vgg", "--rps", "inf"], "--rps"),
        (["serve-bench", "small_vgg", "--duration", "inf"], "--duration"),
        (["fleet-bench", "--duration", "inf"], "--duration"),
        (["verify-plan", "small_vgg", "--capacity-gib", "inf"],
         "--capacity-gib"),
        (["serve-bench", "small_vgg", "--flush-ms", "inf"], "--flush-ms"),
        (["serve-bench", "small_vgg", "--seed", "-1"], "--seed"),
        (["fleet-bench", "--seed", "-1"], "--seed"),
        (["serve-bench", "small_vgg", "--deadline-ms", "-1"],
         "--deadline-ms"),
        (["serve-bench", "small_vgg", "--deadline-ms", "0"], "--deadline-ms"),
        (["patch-bench", "small_vgg", "--grids", ","], "--grids"),
        (["patch-bench", "small_vgg", "--overlaps", ","], "--overlaps"),
        (["patch-bench", "small_vgg", "--budgets-gib", ","], "--budgets-gib"),
    ])
    def test_bad_numbers_exit_two(self, capsys, argv, flag):
        # Each used to print a traceback and "internal error" (fig9 an
        # IndexError); a negative --max-ops drew a truncated graph, a
        # non-positive --capacity-gib reported a plan FAIL, and a negative
        # --overlaps or a non-positive --budgets-gib planned the sweep and
        # reported each point UNSERVABLE.  An infinite --rps or --duration
        # never ended the arrival loop, an infinite --flush-ms served
        # nothing, a negative --seed was a numpy traceback, a deadline
        # <= 0 expired every request, and an empty list swept nothing.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and flag in line

    @pytest.mark.parametrize("spec,message", [
        ("small_vgg:interactive:inf", "rps must be positive and finite"),
        ("small_vgg:interactive:nan", "rps must be positive and finite"),
        ("nosuch:interactive:100", "unknown model 'nosuch'"),
        ("small_vgg/0:interactive:100", "split must be one of"),
        ("small_vgg/4@nan:interactive:100", "split_depth must be in [0, 1]"),
    ])
    def test_bad_tenant_spec_exits_two(self, capsys, spec, message):
        # inf hung the trace generator; the others printed a traceback
        # and "internal error", and @nan served an unsplit model.
        assert main(["fleet-bench", "--tenant", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("argv", [
        ["fig1"], ["fig8"], ["fig9"], ["plan", "small_vgg"],
        ["verify-plan", "small_vgg"], ["info", "small_vgg"],
        ["export", "small_vgg"], ["compile", "small_vgg"],
        ["lint", "small_vgg"],
    ])
    def test_batch_zero_exits_two(self, capsys, argv):
        # plan used to report "0.0 images/s"; info and compile exited 0.
        assert main(argv + ["-b", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "--batch" in line

    def test_unknown_model_exits_two(self, capsys):
        assert main(["info", "lenet"]) == 2
        assert "lenet" in capsys.readouterr().err

    def test_serve_bench(self, capsys):
        assert main(["serve-bench", "small_resnet", "--rps", "50",
                     "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "serve-bench — small-resnet" in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "0 violations" in out
        assert "batch sizes" in out

    def test_serve_bench_split_model(self, capsys):
        assert main(["serve-bench", "small_vgg", "--rps", "50",
                     "--duration", "0.5", "--split", "4"]) == 0
        assert "split2x2" in capsys.readouterr().out


class TestLint:
    def test_clean_model_exits_zero(self, capsys):
        assert main(["lint", "small_vgg", "-b", "4"]) == 0
        out = capsys.readouterr().out
        assert "static analysis" in out and "clean" in out

    def test_split_inference_json(self, capsys):
        assert main(["lint", "small_vgg", "-b", "2", "--split", "4",
                     "--inference", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["findings"] == []
        assert "split2x2" in payload["graph"]

    def test_compiled_inference_json_runs_lowering(self, capsys):
        assert main(["lint", "small_resnet", "-b", "2", "--compile",
                     "--inference", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "lowering" in payload["passes"]

    def test_matrix_without_models_is_usage_error(self, capsys):
        assert main(["lint", "--matrix", "--models", ",", "-b", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1

    def test_matrix_bad_split_fails_before_any_result(self, capsys):
        assert main(["lint", "--matrix", "--models", "small_vgg",
                     "--split", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "split must be one of" in captured.err

    def test_error_findings_exit_one(self, capsys, monkeypatch):
        import repro.analysis

        def failing(graph, **kwargs):
            return AnalysisReport(
                graph_name=graph.name, num_ops=len(graph.ops),
                num_tensors=len(graph.tensors), workers=4,
                passes=("graph-lint",),
                findings=[Diagnostic("SCA006", "injected corruption")])

        monkeypatch.setattr(repro.analysis, "analyze_graph", failing)
        assert main(["lint", "small_vgg", "-b", "2"]) == 1
        assert "SCA006" in capsys.readouterr().out

    def test_internal_error_exits_two(self, capsys, monkeypatch):
        import repro.analysis

        def boom(graph, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(repro.analysis, "analyze_graph", boom)
        assert main(["lint", "small_vgg", "-b", "2"]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_unknown_format_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "small_vgg", "--format", "yaml"])
        assert excinfo.value.code == 2


class TestVerifyPlanExitCodes:
    def test_clean_plan_exits_zero(self, capsys):
        assert main(["verify-plan", "small_vgg", "-b", "4"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_overtight_capacity_exits_one(self, capsys):
        # A capacity no plan can fit forces error-severity violations.
        assert main(["verify-plan", "small_vgg", "-b", "4",
                     "--capacity-gib", "0.000001"]) == 1
        assert "capacity" in capsys.readouterr().out.lower()


class TestExport:
    def test_export_to_stdout(self, capsys):
        assert main(["export", "small_vgg", "-b", "2", "--max-ops", "20"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "conv" in out

    def test_export_to_file(self, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        assert main(["export", "small_vgg", "-b", "2",
                     "-o", str(target)]) == 0
        assert target.read_text().startswith("digraph")

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        # Used to print a FileNotFoundError traceback.
        target = tmp_path / "missing" / "graph.dot"
        assert main(["export", "small_vgg", "-b", "2",
                     "-o", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith("error: --output")
