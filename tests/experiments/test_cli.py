"""CLI smoke tests: parser round-trips and tiny end-to-end runs."""

import dataclasses
import json
import shlex
from pathlib import Path

import pytest

from repro import cli
from repro._version import __version__
from repro.engine import SweepArtifact
from repro.experiments import sweeps
from repro.obs import load_manifest
from repro.partition.backend import DEFAULT_BACKEND, ScalarBackend

SUBCOMMANDS = ["fig1", "fig2", "fig3", "fig4", "fig5", "tables", "all", "validate"]


def _tiny_fig1():
    d = sweeps.figure1_nsu(nsu_values=(0.5,))
    base_point = d.point

    def small_point(v):
        config, schemes = base_point(v)
        return config.with_(cores=2, task_count_range=(5, 6)), schemes

    return dataclasses.replace(d, point=small_point)


@pytest.fixture
def tiny_fig1(monkeypatch, tmp_path):
    """Shrink fig1 and sandbox the checkpoint store."""
    monkeypatch.setitem(cli.FIGURES, "fig1", _tiny_fig1)
    monkeypatch.setenv("REPRO_MC_STORE", str(tmp_path / "store"))
    return tmp_path


class TestParser:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_every_subcommand_round_trips(self, name):
        args = cli.build_parser().parse_args([name, "--sets", "2", "--jobs", "2"])
        assert args.experiment == name
        assert args.sets == 2
        assert args.jobs == 2

    def test_defaults(self):
        args = cli.build_parser().parse_args(["fig1"])
        assert args.sets == 500
        assert args.seed == 2016
        assert args.jobs == 1
        assert args.csv is None
        assert args.json is None
        assert args.store is None
        assert not args.no_store
        assert not args.progress

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["fig9"])

    def test_store_flags_round_trip(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["fig2", "--store", str(tmp_path), "--progress"]
        )
        assert args.store == str(tmp_path)
        assert args.progress

    def test_no_store_round_trips(self):
        assert cli.build_parser().parse_args(["all", "--no-store"]).no_store

    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"repro-mc {__version__}" in out

    def test_obs_flags_round_trip(self):
        args = cli.build_parser().parse_args(
            ["fig1", "--log-json", "events.jsonl", "--metrics", "m.json"]
        )
        assert args.log_json == "events.jsonl"
        assert args.metrics == "m.json"

    def test_inspect_accepts_paths(self):
        args = cli.build_parser().parse_args(["inspect", "a.json", "b.json"])
        assert args.experiment == "inspect"
        assert args.paths == ["a.json", "b.json"]

    def test_trace_flags_round_trip(self):
        args = cli.build_parser().parse_args(
            [
                "trace",
                "events.jsonl",
                "--report",
                "--folded",
                "out.folded",
                "--chrome",
                "out.json",
                "--top",
                "5",
            ]
        )
        assert args.experiment == "trace"
        assert args.paths == ["events.jsonl"]
        assert args.report
        assert args.folded == "out.folded"
        assert args.chrome == "out.json"
        assert args.top == 5

    def test_probe_impl_round_trips(self):
        args = cli.build_parser().parse_args(["fig1", "--probe-impl", "scalar"])
        assert args.probe_impl == "scalar"
        assert cli.build_parser().parse_args(["fig1"]).probe_impl == DEFAULT_BACKEND


class TestProbeImpl:
    def test_tables_probe_on_the_named_backend(self, monkeypatch, capsys):
        assert cli.main(["tables"]) == 0
        default = capsys.readouterr().out
        calls = []
        answer = ScalarBackend.answer

        def counted(self, request):
            calls.append(request.rule)
            return answer(self, request)

        monkeypatch.setattr(ScalarBackend, "answer", counted)
        assert cli.main(["tables", "--probe-impl", "scalar"]) == 0
        assert calls  # the allocation traces asked the scalar backend
        scalar = capsys.readouterr().out
        assert scalar.split("[tables")[0] == default.split("[tables")[0]

    def test_unknown_backend_exits_two_with_clean_message(self, capsys):
        assert cli.main(["fig1", "--sets", "2", "--probe-impl", "simd"]) == 2
        err = capsys.readouterr().err
        assert "unknown probe implementation 'simd'" in err
        assert "available" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("impl", ["scalar"])
    def test_backend_artifact_matches_default_run(self, tiny_fig1, capsys, impl):
        base_dir = tiny_fig1 / "default"
        impl_dir = tiny_fig1 / impl
        argv = ["fig1", "--sets", "2", "--no-store", "--json"]
        assert cli.main(argv + [str(base_dir)]) == 0
        assert cli.main(argv + [str(impl_dir), "--probe-impl", impl]) == 0
        assert (base_dir / "fig1.json").read_text() == (
            impl_dir / "fig1.json"
        ).read_text()


class TestMain:
    def test_fig1_tiny_run_exits_zero_with_markers(self, tiny_fig1, capsys):
        assert cli.main(["fig1", "--sets", "2"]) == 0
        out = capsys.readouterr().out
        assert "FIG1: Performance of the algorithms with varying NSU" in out
        assert "(2 task sets per data point, seed 2016)" in out
        assert "(a) Schedulability ratio" in out
        assert "(d) Workload imbalance Lambda" in out
        assert "[fig1 regenerated in" in out

    def test_tables_run_exits_zero_with_markers(self, capsys):
        assert cli.main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I: timing parameters" in out
        assert "Table II: allocations under FFD" in out
        assert "Table III: allocations under CA-TPA" in out

    def test_progress_reports_cache_hits_on_rerun(self, tiny_fig1, capsys):
        assert cli.main(["fig1", "--sets", "2", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[fig1 NSU=0.5]" in err
        assert "computed in" in err
        assert "1 misses" in err

        assert cli.main(["fig1", "--sets", "2", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "cache hit" in err
        assert "1 cache hits, 0 misses, 0 computed" in err

    def test_no_store_disables_checkpointing(self, tiny_fig1, capsys):
        assert cli.main(["fig1", "--sets", "2", "--no-store"]) == 0
        assert not (tiny_fig1 / "store").exists()

    def test_json_flag_writes_loadable_artifact(self, tiny_fig1, capsys):
        out_dir = tiny_fig1 / "artifacts"
        assert cli.main(["fig1", "--sets", "2", "--json", str(out_dir)]) == 0
        artifact = SweepArtifact.from_json((out_dir / "fig1.json").read_text())
        assert artifact.figure == "fig1"
        assert artifact.sets_per_point == 2
        assert artifact.values == (0.5,)

    def test_store_flag_overrides_env(self, tiny_fig1, capsys):
        custom = tiny_fig1 / "custom-store"
        assert cli.main(["fig1", "--sets", "2", "--store", str(custom)]) == 0
        assert custom.exists()
        assert not (tiny_fig1 / "store").exists()

    def test_stray_paths_on_figure_subcommand_rejected(self, capsys):
        assert cli.main(["fig1", "whoops.json"]) == 2
        assert "unrecognized arguments: whoops.json" in capsys.readouterr().err


class TestObservability:
    def test_json_flag_also_writes_manifest(self, tiny_fig1, capsys):
        out_dir = tiny_fig1 / "artifacts"
        argv = ["fig1", "--sets", "2", "--jobs", "2", "--json", str(out_dir)]
        assert cli.main(argv) == 0
        manifest = load_manifest(out_dir / "fig1.manifest.json")
        assert manifest["figure"] == "fig1"
        assert manifest["sets"] == 2
        assert manifest["seed"] == 2016
        assert manifest["command"] == argv
        assert manifest["repro_version"] == __version__
        assert manifest["artifact"]["path"] == "fig1.json"
        assert manifest["engine"]["shards_computed"] > 0
        assert manifest["engine"]["shard_seconds_hist"]["count"] > 0
        # Workload counters survived the worker-process boundary.
        counters = manifest["metrics"]["counters"]
        assert any(name.startswith("probe.") for name in counters)

    def test_metrics_flag_writes_merged_snapshot(self, tiny_fig1, capsys):
        metrics_path = tiny_fig1 / "out" / "metrics.json"
        assert (
            cli.main(
                ["fig1", "--sets", "2", "--no-store", "--metrics", str(metrics_path)]
            )
            == 0
        )
        payload = json.loads(metrics_path.read_text())
        assert payload["run_id"].startswith("r-")
        assert payload["metrics"]["counters"]["engine.shards_computed"] >= 1
        assert payload["metrics"]["histograms"]["engine.shard_seconds"]["count"] >= 1

    def test_log_json_streams_engine_events(self, tiny_fig1, capsys):
        log = tiny_fig1 / "events.jsonl"
        assert cli.main(["fig1", "--sets", "2", "--log-json", str(log)]) == 0
        events = [json.loads(line) for line in log.read_text().splitlines()]
        names = [e["event"] for e in events]
        assert names[0] == "cli.figure_start"
        assert "engine.point" in names
        assert "engine.shard" in names
        run_ids = {e["run_id"] for e in events}
        assert len(run_ids) == 1

    def test_only_instrumented_runs_enable_obs(self, tiny_fig1, monkeypatch, capsys):
        from repro.engine import Engine
        from repro.obs.runtime import OBS

        enabled = []
        real_run = Engine.run

        def spy(engine, spec):
            enabled.append(OBS.enabled)
            return real_run(engine, spec)

        monkeypatch.setattr(Engine, "run", spy)
        argv = ["fig1", "--sets", "2", "--no-store"]
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--json", str(tiny_fig1 / "artifacts")]) == 0
        assert enabled == [False, True]

    def test_instrumented_artifact_matches_plain_run(self, tiny_fig1, capsys):
        plain_dir = tiny_fig1 / "plain"
        inst_dir = tiny_fig1 / "instrumented"
        assert cli.main(["fig1", "--sets", "2", "--no-store", "--json", str(plain_dir)]) == 0
        # A --json run is itself instrumented; add every other flag too.
        assert (
            cli.main(
                [
                    "fig1",
                    "--sets",
                    "2",
                    "--no-store",
                    "--json",
                    str(inst_dir),
                    "--metrics",
                    str(tiny_fig1 / "m.json"),
                    "--log-json",
                    str(tiny_fig1 / "e.jsonl"),
                ]
            )
            == 0
        )
        assert (plain_dir / "fig1.json").read_text() == (
            inst_dir / "fig1.json"
        ).read_text()


class TestValidate:
    def test_green_campaign_exits_zero(self, capsys):
        assert cli.main(["validate", "--sets", "2", "--seed", "0", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "all green" in out
        assert "[validate done in" in out

    def test_failing_campaign_writes_shrunk_repro_and_exits_one(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro import validate as validate_pkg
        from repro.gen import WorkloadConfig
        from repro.validate import CampaignResult, OracleFailure

        failure = OracleFailure(
            oracle="schedulable-no-miss",
            config=WorkloadConfig(cores=2, levels=2),
            schemes=(),
            seed=0,
            set_index=3,
            messages=("2 deadline miss(es)",),
            taskset_doc={},
        )
        result = CampaignResult(points=(), cases=1, checks=7, failures=(failure,))
        doc = {
            "oracle": "schedulable-no-miss",
            "seed": 0,
            "set_index": 3,
            "config": {"cores": 2, "levels": 2, "nsu": 0.6},
            "taskset": {"tasks": [{}, {}]},
        }
        monkeypatch.setattr(validate_pkg, "run_campaign", lambda *a, **k: result)
        monkeypatch.setattr(validate_pkg, "shrink_failure", lambda f: doc)
        repro_dir = tmp_path / "counterexamples"
        argv = ["validate", "--sets", "1", "--no-store", "--repro-dir", str(repro_dir)]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert "1 FAILURE(S)" in out
        assert "2 deadline miss(es)" in out
        assert "(2 tasks)" in out
        written = list(repro_dir.glob("*.json"))
        assert len(written) == 1
        assert written[0].name == "schedulable-no-miss-seed0-set3-M2K2-nsu0p6.json"

    def test_metrics_snapshot_counts_validate_cases(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        argv = [
            "validate",
            "--sets",
            "1",
            "--seed",
            "0",
            "--no-store",
            "--metrics",
            str(metrics_path),
        ]
        assert cli.main(argv) == 0
        payload = json.loads(metrics_path.read_text())
        counters = payload["metrics"]["counters"]
        # 4 campaign configs x 1 set each, every registered oracle per case.
        from repro.validate import all_oracles

        assert counters["validate.cases"] == 4
        assert counters["validate.checks"] == 4 * len(all_oracles())


class TestTraceCommand:
    """End-to-end: instrumented run -> events.jsonl -> repro-mc trace."""

    def _traced_run(self, tiny_fig1, capsys, jobs="4"):
        log = tiny_fig1 / "events.jsonl"
        argv = [
            "fig1",
            "--sets",
            "2",
            "--jobs",
            jobs,
            "--no-store",
            "--log-json",
            str(log),
        ]
        assert cli.main(argv) == 0
        capsys.readouterr()
        return log

    def test_report_prints_rooted_critical_path(self, tiny_fig1, capsys):
        log = self._traced_run(tiny_fig1, capsys)
        assert cli.main(["trace", str(log), "--report"]) == 0
        out, err = capsys.readouterr()
        assert "Critical path" in out
        assert "cli.figure" in out
        assert "100.0%" in out
        assert "0 orphan(s)" in out
        assert "orphan span" not in err  # no warning emitted

    def test_critical_path_total_matches_wall_clock(self, tiny_fig1, capsys):
        from repro.obs import trace

        log = self._traced_run(tiny_fig1, capsys)
        tree = trace.load_tree(log)
        assert tree.orphans == []
        assert len(tree.roots) == 1
        # The events file brackets the run: its timestamp span is the
        # wall clock the root span must match within 5%.
        events = trace.read_events(log)
        wall = max(e["ts"] for e in events) - min(e["ts"] for e in events)
        root_seconds = trace.critical_path(tree)[0].seconds
        assert root_seconds == pytest.approx(wall, rel=0.05)

    def test_default_action_is_report(self, tiny_fig1, capsys):
        log = self._traced_run(tiny_fig1, capsys, jobs="1")
        assert cli.main(["trace", str(log)]) == 0
        assert "Critical path" in capsys.readouterr().out

    def test_folded_export(self, tiny_fig1, capsys):
        log = self._traced_run(tiny_fig1, capsys, jobs="1")
        folded_path = tiny_fig1 / "out" / "stacks.folded"
        assert cli.main(["trace", str(log), "--folded", str(folded_path)]) == 0
        lines = folded_path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack.startswith("cli.figure")
            assert int(value) > 0

    def test_chrome_export_is_loadable(self, tiny_fig1, capsys):
        log = self._traced_run(tiny_fig1, capsys)
        chrome_path = tiny_fig1 / "out" / "trace.json"
        assert cli.main(["trace", str(log), "--chrome", str(chrome_path)]) == 0
        doc = json.loads(chrome_path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices
        assert all(
            e["ts"] >= 0 and e["dur"] >= 0 and isinstance(e["tid"], int)
            for e in slices
        )
        assert any(e["name"] == "cli.figure" for e in slices)

    def test_trace_without_path_errors(self, capsys):
        assert cli.main(["trace"]) == 2
        assert "the following arguments are required: EVENTS" in capsys.readouterr().err

    def test_trace_missing_file_errors(self, tmp_path, capsys):
        assert cli.main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such events file" in capsys.readouterr().err

    def test_trace_spanless_events_file_errors(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text('{"event": "cli.figure_start", "run_id": "r-1"}\n')
        assert cli.main(["trace", str(log)]) == 1
        assert "no span events" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_without_compare_action_errors(self, capsys):
        # The benchmark gate is benchmarks/gate.py; `bench` is no
        # subcommand, with or without an action.
        assert "bench" not in cli.COMMANDS
        assert cli.main(["bench"]) == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestInspect:
    def test_inspect_pretty_prints_manifest(self, tiny_fig1, capsys):
        out_dir = tiny_fig1 / "artifacts"
        assert cli.main(["fig1", "--sets", "2", "--json", str(out_dir)]) == 0
        capsys.readouterr()
        assert cli.main(["inspect", str(out_dir / "fig1.json")]) == 0
        out = capsys.readouterr().out
        assert "Run manifest (v1)" in out
        assert "figure        fig1" in out
        assert "Counters" in out

    def test_inspect_accepts_manifest_path_directly(self, tiny_fig1, capsys):
        out_dir = tiny_fig1 / "artifacts"
        assert cli.main(["fig1", "--sets", "2", "--json", str(out_dir)]) == 0
        capsys.readouterr()
        assert cli.main(["inspect", str(out_dir / "fig1.manifest.json")]) == 0
        assert "Run manifest (v1)" in capsys.readouterr().out

    def test_inspect_without_paths_errors(self, capsys):
        assert cli.main(["inspect"]) == 2
        assert "the following arguments are required: PATH" in capsys.readouterr().err

    def test_inspect_missing_manifest_errors(self, tmp_path, capsys):
        assert cli.main(["inspect", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestLazyOut:
    """Regression: ``--out`` used ``argparse.FileType("w")``, which
    created/truncated the target at *parse* time — a command that then
    failed had already destroyed the previous report."""

    def test_failing_command_leaves_existing_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        out.write_text("previous good report\n")
        rc = cli.main(["inspect", str(tmp_path / "nope.json"), "--out", str(out)])
        capsys.readouterr()
        assert rc == 1
        assert out.read_text() == "previous good report\n"

    def test_parse_error_does_not_create_out(self, tmp_path, capsys):
        out = tmp_path / "never.txt"
        assert cli.main(["no-such-experiment", "--out", str(out)]) == 2
        capsys.readouterr()
        assert not out.exists()

    def test_successful_command_writes_out(self, tmp_path, capsys):
        out = tmp_path / "tables.txt"
        out.write_text("stale content")
        assert cli.main(["tables", "--out", str(out)]) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "Table I" in text and "stale content" not in text


class TestServeParser:
    def test_serve_options_parse(self):
        args = cli.build_parser().parse_args(
            [
                "serve",
                "--cores", "8",
                "--levels", "3",
                "--port", "0",
                "--window-ms", "2.5",
                "--max-batch", "16",
                "--backlog", "32",
            ]
        )
        assert args.experiment == "serve"
        assert (args.cores, args.levels, args.port) == (8, 3, 0)
        assert (args.window_ms, args.max_batch, args.backlog) == (2.5, 16, 32)

    def test_serve_defaults(self):
        args = cli.build_parser().parse_args(["serve"])
        assert args.cores == 4 and args.port == 8787
        assert args.window_ms == 1.0 and args.backlog == 256


class TestServeSloFlags:
    def test_slo_rules_round_trip(self):
        args = cli.build_parser().parse_args(
            [
                "serve",
                "--slo",
                "p95(serve.place.seconds) < 5ms",
                "--slo",
                "rate(serve.rejected_503) == 0",
            ]
        )
        assert args.slo == [
            "p95(serve.place.seconds) < 5ms",
            "rate(serve.rejected_503) == 0",
        ]

    def test_no_slo_flag_defaults_to_none(self):
        assert cli.build_parser().parse_args(["serve"]).slo is None

    def test_bad_slo_rule_exits_two_before_binding(self, capsys):
        assert cli.main(["serve", "--slo", "p95(x) ~ 1"]) == 2
        assert "bad SLO rule" in capsys.readouterr().err


class TestTopCommand:
    def test_flags_round_trip(self):
        args = cli.build_parser().parse_args(
            ["top", "http://127.0.0.1:8787", "--interval", "0.5", "--once"]
        )
        assert args.experiment == "top"
        assert args.paths == ["http://127.0.0.1:8787"]
        assert args.interval == 0.5
        assert args.once

    def test_requires_exactly_one_target(self, capsys):
        assert cli.main(["top"]) == 2
        assert "the following arguments are required: TARGET" in capsys.readouterr().err
        assert cli.main(["top", "a", "b"]) == 2

    def test_renders_once_from_sweep_events(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            json.dumps(
                {
                    "run_id": "r1",
                    "seq": 1,
                    "ts": 100.0,
                    "event": "engine.run_plan",
                    "figure": "fig1",
                    "points": 1,
                    "sets_per_point": 2,
                }
            )
            + "\n"
        )
        assert cli.main(["top", str(log), "--once"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "\x1b" not in out

    def test_missing_events_file_exits_one(self, tmp_path, capsys):
        assert cli.main(["top", str(tmp_path / "nope.jsonl"), "--once"]) == 1
        assert "no events file" in capsys.readouterr().err


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestSimulateCommand:
    def _args(self, *extra):
        return [
            "simulate",
            "--taskset",
            str(EXAMPLES / "taskset_demo.json"),
            "--cores",
            "2",
            "--scenario",
            "honest",
            *extra,
        ]

    def test_flags_round_trip(self):
        args = cli.build_parser().parse_args(
            [
                "simulate",
                "--taskset",
                "t.json",
                "--events",
                "e.json",
                "--scheme",
                "ffd",
                "--scenario",
                "level",
                "--overrun-prob",
                "0.3",
                "--cycles",
                "5",
                "--allow-infeasible",
            ]
        )
        assert args.experiment == "simulate"
        assert args.taskset == "t.json"
        assert args.events == "e.json"
        assert args.scheme == "ffd"
        assert args.scenario == "level"
        assert args.overrun_prob == 0.3
        assert args.cycles == 5.0
        assert args.allow_infeasible

    def test_requires_taskset(self, capsys):
        assert cli.main(["simulate"]) == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --taskset" in err

    def test_stray_paths_rejected(self, capsys):
        assert cli.main(self._args() + ["whoops.json"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: whoops.json" in err

    def test_plain_run_prints_telemetry(self, capsys):
        assert cli.main(self._args()) == 0
        out = capsys.readouterr().out
        assert "simulate: 6 tasks on 2 cores (ca-tpa)" in out
        assert "schedulable offline: True" in out
        assert "sim.released:" in out
        assert "sim.event." not in out  # no script attached

    def test_events_run_reports_event_counters(self, capsys):
        assert cli.main(
            self._args("--events", str(EXAMPLES / "events_demo.json"))
        ) == 0
        out = capsys.readouterr().out
        assert "sim.event.injected: 6" in out
        assert "sim.event.core_failures: 1" in out
        assert "sim.event.arrival_admitted" in out

    def test_events_metrics_snapshot_matches_stdout(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert cli.main(
            self._args(
                "--events",
                str(EXAMPLES / "events_demo.json"),
                "--metrics",
                str(metrics),
            )
        ) == 0
        doc = json.loads(metrics.read_text())
        counters = doc["metrics"]["counters"]
        assert counters["sim.event.injected"] == 6
        histograms = doc["metrics"]["histograms"]
        assert histograms["cli.simulate.seconds"]["count"] == 1
        assert histograms["sim.events.compile.seconds"]["count"] >= 1

    def test_unschedulable_partition_needs_allow_infeasible(
        self, tmp_path, capsys
    ):
        # One core cannot hold the demo set; the honest message tells
        # the user which gate tripped.
        rc = cli.main(
            [
                "simulate",
                "--taskset",
                str(EXAMPLES / "taskset_demo.json"),
                "--cores",
                "1",
                "--scenario",
                "honest",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert (
            "could not place every task" in captured.err
            or "fails the schedulability analysis" in captured.err
        )


class TestDynamicCommand:
    def test_burst_factors_round_trip(self):
        args = cli.build_parser().parse_args(
            ["dynamic", "--burst-factors", "1.0,2.5"]
        )
        assert args.experiment == "dynamic"
        assert args.burst_factors == (1.0, 2.5)

    def test_bad_burst_factors_exit_two(self, capsys):
        assert cli.main(["dynamic", "--burst-factors", "1.0,oops"]) == 2
        assert "comma-separated float list" in capsys.readouterr().err
        assert cli.main(["dynamic", "--burst-factors", ","]) == 2
        assert "is empty" in capsys.readouterr().err

    def test_tiny_run_prints_table_and_json(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert (
            cli.main(
                [
                    "dynamic",
                    "--sets",
                    "1",
                    "--burst-factors",
                    "2.0",
                    "--no-store",
                    "--json",
                    str(out_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Dynamic scenario sweep" in out
        assert "[dynamic regenerated in" in out
        doc = json.loads((out_dir / "dynamic.json").read_text())
        assert doc["figure"] == "dynamic"
        assert doc["factors"] == [2.0]
        assert doc["rows"][0]["simulated"] == 1


REPO = Path(__file__).resolve().parents[2]
DEMO = "{examples}/taskset_demo.json"

# Saved task sets with one malformed field each: file stem -> (document
# change, stderr substring).  Each is rejected at load, never coerced.
MALFORMED_TASKSETS = {
    "period-str": ({"tasks": [{"period": "x", "wcets": [1]}]},
                   "period must be a real number, got 'x'"),
    "wcet-str": ({"tasks": [{"period": 10, "wcets": ["a"]}]},
                 "c(1) must be a real number, got 'a'"),
    "wcets-string": ({"tasks": [{"period": "10", "wcets": "12"}]},
                     "c(1) must be a real number, got '1'"),
    "wcet-bool": ({"tasks": [{"period": 10, "wcets": [True]}]},
                  "c(1) must be a real number, got True"),
    "name-list": ({"tasks": [{"period": 10, "wcets": [1], "name": ["x"]}]},
                  "task name must be a str, got ['x']"),
    "levels-str": ({"levels": "2"}, "K must be an integer, got '2'"),
}

# Run manifests and events logs that inspect, trace and top must refuse
# in one line (top skips a line that is not a JSON object, as it skips a
# malformed one): file name -> bytes.
_EVENT = b'{"event": "engine.shard", "ts": 1.0}\n'
NON_OBJECT_LINES = {"list": b"[1, 2]", "str": b'"str"', "number": b"3", "null": b"null"}
# Manifests with every required key and one section format_manifest
# cannot render: stem -> (section, message).
_MANIFEST = {"manifest_version": 1, "run_id": "r", "created": "c", "repro_version": "v"}
MALFORMED_MANIFESTS = {
    "engine-str": ({"engine": "oops"}, "engine must be an object"),
    "engine-seconds": (
        {"engine": {"compute_seconds": "x"}},
        "engine compute_seconds must be a number",
    ),
    "artifact-no-sha": (
        {"artifact": {"path": 3}},
        "artifact must hold a path and a sha256 string",
    ),
    "command-ints": ({"command": [1, 2]}, "command must be a list of strings"),
    "counter-str": (
        {"metrics": {"counters": {"a": "x"}}},
        "metrics counters must map names to numbers",
    ),
    "histogram-empty": (
        {"metrics": {"histograms": {"h": {}}}},
        "metrics histograms must map names to digests",
    ),
}
MALFORMED_RUN_FILES = {
    "array.manifest.json": b"[1, 2]",
    "bare.manifest.json": b'{"manifest_version": 1}',
    "latin1.manifest.json": b'{"manifest_version": 1, "run_id": "\xff"}',
    **{
        f"{stem}.manifest.json": json.dumps({**_MANIFEST, **section}).encode()
        for stem, (section, _) in MALFORMED_MANIFESTS.items()
    },
    "latin1.jsonl": _EVENT + b"\xff\xfe\n",
    **{
        f"{stem}.jsonl": _EVENT + line + b"\n" + _EVENT
        for stem, line in NON_OBJECT_LINES.items()
    },
}

# The exit-code contract, one row per invocation: (argv, exit code, a
# stderr substring).  0 = success; 1 = a runtime or input error, one
# "repro-mc <command>: <message>" line; 2 = a usage error from argparse.
# Rows run in an empty temporary cwd, so bare relative paths do not exist.
EXIT_CODES = [
    # -- success, one per subcommand
    *[(f"{name} --sets 1", 0, "") for name in ("fig1", "fig2", "fig3", "fig4", "fig5")],
    ("tables", 0, ""),
    ("all --sets 1", 0, ""),
    ("dynamic --sets 1 --burst-factors 2.0 --no-store", 0, ""),
    ("validate --sets 1 --seed 0 --no-store", 0, ""),
    (f"simulate --taskset {DEMO} --cores 2 --scenario honest", 0, ""),
    (f"explain {DEMO} --cores 2", 0, ""),
    ("inspect {run}/fig1.json", 0, ""),
    ("trace {run}/events.jsonl", 0, ""),
    ("serve --port 0", 0, ""),  # the daemon loop is stubbed out below
    ("top {run}/events.jsonl --once", 0, ""),
    # -- usage errors
    ("", 2, "the following arguments are required: COMMAND"),
    ("no-such-command", 2, "invalid choice: 'no-such-command'"),
    ("fig1 --port 80", 2, "unrecognized arguments: --port 80"),
    (
        "fig1 --port 80 --burst-factors x",
        2,
        "unrecognized arguments: --port 80 --burst-factors x",
    ),
    ("fig1 whoops.json", 2, "unrecognized arguments: whoops.json"),
    ("fig1 --probe-impl simd", 2, "unknown probe implementation 'simd'"),
    (
        "fig1 --probe-impl incremental",
        2,
        "unknown probe implementation 'incremental'; available: batch, scalar\n",
    ),
    ("fig2 --sets x", 2, "argument --sets: invalid int value: 'x'"),
    ("fig3 --json", 2, "argument --json: expected one argument"),
    ("fig4 --taskset t.json", 2, "unrecognized arguments: --taskset t.json"),
    ("fig5 --repro-dir d", 2, "unrecognized arguments: --repro-dir d"),
    ("tables --cores 2", 2, "unrecognized arguments: --cores 2"),
    ("all --burst-factors 2.0", 2, "unrecognized arguments: --burst-factors 2.0"),
    ("dynamic --burst-factors 1.0,oops", 2, "comma-separated float list"),
    ("dynamic --burst-factors ,", 2, "argument --burst-factors: is empty"),
    ("dynamic --csv d", 2, "unrecognized arguments: --csv d"),
    ("validate --csv d", 2, "unrecognized arguments: --csv d"),
    ("simulate", 2, "the following arguments are required: --taskset"),
    ("simulate --taskset t.json --probe-impl scalar", 2, "unrecognized arguments"),
    ("explain", 2, "one of the arguments --taskset TASKSET is required"),
    ("explain a.json --taskset b.json", 2, "not allowed with argument"),
    (f"explain {DEMO} --json", 2, "argument --json: expected one argument"),
    ("inspect", 2, "the following arguments are required: PATH"),
    ("trace", 2, "the following arguments are required: EVENTS"),
    ("trace a.jsonl b.jsonl", 2, "unrecognized arguments: b.jsonl"),
    # The benchmark gate is benchmarks/gate.py, not a subcommand: the
    # retired `bench` invocations are usage errors.
    ("bench", 2, "invalid choice: 'bench'"),
    ("bench compare --sets 0", 2, "invalid choice: 'bench'"),
    (
        "bench compare --sets 1 --gate-ratio 0.000001 --overhead-gate 1000 "
        "--baseline-dir {repo}",
        2,
        "invalid choice: 'bench'",
    ),
    ("serve --sets 3", 2, "unrecognized arguments: --sets 3"),
    ("serve --slo 'p95(x) ~ 1'", 2, "bad SLO rule"),
    # --probe-impl belongs to fig1-fig5, tables and all only.
    ("serve --probe-impl scalar", 2, "unrecognized arguments: --probe-impl scalar"),
    ("validate --probe-impl scalar", 2, "unrecognized arguments: --probe-impl"),
    ("dynamic --probe-impl scalar", 2, "unrecognized arguments: --probe-impl"),
    (f"explain {DEMO} --probe-impl scalar", 2, "unrecognized arguments: --probe"),
    ("top", 2, "the following arguments are required: TARGET"),
    ("top a b", 2, "unrecognized arguments: b"),
    # -- runtime and input errors
    ("fig1 --sets 0", 1, "sets must be >= 1, got 0"),
    ("fig1 --seed -1", 1, "seed must be >= 0, got -1"),
    ("fig1 --jobs -1", 1, "jobs must be >= 1"),
    ("fig2 --sets 0", 1, "sets must be >= 1, got 0"),
    ("fig3 --seed -1", 1, "seed must be >= 0, got -1"),
    ("fig4 --sets 0", 1, "sets must be >= 1, got 0"),
    ("fig5 --jobs -2", 1, "jobs must be >= 1"),
    ("tables --log-json .", 1, "Is a directory"),
    ("all --sets 0", 1, "sets must be >= 1, got 0"),
    ("dynamic --sets 0 --no-store", 1, "sets must be >= 1, got 0"),
    ("dynamic --sets 1 --seed -1 --no-store", 1, "seed must be >= 0, got -1"),
    ("validate --sets 0 --no-store", 1, "sets must be >= 1, got 0"),
    ("validate --sets 1 --jobs -1 --no-store", 1, "jobs must be >= 1"),
    ("simulate --taskset missing.json", 1, "cannot read task set missing.json"),
    ("simulate --taskset garbled.json", 1, "cannot read task set garbled.json"),
    (f"simulate --taskset {DEMO} --cores 2 --seed -1", 1, "seed must be >= 0"),
    (f"simulate --taskset {DEMO} --cores 1 --scenario honest", 1, "1 cores"),
    (f"simulate --taskset {DEMO} --cores 2 --cycles nan", 1, "positive and finite"),
    ("explain missing.json", 1, "cannot read task set missing.json"),
    ("explain garbled.json", 1, "cannot read task set garbled.json"),
    *[
        (f"{command}{stem}.json", 1, message)
        for stem, (_, message) in MALFORMED_TASKSETS.items()
        for command in ("simulate --taskset ", "explain ")
    ],
    (f"explain {DEMO} --scheme bogus", 1, "unknown scheme 'bogus'"),
    ("inspect missing.json", 1, "cannot read run manifest"),
    ("inspect .", 1, "cannot read run manifest"),
    ("inspect array.manifest.json", 1, "array.manifest.json is not a JSON object"),
    ("inspect bare.manifest.json", 1, "lacks run_id, created, repro_version"),
    ("inspect latin1.manifest.json", 1, "cannot read run manifest latin1.manifest"),
    *[
        (f"inspect {stem}.manifest.json", 1, f"{stem}.manifest.json: {message}")
        for stem, (_, message) in MALFORMED_MANIFESTS.items()
    ],
    ("trace missing.jsonl", 1, "no such events file"),
    ("trace latin1.jsonl", 1, "cannot read events file latin1.jsonl"),
    *[
        (f"trace {stem}.jsonl --report", 1, f"{stem}.jsonl:2: event line is not")
        for stem in NON_OBJECT_LINES
    ],
    ("serve --cores 0", 1, "cores must be >= 1, got 0"),
    ("serve --levels 0", 1, "levels must be >= 1, got 0"),
    ("serve --window-ms -1", 1, "window_ms must be >= 0, got -1.0"),
    ("serve --window-ms inf", 1, "window_ms must be finite, got inf"),
    ("serve --max-batch 0", 1, "max_batch must be >= 1, got 0"),
    ("serve --backlog 0", 1, "backlog must be >= 1, got 0"),
    ("serve --port 65536", 1, "port must be in [0, 65535], got 65536"),
    ("top missing.jsonl --once", 1, "no events file"),
    ("top latin1.jsonl --once", 1, "cannot read events file latin1.jsonl"),
    *[(f"top {stem}.jsonl --once", 0, "") for stem in NON_OBJECT_LINES],
]


def _tiny(make_definition):
    """A one-point, two-core version of a figure definition."""

    def tiny():
        d = make_definition()
        base_point = d.point

        def small_point(v):
            config, schemes = base_point(v)
            return config.with_(cores=2, task_count_range=(5, 6)), schemes

        return dataclasses.replace(d, values=d.values[:1], point=small_point)

    return tiny


@pytest.fixture(scope="module")
def instrumented_run(tmp_path_factory):
    """A tiny fig1 artifact with its manifest and events log."""
    run = tmp_path_factory.mktemp("run")
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(cli.FIGURES, "fig1", _tiny_fig1)
        argv = ["fig1", "--sets", "1", "--no-store", "--json", str(run)]
        assert cli.main(argv + ["--log-json", str(run / "events.jsonl")]) == 0
    return run


class TestExitCodes:
    @pytest.mark.parametrize(
        "line, code, message",
        EXIT_CODES,
        ids=[row[0] or "<none>" for row in EXIT_CODES],
    )
    def test_exit_code(
        self, line, code, message, instrumented_run, monkeypatch, tmp_path, capsys
    ):
        from repro.serve import daemon

        for name, make_definition in list(cli.FIGURES.items()):
            monkeypatch.setitem(cli.FIGURES, name, _tiny(make_definition))
        monkeypatch.setenv("REPRO_MC_STORE", str(tmp_path / "store"))
        monkeypatch.setattr(daemon, "run_forever", lambda config: 0)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "garbled.json").write_text("{garbled")
        for name, data in MALFORMED_RUN_FILES.items():
            (tmp_path / name).write_bytes(data)
        demo = json.loads((EXAMPLES / "taskset_demo.json").read_text())
        for stem, (change, _) in MALFORMED_TASKSETS.items():
            (tmp_path / f"{stem}.json").write_text(json.dumps({**demo, **change}))
        paths = {"examples": EXAMPLES, "run": instrumented_run, "repo": REPO}
        argv = [token.format(**paths) for token in shlex.split(line)]
        out = tmp_path / "report.txt"
        if argv and "out" in getattr(cli.COMMANDS.get(argv[0]), "groups", ()):
            argv += ["--out", str(out)]

        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err
        if code == 1:
            assert err.startswith(f"repro-mc {argv[0]}: ")
            assert err.count("\n") == 1
        if code == 2:
            assert "usage: repro-mc" in err
        if code != 0:
            assert not out.exists()
