"""Tests for the benchmark gate, ``benchmarks/gate.py``.

The gate logic runs on synthetic measurements (no timing involved);
one tiny real measurement checks that every row is produced and that
the batch and scalar backends agree end to end.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from benchmarks import gate
from repro.engine import Engine
from repro.gen import WorkloadConfig, generate_taskset
from repro.types import ReproError


def _measured(
    pps=10_000.0,
    speedup=3.0,
    lockstep_speedup=7.0,
    overhead=1.01,
    inc_pps=3_000_000.0,
    inc_speedup=3.2,
    serve_qps=1_000.0,
    serve_p95=0.005,
):
    return {
        "serve": {
            "benchmark": "serve-burst",
            "places": 256,
            "qps": serve_qps,
            "place_p95_s": serve_p95,
        },
        "sets": 2,
        "seed": 2016,
        "probes": 100,
        "batch": {"seconds": 0.01, "probes_per_sec": pps},
        "scalar": {"seconds": 0.03, "probes_per_sec": pps / speedup},
        "speedup": speedup,
        "end_to_end": {"speedup": lockstep_speedup},
        "placement": {
            "benchmark": "placement-loop",
            "sets": 2,
            "seed": 2016,
            "task_count_range": list(gate.PLACEMENT_TASK_RANGE),
            "hypotheses": 100_000,
            "batch": {
                "seconds": 0.1,
                "probes_per_sec": inc_pps / inc_speedup,
            },
            "incremental": {"seconds": 0.03, "probes_per_sec": inc_pps},
            "speedup": inc_speedup,
        },
        "disabled_overhead_ratio": overhead,
        "overhead_samples": 8,
    }


@pytest.fixture
def baselines(tmp_path):
    """Committed-baseline stand-ins: 12000 pps, 3x probe and 7x lockstep
    speedup, 1.01 overhead."""
    (tmp_path / gate.PARTITION_BASELINE).write_text(
        json.dumps(
            {
                "probe": {
                    "batch": {"probes_per_sec": 12_000.0},
                    "speedup": 3.0,
                },
                "end_to_end": {"speedup": 7.0},
                "placement": {
                    "incremental": {"probes_per_sec": 3_000_000.0},
                    "speedup": 3.2,
                },
            }
        )
    )
    (tmp_path / gate.OVERHEAD_BASELINE).write_text(
        json.dumps({"disabled_overhead_ratio": 1.01, "gate": 1.02})
    )
    (tmp_path / gate.SERVE_BASELINE).write_text(
        json.dumps({"qps": 1_000.0, "place_p95_s": 0.005})
    )
    return tmp_path


class TestCompare:
    def test_all_gates_pass(self, baselines):
        failures, lines = gate.compare_against_baselines(
            _measured(), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert failures == []
        assert any("all gates passed" in line for line in lines)

    def test_throughput_regression_fails(self, baselines):
        failures, _ = gate.compare_against_baselines(
            _measured(pps=1_000.0), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any("batch probes/sec" in f for f in failures)

    def test_speedup_regression_fails(self, baselines):
        failures, _ = gate.compare_against_baselines(
            _measured(speedup=1.0), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any("speedup" in f for f in failures)

    def test_lockstep_regression_fails(self, baselines):
        # 3.0x against 7.0x committed: under the 3.5x floor at ratio 0.5.
        failures, _ = gate.compare_against_baselines(
            _measured(lockstep_speedup=3.0),
            baselines,
            gate_ratio=0.5,
            overhead_gate=1.10,
        )
        assert [f.split(":")[0] for f in failures] == ["lockstep speedup"]

    def test_overhead_regression_fails(self, baselines):
        failures, _ = gate.compare_against_baselines(
            _measured(overhead=1.5), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any("disabled overhead" in f for f in failures)

    def test_gate_ratio_is_configurable(self, baselines):
        # 6000 pps vs 12000 committed: fails at 0.9, passes at 0.4.
        strict, _ = gate.compare_against_baselines(
            _measured(pps=6_000.0), baselines, gate_ratio=0.9, overhead_gate=1.10
        )
        loose, _ = gate.compare_against_baselines(
            _measured(pps=6_000.0), baselines, gate_ratio=0.4, overhead_gate=1.10
        )
        assert strict and not loose

    def test_incremental_throughput_regression_fails(self, baselines):
        failures, _ = gate.compare_against_baselines(
            _measured(inc_pps=100_000.0),
            baselines,
            gate_ratio=0.5,
            overhead_gate=1.10,
        )
        assert any("incremental probes/sec" in f for f in failures)

    def test_incremental_slower_than_batch_fails(self, baselines):
        # 0.9x "speedup" clears gate_ratio x committed (0.4 x 3.2) but
        # not the absolute incremental >= batch floor.
        failures, _ = gate.compare_against_baselines(
            _measured(inc_speedup=0.9),
            baselines,
            gate_ratio=0.4,
            overhead_gate=1.10,
        )
        assert any("incremental/batch speedup" in f for f in failures)

    def test_missing_placement_section_is_a_failure(self, baselines):
        stale = json.loads(
            (baselines / gate.PARTITION_BASELINE).read_text()
        )
        del stale["placement"]
        (baselines / gate.PARTITION_BASELINE).write_text(json.dumps(stale))
        failures, _ = gate.compare_against_baselines(
            _measured(), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any("placement" in f for f in failures)

    def test_missing_end_to_end_section_is_a_failure(self, baselines):
        path = baselines / gate.PARTITION_BASELINE
        stale = json.loads(path.read_text())
        del stale["end_to_end"]
        path.write_text(json.dumps(stale))
        failures, _ = gate.compare_against_baselines(_measured(), baselines)
        assert any("end_to_end" in f for f in failures)

    def test_missing_baselines_are_failures(self, tmp_path):
        failures, lines = gate.compare_against_baselines(
            _measured(), tmp_path, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any(gate.PARTITION_BASELINE in f for f in failures)
        assert any(gate.OVERHEAD_BASELINE in f for f in failures)
        assert any(gate.SERVE_BASELINE in f for f in failures)

    def test_serve_qps_regression_fails(self, baselines):
        failures, _ = gate.compare_against_baselines(
            _measured(serve_qps=100.0),
            baselines,
            gate_ratio=0.5,
            overhead_gate=1.10,
        )
        assert any("serve qps" in f for f in failures)

    def test_serve_p95_latency_regression_fails(self, baselines):
        # Ceiling is committed / gate_ratio = 0.005 / 0.5 = 0.010s.
        failures, _ = gate.compare_against_baselines(
            _measured(serve_p95=0.011),
            baselines,
            gate_ratio=0.5,
            overhead_gate=1.10,
        )
        assert any("serve place p95" in f for f in failures)

    def test_serve_p95_just_under_ceiling_passes(self, baselines):
        failures, _ = gate.compare_against_baselines(
            _measured(serve_p95=0.009),
            baselines,
            gate_ratio=0.5,
            overhead_gate=1.10,
        )
        assert not any("serve" in f for f in failures)

    def test_report_lines_mark_failures(self, baselines):
        _, lines = gate.compare_against_baselines(
            _measured(pps=1.0), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        report = "\n".join(lines)
        assert "FAIL" in report
        assert "gate(s) FAILED" in report


class TestRunProbeBench:
    """``gate.measure``, the quick bench behind every gate row."""

    @pytest.mark.parametrize(
        "kwargs, message", [({"sets": 0}, "sets must be >= 1")]
    )
    def test_out_of_range_arguments_rejected(self, kwargs, message):
        with pytest.raises(ReproError, match=message):
            gate.measure(**kwargs)

    def test_tiny_measurement_has_expected_shape(self):
        measured = gate.measure(sets=1)
        assert measured["probes"] > 0
        assert measured["batch"]["probes_per_sec"] > 0
        assert measured["scalar"]["probes_per_sec"] > 0
        assert measured["speedup"] > 0
        assert measured["end_to_end"]["speedup"] > 0
        assert measured["disabled_overhead_ratio"] > 0
        placement = measured["placement"]
        assert placement["hypotheses"] > 0
        assert placement["batch"]["probes_per_sec"] > 0
        assert placement["incremental"]["probes_per_sec"] > 0
        assert placement["speedup"] > 0
        serve = measured["serve"]
        assert serve["qps"] > 0
        assert serve["accepted"] == gate.SERVE_PLACES
        assert 0 < serve["place_p50_s"] <= serve["place_p95_s"]
        # Every row is there and gated against the committed baselines.
        failures, lines = gate.compare_against_baselines(
            measured, gate.REPO_ROOT, gate_ratio=1e-6, overhead_gate=1000.0
        )
        assert failures == [], lines


class TestMeasure:
    def test_zero_sets_is_a_one_line_error(self, capsys):
        assert gate.main(["--sets", "0"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["gate.py: sets must be >= 1, got 0"]

    @pytest.mark.parametrize(
        "measured, code, verdict",
        [(_measured(), 0, "all gates passed"), (_measured(pps=1.0), 1, "FAILED")],
        ids=["pass", "fail"],
    )
    def test_main_exit_code(
        self, measured, code, verdict, baselines, monkeypatch, capsys
    ):
        monkeypatch.setattr(gate, "REPO_ROOT", baselines)
        monkeypatch.setattr(gate, "measure", lambda sets: measured)
        assert gate.main([]) == code
        assert verdict in capsys.readouterr().out

    def test_backends_agree_when_no_set_is_schedulable(self, monkeypatch):
        """At 3 sets no scheme schedules a set: every mean is NaN, so the
        stats differ under ``==`` although both backends agree."""
        answers = []
        evaluate = Engine.evaluate

        def spy(engine, point):
            answers.append(evaluate(engine, point))
            return answers[-1]

        monkeypatch.setattr(Engine, "evaluate", spy)
        timing = gate.time_evaluate(WorkloadConfig(), 3)
        assert timing["speedup"] > 0
        batch, scalar = answers[-2:]
        assert all(math.isnan(s.u_avg) for s in batch.values())
        assert batch != scalar


class TestPlacementLoop:
    def test_refresh_and_full_reprobe_answer_the_same_hypotheses(self):
        """Both timed variants count the full (pending, cores) grid of
        every round, so probes/sec stays comparable with the committed
        placement baseline — and the count is the one that baseline's
        loop produced for this set."""
        config = WorkloadConfig(task_count_range=gate.PLACEMENT_TASK_RANGE)
        ts = generate_taskset(config, np.random.default_rng(gate.SEED))
        refreshed = gate.placement_loop(ts, config.cores, refresh=True)
        full = gate.placement_loop(ts, config.cores, refresh=False)
        assert refreshed == full == 316968
