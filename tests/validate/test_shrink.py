"""Counterexample shrinking, repro files, and the seeded-bug acceptance test.

The centerpiece deliberately plants a bug — the Eq. (6) reduction
factors ``lambda_j`` are halved, which inflates the Theorem-1 capacity
terms ``theta(k) = prod(1 - lambda_j)`` on the *scalar* analysis path —
and demands that the harness (a) catches it via the scalar/batch
differential, (b) shrinks a failure to a handful of tasks, and (c) the
written repro file replays red under the bug and green once it is
fixed.
"""

import dataclasses

import pytest

from repro.gen import WorkloadConfig
from repro.model.io import taskset_to_dict
from repro.types import ReproError, SimulationError
from repro.validate import (
    CAMPAIGN_CONFIGS,
    check_repro,
    get_oracle,
    load_repro,
    make_case,
    run_campaign,
    run_case,
    shrink_case,
    shrink_failure,
    write_repro,
)

#: K=3 near the feasibility boundary: lambda_2 enters theta(2), so the
#: corruption is visible (at K=2 the only capacity term is theta(1)=1
#: and the lambdas cancel out of the admission decision entirely).
CORRUPTIBLE = (
    WorkloadConfig(
        cores=2,
        levels=3,
        nsu=0.85,
        task_count_range=(6, 12),
        period_ranges=((10, 60), (60, 240)),
    ),
)


@pytest.fixture
def corrupted_lambda(monkeypatch):
    """Halve every Eq. (6) reduction factor on the scalar analysis path."""
    from repro.analysis import edfvd

    true_lambda = edfvd.lambda_factors
    monkeypatch.setattr(edfvd, "lambda_factors", lambda mat: true_lambda(mat) * 0.5)


class TestShrinkCase:
    def test_passing_case_cannot_be_shrunk(self):
        case = make_case(CORRUPTIBLE[0], (), seed=0, index=0)
        with pytest.raises(ReproError, match="cannot shrink"):
            shrink_case(get_oracle("probe-scalar-batch"), case)

    def test_shrinking_never_mutates_the_input_case(self, corrupted_lambda):
        result = run_campaign(sets=20, seed=0, configs=CORRUPTIBLE)
        failure = next(
            f for f in result.failures if f.oracle == "probe-scalar-batch"
        )
        case = failure.case()
        before = case.taskset
        shrink_case(get_oracle(failure.oracle), case)
        assert case.taskset == before


class TestRaisingOracle:
    """An oracle that raises fails like one that returns messages."""

    MESSAGE = "raised SimulationError: core 0 fails the EDF-VD analysis"

    @pytest.fixture
    def raising(self, monkeypatch):
        """``job-conservation`` raising on any set with a top-level task."""
        from repro.validate import oracles

        def check(case):
            if (case.taskset.criticalities == case.taskset.levels).any():
                raise SimulationError("core 0 fails the EDF-VD analysis")
            return []

        oracle = dataclasses.replace(get_oracle("job-conservation"), check=check)
        monkeypatch.setitem(oracles._ORACLES, oracle.name, oracle)
        return oracle

    def case(self):
        case = make_case(CAMPAIGN_CONFIGS[0], (), seed=0, index=0)
        assert len(case.taskset) > 1
        assert (case.taskset.criticalities == case.taskset.levels).any()
        return case

    def test_run_case_records_the_exception(self, raising):
        case = self.case()
        (record,) = [r for r in run_case(case) if r["oracle"] == raising.name]
        assert record["messages"] == [self.MESSAGE]
        assert record["set_index"] == case.set_index

    def test_shrink_case_shrinks_it(self, raising):
        shrunk, messages = shrink_case(raising, self.case())
        assert len(shrunk.taskset) == 1
        assert messages == [self.MESSAGE]
        doc = {
            "oracle": raising.name,
            "seed": shrunk.seed,
            "set_index": shrunk.set_index,
            "config": shrunk.config.to_dict(),
            "schemes": [s.to_dict() for s in shrunk.schemes],
            "taskset": taskset_to_dict(shrunk.taskset),
        }
        assert check_repro(doc) == [self.MESSAGE]


class TestSeededBugAcceptance:
    def test_corrupted_lambda_yields_small_repro_file(
        self, corrupted_lambda, tmp_path
    ):
        result = run_campaign(sets=20, seed=0, configs=CORRUPTIBLE)
        failures = [
            f for f in result.failures if f.oracle == "probe-scalar-batch"
        ]
        assert failures, "halved lambdas must make scalar and batch disagree"

        doc = shrink_failure(failures[0])
        assert len(doc["taskset"]["tasks"]) <= 4
        assert doc["oracle"] == "probe-scalar-batch"
        assert doc["messages"]

        path = write_repro(doc, tmp_path)
        assert path.name.startswith("probe-scalar-batch-seed0-set")
        loaded = load_repro(path)
        assert loaded == doc
        # Under the planted bug the repro replays red...
        assert check_repro(path)

    def test_repro_replays_green_once_fixed(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            from repro.analysis import edfvd

            true_lambda = edfvd.lambda_factors
            mp.setattr(edfvd, "lambda_factors", lambda m: true_lambda(m) * 0.5)
            result = run_campaign(sets=20, seed=0, configs=CORRUPTIBLE)
            failure = next(
                f for f in result.failures if f.oracle == "probe-scalar-batch"
            )
            path = write_repro(shrink_failure(failure), tmp_path)
            assert check_repro(path)
        # ...and green with the bug reverted: the file proves the fix.
        assert check_repro(path) == []


class TestReproFiles:
    def test_filenames_carry_the_config(self, tmp_path):
        # The campaign reuses seed and set indices across configs, so
        # two counterexamples for "set 0" must land in distinct files.
        base = {
            "format": "repro-mc-counterexample",
            "version": 1,
            "oracle": "probe-scalar-batch",
            "seed": 0,
            "set_index": 0,
            "taskset": {"tasks": []},
        }
        a = write_repro({**base, "config": {"cores": 4, "levels": 3, "nsu": 0.7}}, tmp_path)
        b = write_repro({**base, "config": {"cores": 4, "levels": 4, "nsu": 0.5}}, tmp_path)
        assert a != b
        assert a.name == "probe-scalar-batch-seed0-set0-M4K3-nsu0p7.json"
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_load_rejects_foreign_documents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ReproError, match="not a repro-mc-counterexample"):
            load_repro(bad)

    def test_load_rejects_unknown_version(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "repro-mc-counterexample", "version": 99}')
        with pytest.raises(ReproError, match="version"):
            load_repro(bad)
