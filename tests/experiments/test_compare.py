"""Paired head-to-head evidence from a plain stats point.

Every scheme of a stats point runs on the same task sets, so each
``SchemeStats.wins[b]`` counts the sets the scheme schedules and ``b``
does not; :func:`format_head_to_head` prints them with an exact
two-sided sign test per scheme pair.
"""

import pytest

from repro.engine import Engine, PointSpec
from repro.experiments import SchemeSpec, format_head_to_head
from repro.experiments.report import sign_test_p
from repro.gen import WorkloadConfig
from repro.types import ReproError

CFG = WorkloadConfig(cores=2, levels=2, nsu=0.8, task_count_range=(6, 8))
SPECS = tuple(SchemeSpec.make(n) for n in ("ca-tpa", "ffd", "wfd"))

#: The dominance matrix of the same 30 sets as counted by the retired
#: head-to-head shard kind (``wins[a][b]``: a schedules, b does not).
PARENT_WINS = {
    "ca-tpa": {"ffd": 1, "wfd": 2},
    "ffd": {"ca-tpa": 1, "wfd": 2},
    "wfd": {"ca-tpa": 0, "ffd": 0},
}
PARENT_ACCEPTED = {"ca-tpa": 17, "ffd": 17, "wfd": 15}


@pytest.fixture(scope="module")
def result():
    return Engine(jobs=1).evaluate(PointSpec(CFG, SPECS, sets=30, seed=1))


class TestHeadToHead:
    def test_wins_match_the_retired_head_to_head_matrix(self, result):
        assert {a: s.wins for a, s in result.items()} == PARENT_WINS
        assert {a: s.schedulable_sets for a, s in result.items()} == PARENT_ACCEPTED

    def test_counts_consistent(self, result):
        for a, stats in result.items():
            assert 0 <= stats.schedulable_sets <= stats.total_sets
            for b, wins in stats.wins.items():
                # wins(a,b) - wins(b,a) == accepted(a) - accepted(b)
                diff = wins - result[b].wins[a]
                assert diff == stats.schedulable_sets - result[b].schedulable_sets

    def test_ratio(self, result):
        for stats in result.values():
            assert stats.sched_ratio == stats.schedulable_sets / 30

    def test_reproducible(self, result):
        again = Engine(jobs=1).evaluate(PointSpec(CFG, SPECS, sets=30, seed=1))
        assert again == result

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ReproError):
            PointSpec(CFG, (SchemeSpec.make("ffd"), SchemeSpec.make("ffd")), sets=2)

    def test_zero_sets_rejected(self):
        with pytest.raises(ReproError):
            PointSpec(CFG, (SchemeSpec.make("ffd"),), sets=0)

    def test_formatting(self, result):
        text = format_head_to_head(result)
        assert "ca-tpa" in text and "ffd" in text
        assert "ratio" in text
        assert "30 common task sets" in text
        # One sign-test row per pair: both discordant counts and p.
        assert "ca-tpa vs wfd          2 : 0     p = 0.5" in text
        assert text.count(" vs ") == 3


class TestSignTest:
    @pytest.mark.parametrize(
        "b, c, p",
        [(2, 24, 1.049041748046875e-05), (3, 12, 0.03515625), (0, 0, 1.0)],
    )
    def test_exact_two_sided_p(self, b, c, p):
        assert sign_test_p(b, c) == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("b, c", [(2, 24), (3, 12), (0, 5), (7, 7)])
    def test_symmetric(self, b, c):
        assert sign_test_p(b, c) == sign_test_p(c, b)

    def test_balanced_counts_give_one(self):
        assert sign_test_p(7, 7) == 1.0


class TestHyperperiod:
    def test_integer_periods(self):
        from repro.model import MCTask, MCTaskSet

        ts = MCTaskSet([MCTask((1.0,), 12.0), MCTask((1.0,), 18.0)])
        assert ts.hyperperiod() == 36.0

    def test_non_integer_periods_give_none(self):
        from repro.model import MCTask, MCTaskSet

        ts = MCTaskSet([MCTask((1.0,), 12.5)])
        assert ts.hyperperiod() is None

    def test_generated_workloads_have_hyperperiods(self, rng):
        from repro.gen import WorkloadConfig, generate_taskset

        ts = generate_taskset(
            WorkloadConfig(task_count_range=(5, 8)), rng
        )
        assert ts.hyperperiod() is not None
        for t in ts:
            assert (ts.hyperperiod() / t.period) == int(ts.hyperperiod() / t.period)
