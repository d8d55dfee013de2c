"""Bit-exact pins of the simulator's reports over a small seeded corpus.

Each digest hashes the exact ``repr`` of every :class:`CoreReport`
field (misses, trace events and slices included) plus the evented
runs' ``event_telemetry()``.  Float ``repr`` round-trips, so any change
in event order, RNG draw order or float arithmetic inside the simulator
changes a digest.  The values were captured before the release path
moved from a per-event array scan to a heap timeline, and ``per-task``
before the run loop began caching each entry's deadline scale; a
refactor of the simulator that means to change no behaviour must leave
them unchanged.  Only ``per-task`` runs plans that scale each task on
its own (``DualPerTaskPlan``): the others scale by level.

``honest``, ``level``, ``random`` and ``faulty`` run on one simulator
per corpus partition, in either order, so the pins also hold a reused
simulator to the reports of a fresh one.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis import assign_virtual_deadlines, tune_virtual_deadlines
from repro.gen import WorkloadConfig, generate_taskset
from repro.model import MCTask, MCTaskSet
from repro.sched import (
    CoreSimulator,
    FaultyScenario,
    HonestScenario,
    LevelScenario,
    RandomScenario,
    SporadicReleases,
    SystemSimulator,
    default_horizon,
)
from repro.validate import CAMPAIGN_CONFIGS, make_case
from repro.validate.oracles import _case_event_script

#: (campaign config, set index) pairs of the corpus: sets at seed 2016
#: that some scheme partitions, covering every config (K = 2, 3, 4)
#: and both a CA-TPA and an FFD partition.
CORPUS = [(0, 0), (0, 7), (1, 8), (1, 10), (2, 8), (3, 2), (3, 3)]
SEED = 2016

EXPECTED = {
    "honest": "866a453a07bf73f9",
    "level": "d408935ba7113da9",
    "random": "aded86ab7c4039f7",
    "faulty": "2cbefd8aec4a51f5",
    "sporadic": "48c232c59788062b",
    "traced-core": "7fcd726f580a5c57",
    "evented": "c766629de988262b",
    "per-task": "b9de363bbfcf6086",
}

#: Two releases 5e-10 apart (inside ``TIME_EPS``) are due at one event.
#: They must be processed in task-index order even though the later
#: instant belongs to the lower index: their ``seq`` and RNG draws
#: follow that order.
COINCIDENT_DIGEST = "dfcaaa0df91b7099"
COINCIDENT_BUSY_TIME = 56.99223919624541

#: The kinds that share one simulator per corpus partition; ``sporadic``
#: builds its own, since releases bind at construction.
SHARED = ("honest", "level", "random", "faulty")


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _core(report):
    return None if report is None else dataclasses.asdict(report)


def _system(report):
    return ([_core(r) for r in report.core_reports], report.event_telemetry())


def _cases():
    for config, index in CORPUS:
        case = make_case(CAMPAIGN_CONFIGS[config], (), seed=SEED, index=index)
        _, result = case.first_schedulable()
        if result is not None:
            partition = result.partition
            yield case, partition, default_horizon(partition, case.sim_cycles)


def _shared_runs(order: tuple[str, ...]) -> dict[str, list]:
    """Each ``SHARED`` kind's reports, run in ``order`` on one simulator
    per corpus partition."""
    payloads = {kind: [] for kind in order}
    for case, partition, horizon in _cases():
        sim = SystemSimulator(partition, horizon=horizon)
        for kind in order:
            scenario = {
                "honest": HonestScenario(),
                "level": LevelScenario(target=case.taskset.levels),
                "random": RandomScenario(overrun_prob=0.3),
                "faulty": FaultyScenario(excess=0.5),
            }[kind]
            payloads[kind].append(_system(sim.run(scenario, seed=case.sim_seed(7))))
    return payloads


def _sporadic(case, partition, horizon):
    sim = SystemSimulator(partition, horizon=horizon, releases=SporadicReleases(0.5))
    return _system(sim.run(RandomScenario(overrun_prob=0.3), seed=case.sim_seed(7)))


def _traced_core(case, partition, horizon):
    core = next(m for m in range(partition.cores) if partition.core_size(m))
    subset = partition.taskset.subset(partition.tasks_on(core))
    return _core(
        CoreSimulator(
            subset=subset,
            plan=assign_virtual_deadlines(subset),
            scenario=RandomScenario(overrun_prob=0.3),
            rng=np.random.default_rng(case.sim_seed(101)),
            horizon=horizon,
            record_trace=True,
        ).run()
    )


def _evented(case, partition, horizon):
    sim = SystemSimulator(
        partition,
        horizon=horizon,
        allow_infeasible=True,
        events=_case_event_script(case, partition, horizon),
    )
    return _system(sim.run(RandomScenario(overrun_prob=0.3), seed=case.sim_seed(606)))


def _per_task_plans():
    """Traced core runs of per-task deadline plans (``DualPerTaskPlan``),
    which scale each task on its own, not by level.  The corpus is the
    plannable sets of ``test_tuned_plans_survive_simulation``."""
    cfg = WorkloadConfig(cores=1, levels=2, nsu=0.7, task_count_range=(5, 5))
    payload = []
    for i in range(30):
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(i,)))
        taskset = generate_taskset(cfg, rng)
        plan = tune_virtual_deadlines(taskset)
        if plan is None:
            continue
        horizon = 25.0 * max(t.period for t in taskset)
        for scenario in (LevelScenario(2), RandomScenario(0.4)):
            report = CoreSimulator(
                taskset,
                plan,
                scenario,
                np.random.default_rng(i),
                horizon,
                record_trace=True,
            ).run()
            payload.append(_core(report))
    return payload


def corpus_digest(kind: str) -> str:
    if kind == "per-task":
        return _digest(_per_task_plans())
    if kind in SHARED:
        return _digest(_shared_runs(SHARED)[kind])
    runs = {"traced-core": _traced_core, "evented": _evented, "sporadic": _sporadic}
    return _digest([runs[kind](*case) for case in _cases()])


def coincident_report():
    subset = MCTaskSet(
        [
            MCTask(wcets=(3.0,), period=10.0 + 5e-10),
            MCTask(wcets=(2.0, 4.0), period=10.0),
        ],
        levels=2,
    )
    return CoreSimulator(
        subset=subset,
        plan=assign_virtual_deadlines(subset),
        scenario=RandomScenario(overrun_prob=0.5),
        rng=np.random.default_rng(3),
        horizon=200.0,
        record_trace=True,
    ).run()


class TestPinnedDigests:
    def test_corpus_has_every_config(self):
        assert len(list(_cases())) == len(CORPUS)

    @pytest.mark.parametrize("kind", sorted(EXPECTED))
    def test_corpus_reports_unchanged(self, kind):
        assert corpus_digest(kind) == EXPECTED[kind]

    def test_reused_simulator_in_reverse_order_unchanged(self):
        order = SHARED[::-1]
        digests = {kind: _digest(p) for kind, p in _shared_runs(order).items()}
        assert digests == {kind: EXPECTED[kind] for kind in order}

    def test_near_coincident_releases_keep_index_order(self):
        report = coincident_report()
        assert report.busy_time == COINCIDENT_BUSY_TIME
        assert _digest(_core(report)) == COINCIDENT_DIGEST
