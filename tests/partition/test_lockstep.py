"""The lockstep driver: many attempts stepped together == each alone.

``partition_lockstep`` groups every live attempt by ``(K, M, rule)``
and answers each group's step, its Eq.-(15) and its feasibility rows
together, with one stacked kernel call.  Because the batch kernel is
per-row independent, every attempt must come out
exactly as ``Partitioner.partition()`` makes it alone — placements,
Eq.-(9) utilizations, and the instrumentation it records — under both
backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine.core import _run_stats_shards
from repro.engine.spec import PointSpec, default_schemes
from repro.gen import WorkloadConfig, generate_taskset
from repro.model import MCTask, MCTaskSet
from repro.obs.trace import build_tree
from repro.partition import CATPAVariant, available_schemes, get_partitioner
from repro.partition import backend as backend_module
from repro.partition.ablation import ORDERINGS, SELECTIONS
from repro.partition.backend import get_backend
from repro.partition.base import partition_lockstep
from repro.partition.catpa import CATPA
from tests.conftest import random_taskset

#: Scheme factories drawn by the lockstep property.
_SCHEMES = [
    lambda: CATPA(alpha=None),
    lambda: CATPA(alpha=0.3),
    lambda: CATPA(eq9_rule="min"),
    *[
        (lambda order=order, selection=selection: CATPAVariant(order, selection))
        for order in ORDERINGS
        for selection in SELECTIONS
    ],
    *[
        (lambda name=name: get_partitioner(name))
        for name in available_schemes()
    ],
]


def _overloaded(levels: int) -> MCTaskSet:
    """A set whose heaviest task fits on no core: fails on its first task."""
    return MCTaskSet(
        [MCTask.from_utilizations([1.2], period=10.0, name="heavy"),
         MCTask.from_utilizations([0.1], period=20.0, name="light")],
        levels=levels,
    )


@st.composite
def _jobs(draw):
    jobs = []
    for _ in range(draw(st.integers(1, 7))):
        levels = draw(st.one_of(st.integers(1, 6), st.just(10)))
        scheme = draw(st.sampled_from(_SCHEMES))()
        cores = draw(st.sampled_from([1, 2, 8]))
        if draw(st.integers(0, 9)) == 0:
            taskset = _overloaded(levels)
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            taskset = random_taskset(
                rng,
                n=draw(st.integers(1, 12)),
                levels=levels,
                max_u=draw(st.sampled_from([0.2, 0.5, 0.9])),
            )
        jobs.append((scheme, taskset, cores))
    return jobs


def _assert_same(got, want) -> None:
    assert got.scheme == want.scheme
    assert got.schedulable == want.schedulable
    assert got.failed_task == want.failed_task
    assert got.order == want.order
    np.testing.assert_array_equal(got.assignment, want.assignment)
    assert got.core_utilizations().tobytes() == want.core_utilizations().tobytes()


class TestLockstepEqualsAlone:
    @settings(max_examples=40, deadline=None)
    @given(jobs=_jobs(), impl=st.sampled_from(["batch", "scalar"]))
    def test_mixed_attempts_match_one_at_a_time(self, jobs, impl):
        backend = get_backend(impl)
        together = partition_lockstep(jobs, backend)
        alone = [partition_lockstep([job], backend)[0] for job in jobs]
        assert len(together) == len(jobs)
        for got, want in zip(together, alone):
            _assert_same(got, want)

    def test_first_task_failure_reported(self):
        jobs = [(get_partitioner(n), _overloaded(2), 2) for n in ("ffd", "ca-tpa")]
        for result in partition_lockstep(jobs):
            assert not result.schedulable
            assert result.failed_task == 0
            assert (result.assignment == -1).all()


# ----------------------------------------------------------------------
# One stats shard of 10 sets x the 5 paper schemes
# ----------------------------------------------------------------------
SHARD_SETS = 10
SHARD_SEED = 2016
CONFIG = WorkloadConfig()  # the Fig.-1 default point, M = 8


def _shard_tasksets():
    return [
        generate_taskset(
            CONFIG,
            np.random.default_rng(np.random.SeedSequence(SHARD_SEED, spawn_key=(i,))),
        )
        for i in range(SHARD_SETS)
    ]


def _alone(tasksets):
    """The shard's attempts one at a time, set-major then scheme."""
    schemes = [spec.build() for spec in default_schemes()]
    return [p.partition(ts, CONFIG.cores) for ts in tasksets for p in schemes]


def _run_shard():
    point = PointSpec(CONFIG, tuple(default_schemes()), SHARD_SETS, SHARD_SEED)
    return _run_stats_shards([(point, 0, SHARD_SETS)], probe_impl="batch")[0]


@pytest.fixture
def kernel_log(monkeypatch):
    """Rows of every call through the two kernel names of the backend."""
    log: list[int] = []
    for name in ("_is_feasible_stack", "_core_utilization_stack"):
        kernel = getattr(backend_module, name)

        def counted(mats, *args, _kernel=kernel):
            log.append(int(mats.shape[0]))
            return _kernel(mats, *args)

        monkeypatch.setattr(backend_module, name, counted)
    return log


class TestStackedShard:
    def test_at_most_two_calls_per_step_over_the_same_rows(self, kernel_log):
        tasksets = _shard_tasksets()
        alone = _alone(tasksets)
        per_attempt_rows = sum(kernel_log)
        per_attempt_calls = len(kernel_log)
        kernel_log.clear()

        _run_shard()
        steps = max(
            len(r.order) if r.schedulable else r.order.index(r.failed_task) + 1
            for r in alone
        )
        assert len(kernel_log) <= steps  # one call per step
        assert len(kernel_log) < per_attempt_calls / 10
        assert sum(kernel_log) == per_attempt_rows

    def test_instrumented_shard_records_what_its_attempts_record(self):
        with obs.instrument() as state:
            _alone(_shard_tasksets())
            alone = state.registry.snapshot()
        with obs.instrument() as state:
            _run_shard()
            stacked = state.registry.snapshot()
            spans = list(state.spans)
        assert stacked["counters"] == alone["counters"]
        assert any(n.startswith("theorem1.") for n in stacked["counters"])
        attempts = SHARD_SETS * len(default_schemes())
        hists = stacked["histograms"]
        assert hists["partition.attempt.seconds"]["count"] == attempts
        # Stack width: the lockstep calls are wide, the lone ones are not.
        assert hists["partition.lockstep.rows"]["max"] > CONFIG.cores
        assert alone["histograms"]["partition.lockstep.rows"]["max"] == CONFIG.cores

        tree = build_tree(spans)
        records = [n for n in tree.walk() if n.name == "partition.attempt"]
        assert len(records) == attempts
        assert tree.orphans == []
        names = {spec.build().name for spec in default_schemes()}
        for node in records:
            assert node.scheme in names
            (probe,) = node.children
            assert probe.name == "probe" and probe.synthetic
            assert probe.calls >= 1
            assert 0.0 <= probe.seconds <= node.seconds

    def test_failed_step_marks_unfinished_attempt_spans(self, monkeypatch):
        def exploding(request):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(
            backend_module.BatchBackend, "answer", staticmethod(exploding)
        )
        jobs = [
            (get_partitioner(n), ts, CONFIG.cores)
            for ts in _shard_tasksets()[:2]
            for n in ("ca-tpa", "ffd")
        ]
        with obs.instrument() as state:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                partition_lockstep(jobs)
            records = [r for r in state.spans if r["name"] == "partition.attempt"]
        assert len(records) == len(jobs)
        assert all(r["error"] for r in records)
        schemes = sorted(r["scheme"] for r in records)
        assert schemes == ["ca-tpa", "ca-tpa", "ffd", "ffd"]
