"""Bit-exact pins of generated task sets, and the array path's rejections.

Each case digest hashes, over a few seeded sets, the raw bytes of
``utilization_matrix`` and ``criticalities`` and the ``repr`` of every
materialized task's ``(wcets, period, name)``.  The corpus covers every
figure's default point and its swept extremes (NSU, IFC, M, K), the
``exact_nsu`` and ``crit_weights`` knobs, a fixed ``n_tasks`` and
``generate_batch``.

The values were captured while the generator still built one
:class:`~repro.model.MCTask` per task; building the sets from arrays
must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.gen import WorkloadConfig, generate_batch, generate_taskset
from repro.model import MCTask, MCTaskSet
from repro.types import ModelError

SEED = 41
SETS = 3
DEFAULT = WorkloadConfig()

CONFIGS = {
    "default": DEFAULT,
    "nsu-0.4": DEFAULT.with_(nsu=0.4),
    "nsu-0.8": DEFAULT.with_(nsu=0.8),
    "ifc-0.3": DEFAULT.with_(ifc=0.3),
    "ifc-0.7": DEFAULT.with_(ifc=0.7),
    "m-2": DEFAULT.with_(cores=2),
    "m-32": DEFAULT.with_(cores=32),
    "k-2": DEFAULT.with_(levels=2),
    "k-6": DEFAULT.with_(levels=6),
    "exact-nsu": DEFAULT.with_(exact_nsu=True),
    "crit-weights": DEFAULT.with_(crit_weights=(4.0, 2.0, 1.0, 1.0)),
}

EXPECTED = {
    "batch": ("58ce02fca3b8af5f", "990cfd792c592c1a", "c75df5d84d809e3b"),
    "crit-weights": ("c081faa76f3dd320", "2d1996756631b4c3", "0f4d07c32201a054"),
    "default": ("2b1f532475ff46cd", "5323edf808fdd4f8", "cd2795320603ce31"),
    "exact-nsu": ("b6ba1429e20ed1ff", "5323edf808fdd4f8", "214b371b051818d6"),
    "ifc-0.3": ("010870ef151b8631", "5323edf808fdd4f8", "96072e70e029a3c9"),
    "ifc-0.7": ("9e175df6be32038b", "5323edf808fdd4f8", "b55565a424bcec57"),
    "k-2": ("1385e1c069843a86", "b44dfec7d8ed4f7e", "758a9f9bbbc8f044"),
    "k-6": ("fd550ad313a747c9", "155d855b4d7a7927", "aca231cdc33f1460"),
    "m-2": ("84848b2e000e7517", "5323edf808fdd4f8", "f711b61b81a0460d"),
    "m-32": ("f4a461e38fa4dbb7", "5323edf808fdd4f8", "217044c0c758f6f2"),
    "n-tasks-7": ("f931e64a4297d7ee", "6075854868902d0a", "db3a254b0968bd72"),
    "nsu-0.4": ("caa1c3a1a3601d27", "5323edf808fdd4f8", "5f55a8fbf2133434"),
    "nsu-0.8": ("e8f3c2acb9b8a753", "5323edf808fdd4f8", "3604d658dfaf1913"),
}


def _rng(i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(i,)))


def _cases() -> dict[str, list[MCTaskSet]]:
    cases = {
        name: [generate_taskset(config, _rng(i)) for i in range(SETS)]
        for name, config in CONFIGS.items()
    }
    cases["n-tasks-7"] = [
        generate_taskset(DEFAULT, _rng(i), n_tasks=7) for i in range(SETS)
    ]
    cases["batch"] = generate_batch(DEFAULT.with_(levels=3), SETS, SEED)
    return cases


def _digest(tasksets: list[MCTaskSet]) -> tuple[str, str, str]:
    umat, crit, tasks = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for ts in tasksets:
        umat.update(repr((len(ts), ts.levels)).encode())
        umat.update(ts.utilization_matrix.tobytes())
        crit.update(ts.criticalities.astype(np.int64).tobytes())
        for task in ts:
            tasks.update(repr((task.wcets, task.period, task.name)).encode())
    return tuple(h.hexdigest()[:16] for h in (umat, crit, tasks))


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_generated_sets_are_bit_identical(case):
    assert _digest(_cases()[case]) == EXPECTED[case]


def test_corpus_is_pinned_whole():
    assert sorted(_cases()) == sorted(EXPECTED)


# ----------------------------------------------------------------------
# The array path rejects what the task objects reject
# ----------------------------------------------------------------------
GOOD_WCETS = np.array([[1.0, 2.0], [3.0, 0.0]])
GOOD_PERIODS = np.array([10.0, 20.0])
GOOD_CRITS = np.array([2, 1])


def _with(array, index, value):
    out = np.array(array, dtype=np.float64)
    out[index] = value
    return out


@pytest.mark.parametrize(
    "wcets, periods",
    [
        (_with(GOOD_WCETS, (0, 0), 0.0), GOOD_PERIODS),
        (_with(GOOD_WCETS, (1, 0), -1.0), GOOD_PERIODS),
        (_with(GOOD_WCETS, (0, 1), np.inf), GOOD_PERIODS),
        (_with(GOOD_WCETS, (0, 0), np.nan), GOOD_PERIODS),
        (_with(GOOD_WCETS, (0, 1), 0.5), GOOD_PERIODS),  # c(2) < c(1)
        (GOOD_WCETS, _with(GOOD_PERIODS, 0, 0.0)),
        (GOOD_WCETS, _with(GOOD_PERIODS, 1, -5.0)),
        (GOOD_WCETS, _with(GOOD_PERIODS, 0, np.inf)),
        (GOOD_WCETS, _with(GOOD_PERIODS, 1, np.nan)),
    ],
    ids=["zero-wcet", "negative-wcet", "inf-wcet", "nan-wcet", "decreasing",
         "zero-period", "negative-period", "inf-period", "nan-period"],
)
def test_array_path_rejects_what_mctask_rejects(wcets, periods):
    with pytest.raises(ModelError):
        [MCTask(tuple(w[:l]), p) for w, p, l in zip(wcets, periods, GOOD_CRITS)]
    with pytest.raises(ModelError):
        MCTaskSet.from_arrays(wcets, periods, GOOD_CRITS)


@pytest.mark.parametrize(
    "wcets, periods",
    [
        (GOOD_WCETS.astype(str), GOOD_PERIODS),
        (GOOD_WCETS > 0, GOOD_PERIODS),
        (GOOD_WCETS, GOOD_PERIODS.astype(str)),
        (GOOD_WCETS, GOOD_PERIODS > 0),
    ],
    ids=["str-wcets", "bool-wcets", "str-periods", "bool-periods"],
)
def test_array_path_rejects_non_real_dtypes(wcets, periods):
    # float() would coerce each of these; MCTask rejects them too.
    with pytest.raises(ModelError, match="must be real numbers"):
        MCTaskSet.from_arrays(wcets, periods, GOOD_CRITS)


def test_array_path_ignores_columns_above_each_criticality():
    # Task 1 has l = 1: its padding column may hold anything.
    ts = MCTaskSet.from_arrays(_with(GOOD_WCETS, (1, 1), np.nan), GOOD_PERIODS,
                               GOOD_CRITS)
    assert ts == MCTaskSet.from_arrays(GOOD_WCETS, GOOD_PERIODS, GOOD_CRITS)
    assert ts.wcet_matrix[1, 1] == 0.0


@pytest.mark.parametrize("crits", [[3, 1], [0, 1]], ids=["above-k", "below-1"])
def test_array_path_rejects_criticality_outside_levels(crits):
    wcets = np.ones((2, 3))
    with pytest.raises(ModelError):
        MCTaskSet.from_arrays(wcets, GOOD_PERIODS, np.array(crits), levels=2)


def test_array_path_equals_object_path():
    arrays = MCTaskSet.from_arrays(GOOD_WCETS, GOOD_PERIODS, GOOD_CRITS, levels=3)
    objects = MCTaskSet(
        [MCTask((1.0, 2.0), 10.0, "tau_1"), MCTask((3.0,), 20.0, "tau_2")], levels=3
    )
    assert arrays == objects
    for name in ("wcet_matrix", "periods", "utilization_matrix", "criticalities"):
        np.testing.assert_array_equal(getattr(arrays, name), getattr(objects, name))
