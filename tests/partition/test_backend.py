"""The pluggable probe-backend layer: registry, protocol, equivalence.

Pins the guarantees of the two-backend probe layer, every probe asked
the one way callers ask it — :meth:`ProbeBackend.answer` of a
:func:`~repro.partition.backend.probe_request`:

* the registry resolves by name and rejects unknown names with a clean
  :class:`~repro.types.ReproError` (never a bare ``KeyError``);
* probes on an incrementally mutated partition — arbitrary
  ``assign``/``unassign``/``extended`` interleavings — are bit-identical
  to batch probes on a from-scratch rebuild, under every backend;
* a core selection (``probe_request(..., cores=...)``) answers exactly
  the matching columns of the full grid, which is what lets the serve
  flush re-probe only the placed core;
* observability: every evaluated hypothesis counts as
  ``probe.cores_probed``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model import MCTaskSet, Partition
from repro.obs import runtime as obs
from repro.partition.backend import (
    BatchBackend,
    ProbeBackend,
    ScalarBackend,
    available_backends,
    get_backend,
    probe_request,
    register_backend,
)
from repro.partition.base import FEASIBLE
from repro.types import EPS, ModelError, PartitionError, ReproError, fits_unit_capacity
from tests.conftest import (
    attempt_request,
    eq15_rows,
    feasible_row,
    make_task,
    random_taskset,
)

BATCH = BatchBackend()
SCALAR = ScalarBackend()


def fresh_rebuild(partition: Partition) -> Partition:
    """A from-scratch partition with the same assignment (cold caches)."""
    return Partition.from_assignment(
        partition.taskset, partition.cores, partition.assignment
    )


def assert_backend_parity(part: Partition, idx: list[int]) -> None:
    """Every backend on the mutated partition == batch on a rebuild."""
    cold = fresh_rebuild(part)
    for backend in (BATCH, SCALAR):
        for i in idx:
            np.testing.assert_array_equal(
                eq15_rows(backend, part, [i]), eq15_rows(BATCH, cold, [i])
            )
            np.testing.assert_array_equal(
                feasible_row(backend, part, i), feasible_row(BATCH, cold, i)
            )
        if idx:
            np.testing.assert_array_equal(
                eq15_rows(backend, part, idx), eq15_rows(BATCH, cold, idx)
            )


class TestRegistry:
    def test_both_backends_registered(self):
        assert available_backends() == ("batch", "scalar")

    def test_get_backend_returns_named_instance(self):
        for name in available_backends():
            assert get_backend(name).name == name

    def test_unknown_name_is_a_repro_error(self):
        with pytest.raises(ReproError, match="unknown probe implementation"):
            get_backend("simd")

    def test_unknown_name_is_not_a_key_error(self):
        try:
            get_backend("simd")
        except KeyError:  # pragma: no cover - the bug this test pins
            pytest.fail("get_backend leaked a KeyError")
        except ReproError as exc:
            assert "available" in str(exc)

    def test_register_requires_a_name(self):
        class Anonymous(ProbeBackend):
            def answer(self, request):
                raise NotImplementedError

        with pytest.raises(ModelError, match="name"):
            register_backend(Anonymous())

    def test_answer_is_the_only_probe_method(self):
        assert ProbeBackend.__abstractmethods__ == {"answer"}


class TestIncrementalEquivalence:
    """Probes on an incrementally mutated partition == a cold rebuild."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_assign_unassign_interleaving(self, seed):
        rng = np.random.default_rng(seed)
        ts = random_taskset(rng, n=14, levels=3, max_u=0.4)
        part = Partition(ts, cores=4)
        unplaced = list(range(len(ts)))
        for _ in range(60):
            action = rng.random()
            assigned = [i for i in range(len(ts)) if part.core_of(i) >= 0]
            if action < 0.6 and unplaced:
                i = unplaced.pop(int(rng.integers(len(unplaced))))
                part.assign(i, int(rng.integers(4)))
            elif assigned:
                i = assigned[int(rng.integers(len(assigned)))]
                part.unassign(i)
                unplaced.append(i)
            probe_idx = (unplaced + assigned)[:5]
            assert_backend_parity(part, probe_idx)

    def test_cached_utilizations_see_mutation(self, rng):
        ts = random_taskset(rng, n=10, levels=3, max_u=0.5)
        part = Partition(ts, cores=3)
        # Warm the Eq.-(9) cache, mutate, re-read: the read must see the
        # mutation, not the stale entry.
        part.core_utilizations()
        part.assign(1, 0)
        np.testing.assert_array_equal(
            part.core_utilizations(), fresh_rebuild(part).core_utilizations()
        )
        got = eq15_rows(BATCH, part, [0])
        want = eq15_rows(BATCH, fresh_rebuild(part), [0])
        np.testing.assert_array_equal(got, want)

    def test_repeated_probe_is_stable(self, rng):
        ts = random_taskset(rng, n=8)
        part = Partition(ts, cores=3)
        part.assign(0, 1)
        for backend in (BATCH, SCALAR):
            first = eq15_rows(backend, part, [2])
            second = eq15_rows(backend, part, [2])
            np.testing.assert_array_equal(first, second)
            # Returned rows are fresh arrays: the caller cannot poison
            # a later answer.
            first[:] = -1.0
            np.testing.assert_array_equal(eq15_rows(backend, part, [2]), second)

    def test_duplicate_task_indices_in_micro_batch(self, rng):
        ts = random_taskset(rng, n=8)
        part = Partition(ts, cores=3)
        part.assign(0, 0)
        want = eq15_rows(BATCH, fresh_rebuild(part), [2, 2, 3])
        np.testing.assert_array_equal(want[0], want[1])
        for backend in (BATCH, SCALAR):
            got = eq15_rows(backend, part, [2, 2, 3])
            np.testing.assert_array_equal(got, want)

    def test_preference_order_scans_match_all_backends(self, rng):
        """First-hit requests: the lazy scalar row and the full batch
        row agree on every entry up to and including the first hit."""
        for _ in range(10):
            ts = random_taskset(rng, n=10, levels=3, max_u=0.6)
            order = [int(m) for m in np.argsort(rng.random(4))]
            for kind in (FEASIBLE, "max", "min"):
                rows = []
                part = Partition(ts, cores=4)
                part.assign(0, 2)
                rule = None if kind == FEASIBLE else kind
                for backend in (BATCH, SCALAR):
                    admits, utils = backend.answer(
                        attempt_request(part, 1, order, rule=rule)
                    )
                    rows.append(admits[0] if rule is None else utils[0])
                hits = [
                    bool(v) if kind == FEASIBLE else bool(np.isfinite(v))
                    for v in (rows[0][m] for m in order)
                ]
                first = hits.index(True) if True in hits else len(order) - 1
                for m in order[: first + 1]:
                    assert rows[0][m] == rows[1][m]


class TestInvalidation:
    """``unassign`` and ``extended`` leave nothing stale behind."""

    def test_unassign_then_probe_same_core(self, rng):
        ts = random_taskset(rng, n=10, levels=3, max_u=0.4)
        part = Partition(ts, cores=3)
        for i in range(6):
            part.assign(i, i % 3)
        before = eq15_rows(BATCH, part, [7])
        part.unassign(3)  # core 0 shrinks
        want = eq15_rows(BATCH, fresh_rebuild(part), [7])
        for backend in (BATCH, SCALAR):
            np.testing.assert_array_equal(eq15_rows(backend, part, [7]), want)
        # Only core 0 changed, so only its column may move.
        np.testing.assert_array_equal(want[:, 1:], before[:, 1:])

    def test_unassign_then_candidate_stacks_on_warm_prefix(self, rng):
        """unassign + probes on an ``extended`` (warm-prefix) partition.

        The warm-prefix path carries level matrices and counts
        verbatim; ``unassign`` on the grown partition must rebuild the
        core from its remaining tasks, old and new alike.
        """
        ts = random_taskset(rng, n=8, levels=2, max_u=0.4)
        part = Partition(ts, cores=3)
        for i in range(8):
            part.assign(i, i % 3)
        ext = part.extended([make_task([0.1, 0.2], period=50.0, name="new")])
        assert len(ext.taskset) == 9
        ext.unassign(0)  # mutate a prefix core of the carried matrices
        fresh = fresh_rebuild(ext)
        np.testing.assert_array_equal(
            eq15_rows(BATCH, ext, list(range(9))),
            eq15_rows(BATCH, fresh, list(range(9))),
        )
        np.testing.assert_array_equal(
            probe_request(ext.level_matrices(), ext.taskset, np.arange(9)).stack,
            probe_request(fresh.level_matrices(), fresh.taskset, np.arange(9)).stack,
        )

    def test_snapshot_stays_consistent(self, rng):
        ts = random_taskset(rng, n=6)
        part = Partition(ts, cores=2)
        part.assign(0, 0)
        part.freeze()
        want = eq15_rows(BATCH, fresh_rebuild(part), [1])
        # The next commit grows a new partition; the frozen one stays.
        ext = part.extended([make_task([0.1, 0.2], period=50.0, name="new")])
        ext.assign(2, 0)
        ext.assign(6, 0)
        for backend in (BATCH, SCALAR):
            np.testing.assert_array_equal(eq15_rows(backend, part, [1]), want)


class TestColumnSelection:
    """``probe_request(..., cores=...)`` == the matching full-grid columns."""

    @pytest.mark.parametrize("backend", [BATCH, SCALAR], ids=lambda b: b.name)
    def test_selected_columns_match_full_grid(self, rng, backend):
        for _ in range(5):
            ts = random_taskset(rng, n=12, levels=3, max_u=0.4)
            part = Partition(ts, cores=4)
            for i in range(0, 12, 2):
                part.assign(i, int(rng.integers(4)))
            idx = list(range(1, 12, 2))
            full = eq15_rows(backend, part, idx)
            for cores in ([2], [3, 0], [1, 1], []):
                got = eq15_rows(backend, part, idx, cores=cores)
                assert got.shape == (len(idx), len(cores))
                np.testing.assert_array_equal(got, full[:, cores])

    def test_empty_task_list_keeps_the_column_count(self, rng):
        part = Partition(random_taskset(rng, n=4), cores=3)
        for backend in (BATCH, SCALAR):
            assert eq15_rows(backend, part, [], cores=[1]).shape == (0, 1)
            assert eq15_rows(backend, part, []).shape == (0, 3)

    @pytest.mark.parametrize("cores", [[3], [-1], [[0]]])
    def test_out_of_range_selection_rejected(self, rng, cores):
        part = Partition(random_taskset(rng, n=4), cores=3)
        with pytest.raises(PartitionError, match="cores must be"):
            probe_request(part.level_matrices(), part.taskset, [0], cores=cores)


class TestObservability:
    def test_micro_batch_counts_rows_as_calls(self, rng):
        ts = random_taskset(rng, n=8)
        part = Partition(ts, cores=2)
        with obs.collect() as registry:
            eq15_rows(BATCH, part, [0, 1, 2])
            eq15_rows(BATCH, part, [0, 1, 2], cores=[1])
            counters = registry.snapshot()["counters"]
        assert counters["probe.calls.batch"] == 6
        assert counters["probe.cores_probed"] == 9

    def test_scalar_probes_count_every_hypothesis(self, rng):
        ts = random_taskset(rng, n=6)
        part = Partition(ts, cores=2)
        scalar = get_backend("scalar")
        with obs.collect() as registry:
            eq15_rows(scalar, part, [0])
            eq15_rows(scalar, part, [1, 2])
            eq15_rows(scalar, part, [1, 2], cores=[0])
            counters = registry.snapshot()["counters"]
        # Scalar counts one call per evaluated (task, core) hypothesis.
        assert counters["probe.calls.scalar"] == 2 + 4 + 2
        assert "probe.calls.batch" not in counters


class TestEpsBoundary:
    """fits_unit_capacity boundary: probes at exactly 1.0 +/- eps."""

    def _single_core_probe(self, util: float) -> np.ndarray:
        ts = MCTaskSet(
            [make_task([util], period=10.0, name="a")], levels=1
        )
        part = Partition(ts, cores=1)
        return feasible_row(BATCH, part, 0)

    def test_exactly_unit_capacity_is_feasible(self):
        assert fits_unit_capacity(1.0)
        assert self._single_core_probe(1.0).all()

    def test_within_eps_above_unit_is_feasible(self):
        assert fits_unit_capacity(1.0 + EPS / 2)
        assert self._single_core_probe(1.0 + EPS / 2).all()

    def test_clearly_above_unit_is_infeasible(self):
        assert not fits_unit_capacity(1.0 + 1e-6)
        assert not self._single_core_probe(1.0 + 1e-6).any()

    def test_boundary_agrees_across_backends(self):
        for util in (1.0 - EPS, 1.0, 1.0 + EPS / 2, 1.0 + 4 * EPS, 1.01):
            ts = MCTaskSet(
                [make_task([util], period=10.0, name="a")], levels=1
            )
            answers = set()
            for name in available_backends():
                part = Partition(ts, cores=2)
                answers.add(feasible_row(get_backend(name), part, 0).tobytes())
            assert len(answers) == 1
