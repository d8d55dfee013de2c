"""One data point through the engine: ``Engine(...).evaluate(PointSpec(...))``."""

import dataclasses
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.engine import Engine, PointSpec
from repro.engine import core as engine_core
from repro.experiments import SchemeSpec, default_schemes
from repro.gen import WorkloadConfig
from repro.types import ReproError


SMALL = WorkloadConfig(cores=2, levels=2, nsu=0.6, task_count_range=(8, 12))


def point(config, sets, seed=2016, schemes=None):
    """``config``'s point over ``schemes`` (the paper's five by default)."""
    schemes = default_schemes() if schemes is None else schemes
    return PointSpec(config=config, schemes=tuple(schemes), sets=sets, seed=seed)


class _BrokenFuture:
    def result(self):
        raise BrokenProcessPool("a child process terminated abruptly")


class _BrokenPool:
    """ProcessPoolExecutor stand-in whose workers always crash."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        return _BrokenFuture()

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


class TestSchemeSpec:
    def test_label_defaults_to_name(self):
        assert SchemeSpec.make("ffd").label == "ffd"

    def test_kwargs_forwarded(self):
        spec = SchemeSpec.make("ca-tpa", alpha=0.3)
        assert spec.build().alpha == 0.3

    def test_custom_label(self):
        spec = SchemeSpec.make("ca-tpa", label="ca-0.1", alpha=0.1)
        assert spec.label == "ca-0.1"

    def test_specs_are_picklable(self):
        import pickle

        spec = SchemeSpec.make("ca-tpa", alpha=0.5)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_default_schemes_are_the_papers_five(self):
        labels = [s.label for s in default_schemes()]
        assert labels == ["ca-tpa", "ffd", "bfd", "wfd", "hybrid"]


class TestEvaluatePoint:
    def test_returns_stats_per_scheme(self):
        stats = Engine().evaluate(point(SMALL, 10, seed=1))
        assert set(stats) == {"ca-tpa", "ffd", "bfd", "wfd", "hybrid"}
        for s in stats.values():
            assert s.total_sets == 10
            assert 0.0 <= s.sched_ratio <= 1.0

    def test_reproducible(self):
        a = Engine().evaluate(point(SMALL, 15, seed=3))
        b = Engine().evaluate(point(SMALL, 15, seed=3))
        assert a == b

    def test_seed_changes_results(self):
        a = Engine().evaluate(point(SMALL, 15, seed=3))
        b = Engine().evaluate(point(SMALL, 15, seed=4))
        assert a != b

    def test_parallel_matches_serial_bit_exact(self):
        # The docstring promises bit-reproducibility "regardless of the
        # worker count": finalize() sums per-set values with math.fsum
        # (exactly rounded, order-independent), so SchemeStats compare
        # *equal*, not merely approximately.
        serial = Engine(jobs=1).evaluate(point(SMALL, 12, seed=5))
        parallel = Engine(jobs=4).evaluate(point(SMALL, 12, seed=5))
        assert serial == parallel

    def test_scalar_probe_path_reproduces_batch_numbers(self):
        # The vectorized probe engine must not move any reference number:
        # a full evaluation under either implementation is identical.
        batch = Engine().evaluate(point(SMALL, 10, seed=7))
        scalar = Engine(probe_impl="scalar").evaluate(point(SMALL, 10, seed=7))
        assert batch == scalar

    def test_custom_scheme_list(self):
        specs = [
            SchemeSpec.make("ca-tpa", label="ca-a", alpha=0.1),
            SchemeSpec.make("ca-tpa", label="ca-b", alpha=None),
        ]
        stats = Engine().evaluate(point(SMALL, 8, seed=1, schemes=specs))
        assert set(stats) == {"ca-a", "ca-b"}

    def test_duplicate_labels_rejected(self):
        specs = [SchemeSpec.make("ffd"), SchemeSpec.make("ffd")]
        with pytest.raises(ReproError, match="duplicate"):
            point(SMALL, 4, schemes=specs)

    def test_zero_sets_rejected(self):
        with pytest.raises(ReproError):
            point(SMALL, 0)

    def test_quality_metrics_only_when_schedulable(self):
        # Overloaded config: nothing schedulable -> nan quality metrics.
        heavy = WorkloadConfig(cores=2, levels=2, nsu=2.5, task_count_range=(8, 10))
        stats = Engine().evaluate(point(heavy, 5, seed=1))
        for s in stats.values():
            assert s.sched_ratio == 0.0
            assert np.isnan(s.u_sys)


class TestWorkerCrashRecovery:
    def test_broken_pool_shards_are_rerun_inline(self, monkeypatch):
        expected = Engine(jobs=1).evaluate(point(SMALL, 10, seed=9))
        monkeypatch.setattr(engine_core, "ProcessPoolExecutor", _BrokenPool)
        recovered = Engine(jobs=3).evaluate(point(SMALL, 10, seed=9))
        # Every shard fell back to the inline path; the self-seeded
        # shards make the recovery bit-identical to a clean run.
        assert recovered == expected

    def test_double_failure_raises_repro_error_naming_shard(self, monkeypatch):
        monkeypatch.setattr(engine_core, "ProcessPoolExecutor", _BrokenPool)

        def explode(*args, **kwargs):
            raise RuntimeError("inline retry also died")

        stats_kind = engine_core._SHARD_KINDS["stats"]
        monkeypatch.setitem(
            engine_core._SHARD_KINDS,
            "stats",
            dataclasses.replace(stats_kind, run=explode),
        )
        with pytest.raises(ReproError, match=r"shard \[0, 3\)"):
            Engine(jobs=3).evaluate(point(SMALL, 10, seed=9))

    def _points(self):
        return [point(SMALL.with_(nsu=v), 6, seed=9) for v in (0.4, 0.5, 0.6)]

    def test_queued_shards_of_later_points_are_rerun_inline(self, monkeypatch):
        points = self._points()
        expected = [Engine(jobs=1).evaluate(point) for point in points]
        monkeypatch.setattr(engine_core, "ProcessPoolExecutor", _BrokenPool)
        engine = Engine(jobs=3)
        with engine.queued(points):
            recovered = [engine.evaluate(point) for point in points]
        assert repr(recovered) == repr(expected)
        assert engine.stats.worker_retries == 9

    def test_a_crashed_worker_salvages_every_queued_point(self, monkeypatch):
        # Every worker dies on its first shard: the pool breaks, and the
        # futures it still holds for later points fail with it.
        points = self._points()
        expected = [Engine(jobs=1).evaluate(point) for point in points]
        stats_kind = engine_core._SHARD_KINDS["stats"]

        def crash_in_worker(*args, **kwargs):
            if multiprocessing.parent_process() is not None:
                os._exit(3)
            return stats_kind.run(*args, **kwargs)

        monkeypatch.setitem(
            engine_core._SHARD_KINDS,
            "stats",
            dataclasses.replace(stats_kind, run=crash_in_worker),
        )
        engine = Engine(jobs=2)
        with engine.queued(points):
            recovered = [engine.evaluate(point) for point in points]
        assert repr(recovered) == repr(expected)
        assert engine.stats.worker_retries == engine.stats.shards_computed == 6
        assert multiprocessing.active_children() == []
