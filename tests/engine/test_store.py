"""Tests for the content-addressed shard checkpoint store."""

import json
import os
import threading
import time

from repro.engine.spec import PointSpec, SchemeSpec, default_schemes
from repro.engine.store import STALE_TEMP_SECONDS, ResultStore, shard_key
from repro.gen.params import WorkloadConfig


def _point(**overrides) -> PointSpec:
    fields = dict(
        config=WorkloadConfig(cores=2),
        schemes=tuple(default_schemes()),
        sets=20,
        seed=5,
        kind="stats",
    )
    fields.update(overrides)
    return PointSpec(**fields)


class TestShardKey:
    def test_deterministic(self):
        assert shard_key(_point(), 0, 10) == shard_key(_point(), 0, 10)

    def test_sensitive_to_every_input(self):
        base = shard_key(_point(), 0, 10)
        assert shard_key(_point(seed=6), 0, 10) != base
        assert shard_key(_point(config=WorkloadConfig(cores=4)), 0, 10) != base
        assert shard_key(_point(schemes=(SchemeSpec.make("ffd"),)), 0, 10) != base
        assert shard_key(_point(kind="validate"), 0, 10) != base
        assert shard_key(_point(), 5, 10) != base
        assert shard_key(_point(), 0, 5) != base

    def test_key_ignores_total_sets(self):
        # The shard range, not the point's total, addresses the content:
        # a 2000-set re-run reuses the shards of an earlier 1000-set run
        # wherever the ranges line up.
        assert shard_key(_point(sets=20), 0, 10) == shard_key(_point(sets=40), 0, 10)

    def test_params_address_distinct_content(self):
        # Two dynsim points differing only in burst factor must never
        # share a checkpoint shard.
        burst2 = _point(kind="dynsim", params=(("burst_factor", 2.0),))
        burst3 = _point(kind="dynsim", params=(("burst_factor", 3.0),))
        assert shard_key(burst2, 0, 10) != shard_key(burst3, 0, 10)
        assert shard_key(burst2, 0, 10) != shard_key(_point(kind="dynsim"), 0, 10)
        assert shard_key(burst2, 0, 10) == shard_key(burst2, 0, 10)


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"x": [1.5, 2.5], "kind": "stats"})
        assert store.get("ab" * 32) == {"x": [1.5, 2.5], "kind": "stats"}
        assert store.hits == 1 and store.misses == 0

    def test_miss_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("cd" * 32) is None
        assert store.misses == 1

    def test_contains_and_len(self, tmp_path):
        store = ResultStore(tmp_path)
        assert len(store) == 0
        store.put("ab" * 32, {"v": 1})
        store.put("cd" * 32, {"v": 2})
        assert "ab" * 32 in store
        assert "ef" * 32 not in store
        assert len(store) == 2

    def test_corrupt_entry_is_purged_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" * 32
        store.put(key, {"v": 1})
        store._path(key).write_text("{torn checkpoint")
        assert store.get(key) is None
        assert store.misses == 1
        assert key not in store  # purged, not left to fail again

    def test_no_temp_residue(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"v": 1})
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix != ".json" and p.is_file()]
        assert leftovers == []

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"v": 1})
        store.put("cd" * 32, {"v": 2})
        assert store.clear() == 2
        assert len(store) == 0

    def test_env_var_names_default_root(self, tmp_path, monkeypatch):
        from repro.engine.store import default_store_root

        monkeypatch.setenv("REPRO_MC_STORE", str(tmp_path / "elsewhere"))
        assert default_store_root() == tmp_path / "elsewhere"

    def test_tilde_root_is_the_home_directory(self, tmp_path, monkeypatch):
        from repro.engine import Engine

        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        engine = Engine(store="~/s")
        assert engine.store.root == tmp_path / "s"
        engine.store.put("ab" * 32, {"v": 1})
        assert (tmp_path / "s" / "objects").is_dir()
        assert not (tmp_path / "~").exists()


class TestTempFileSafety:
    """Regression: PID-only temp suffixes raced across threads and
    crashed runs left ``.tmp.*`` debris forever."""

    def test_temp_paths_unique_across_threads(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" * 32
        paths, barrier = [], threading.Barrier(2, timeout=10)

        def grab():
            barrier.wait()
            paths.append(store._temp_path(key))

        threads = [threading.Thread(target=grab) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(paths) == 2 and paths[0] != paths[1]
        # pid alone (the old suffix) cannot distinguish the two.
        assert all(str(os.getpid()) in p.name for p in paths)

    def test_concurrent_same_key_puts_survive(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" * 32
        errors = []
        barrier = threading.Barrier(2, timeout=10)

        def hammer(value):
            try:
                barrier.wait()
                for i in range(200):
                    store.put(key, {"v": value, "i": i})
            except Exception as exc:  # pragma: no cover - the old race
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(v,)) for v in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        # Last atomic rename won: the entry is whole, valid JSON.
        payload = store.get(key)
        assert payload is not None and payload["i"] == 199
        leftovers = [p for p in tmp_path.rglob("*.tmp.*") if p.is_file()]
        assert leftovers == []

    def test_stale_temps_purged_on_open(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" * 32
        store.put(key, {"v": 1})
        obj_dir = store._path(key).parent
        stale = obj_dir / f"{key}.json.tmp.999999.1.0"
        stale.write_text("{half a checkpoint")
        old = time.time() - STALE_TEMP_SECONDS - 60
        os.utime(stale, (old, old))
        fresh = obj_dir / f"{key}.json.tmp.999999.2.0"
        fresh.write_text("{in-flight write")

        reopened = ResultStore(tmp_path)
        assert reopened.temps_purged == 1
        assert not stale.exists()
        assert fresh.exists()  # young: may be a live concurrent writer
        # The real entry is untouched.
        assert json.loads(store._path(key).read_text()) == {"v": 1}
