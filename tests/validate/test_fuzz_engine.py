"""Engine integration of the validation campaign.

The campaign is just another shard kind: it must checkpoint/resume
through the ResultStore, survive worker processes (whose interpreters
have not imported :mod:`repro.validate`), produce identical payloads
serial vs. parallel and cold vs. warm, and identical value-stream
histograms serial vs. parallel.
"""

import subprocess
import sys

import pytest

from repro import obs
from repro.engine import Engine, ResultStore, shard_key
from repro.engine.core import shard_kind
from repro.gen import WorkloadConfig
from repro.types import ReproError
from repro.validate import campaign_points, run_campaign

TINY = (
    WorkloadConfig(
        cores=2,
        levels=2,
        nsu=0.6,
        task_count_range=(5, 8),
        period_ranges=((10, 60),),
    ),
)


def _point(sets=6, seed=1):
    return campaign_points(sets, seed, configs=TINY)[0]


class TestShardKind:
    def test_registered_with_engine(self):
        kind = shard_kind("validate")
        assert kind.name == "validate"

    def test_codec_round_trips(self):
        kind = shard_kind("validate")
        payload = {"cases": 3, "checks": 21, "failures": []}
        assert kind.decode(kind.encode(payload)) == payload

    def test_decode_rejects_foreign_kind(self, tmp_path):
        # The engine owns the kind stamp: a stats object stored under a
        # validate point's key is refused, not decoded.
        point = _point(sets=2)
        ResultStore(tmp_path).put(
            shard_key(point, 0, 2), {"kind": "stats", "accumulators": []}
        )
        with pytest.raises(ReproError, match="kind"):
            Engine(jobs=1, store=tmp_path).evaluate(point)

    def test_lazy_provider_import(self):
        # A fresh interpreter that only imports the engine must still
        # resolve the validate kind (worker processes depend on this).
        code = (
            "from repro.engine.core import shard_kind; "
            "print(shard_kind('validate').name)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "validate"


class TestEngineEquivalence:
    def test_parallel_matches_serial(self):
        serial = Engine(jobs=1).evaluate(_point())
        parallel = Engine(jobs=3).evaluate(_point())
        assert serial == parallel

    def test_warm_store_resumes_without_recomputing(self, tmp_path):
        cold_engine = Engine(jobs=1, store=tmp_path)
        cold = cold_engine.evaluate(_point())
        assert cold_engine.stats.shards_computed == 1

        warm_engine = Engine(jobs=1, store=tmp_path)
        warm = warm_engine.evaluate(_point())
        assert warm_engine.stats.cache_hits == 1
        assert warm_engine.stats.shards_computed == 0
        assert warm == cold

    def test_campaign_merges_all_points(self, tmp_path):
        result = run_campaign(sets=2, seed=0, store=tmp_path)
        assert result.cases == 2 * len(result.points)
        assert result.ok

        # Second run answers fully from the checkpoint store.
        events = []
        again = run_campaign(sets=2, seed=0, store=tmp_path, progress=events.append)
        assert again.cases == result.cases
        assert all(e["cached"] for e in events if e["event"] == "shard")


class TestDistributionDigests:
    def test_jobs1_and_jobs2_value_streams_have_equal_digests(self):
        """Every non-timing distribution merges exactly across processes.

        Twelve sets per config feed ``sim.core_utilization_observed``
        704 observations, past the 512 floats a decimating reservoir
        would keep, so an order-dependent merge shows up here.
        """
        digests = []
        for jobs in (1, 2):
            with obs.instrument() as state:
                result = run_campaign(12, 0, jobs=jobs)
                histograms = state.registry.histograms
                digests.append(
                    {
                        name: hist.digest()
                        for name, hist in histograms.items()
                        if not name.endswith("seconds")
                    }
                )
            assert result.ok
        serial, parallel = digests
        assert {"sim.core_utilization_observed", "serve.batch_size"} <= set(serial)
        assert serial["sim.core_utilization_observed"]["count"] > 512
        assert serial == parallel
