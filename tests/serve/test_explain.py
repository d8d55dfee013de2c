"""Serve-side explanation surfaces: ``/explain``, 409 reasons, headroom.

Covers the three new introspection surfaces of the daemon end-to-end
over real sockets: ``POST /explain`` parity with the offline
explanation layer, the structured ``reason`` carried by rejected
``/place`` responses, and the ``serve.headroom`` gauge in the live
window and the Prometheus exposition.
"""

import asyncio
import math

import numpy as np

from repro.analysis.explain import EXPLAIN_VERSION, explain_admission
from repro.model.io import taskset_to_dict
from repro.partition.backend import DEFAULT_BACKEND
from tests.conftest import random_taskset
from tests.serve.conftest import DaemonHarness, task_entry

#: A task no core of a fresh 2-core K=2 daemon can hold (load 2 > 1).
IMPOSSIBLE = task_entry(1.0, [2.0, 3.0], name="whale")


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


class TestExplainEndpoint:
    def test_matches_offline_explanation(self):
        ts = random_taskset(np.random.default_rng(11), n=8)

        async def main():
            async with DaemonHarness(cores=3) as h:
                return await h.client.post(
                    "/explain",
                    {"taskset": taskset_to_dict(ts), "cores": 3},
                )

        status, body = run(main())
        assert status == 200
        assert body["version"] == EXPLAIN_VERSION
        # The daemon and offline explain both decide under the default
        # backend, so the documents agree field for field.
        assert body["probe_impl"] == DEFAULT_BACKEND
        offline = explain_admission(ts, 3).to_dict()
        body.pop("request_id", None)
        assert body == offline

    def test_rejected_explain_carries_candidates(self):
        ts = random_taskset(np.random.default_rng(13), n=20, max_u=0.8)

        async def main():
            async with DaemonHarness(cores=2) as h:
                return await h.client.post(
                    "/explain",
                    {"taskset": taskset_to_dict(ts), "cores": 1},
                )

        status, body = run(main())
        assert status == 200
        if not body["admitted"]:
            assert body["failed_task"] is not None
            assert body["candidate_explanations"]
            assert body["sensitivity"]["task"] == body["failed_task"]

    def test_get_is_405(self):
        async def main():
            async with DaemonHarness() as h:
                return await h.client.get("/explain")

        status, _ = run(main())
        assert status == 405


class TestPlaceRejectionReason:
    def test_409_carries_structured_reason(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                return await h.client.post("/place", IMPOSSIBLE)

        status, body = run(main())
        assert status == 409
        assert not body["accepted"]
        reason = body["reason"]
        assert set(reason) == {"best_core", "best_margin", "cores"}
        assert reason["best_margin"] < 0.0
        assert len(reason["cores"]) == 2
        for entry in reason["cores"]:
            assert entry["margin"] < 0.0
            assert entry["first_failing_condition"] == 1

    def test_accepted_place_has_no_reason(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                return await h.client.post(
                    "/place", task_entry(10.0, [1.0, 2.0])
                )

        status, body = run(main())
        assert status == 200
        assert "reason" not in body

    def test_reason_reflects_live_state(self):
        """After filling the daemon, the margins account for the load."""

        async def main():
            async with DaemonHarness(cores=2) as h:
                for _ in range(2):
                    await h.client.post("/place", task_entry(10.0, [4.0, 8.0]))
                return await h.client.post("/place", task_entry(10.0, [4.0, 8.0]))

        status, body = run(main())
        assert status == 409
        # Both cores hold a 0.8-HI task: probing another one fails by
        # the same margin everywhere, so the best core ties to index 0.
        assert body["reason"]["best_core"] == 0


class TestHeadroomGauge:
    def test_gauge_in_history_and_prometheus(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                empty = await h.client.get("/metrics/history")
                await h.client.post("/place", task_entry(10.0, [4.0, 8.0]))
                filled = await h.client.get("/metrics/history")
                _, _, prom = await h.client.get_raw(
                    "/metrics?format=prometheus"
                )
                return empty[1], filled[1], prom

        empty, filled, prom = run(main())
        # Empty daemon: headroom is the finite clamp, not infinity.
        assert empty["gauges"]["serve.headroom"] == 64.0
        alpha = filled["gauges"]["serve.headroom"]
        assert math.isfinite(alpha)
        # One 0.8-HI task on one core: it tips over at 1/0.8 = 1.25.
        assert alpha < 64.0 and alpha > 1.0
        line = next(
            ln for ln in prom.splitlines()
            if ln.startswith("serve_headroom ")
        )
        assert math.isfinite(float(line.split()[1]))
