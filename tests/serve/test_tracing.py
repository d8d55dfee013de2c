"""Per-request tracing: burst → one flush span + N linked request spans.

Pins the ISSUE acceptance criteria for the serve span tree: every
request gets its own ``serve.request`` span linked (``parent_id``) to
the shared ``serve.flush`` span of the batch it rode in, the whole
stream forms one tree rooted at ``serve.run``, and the queue-wait /
kernel / apply attribution reconciles exactly with each span's own
duration.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.model.io import taskset_to_dict
from tests.conftest import random_taskset
from tests.serve.conftest import DaemonHarness, task_entry

BURST = 8


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def read_spans(events_path) -> list[dict]:
    events = [
        json.loads(line) for line in events_path.read_text().splitlines()
    ]
    return [e for e in events if e["event"].startswith("span.")]


def run_burst(events_path, n=BURST):
    """A coalesced /place burst against a traced daemon; returns bodies."""

    async def main():
        # A wide window so one flush collects the whole burst.
        async with DaemonHarness(
            cores=4, window_ms=100, log_json=str(events_path)
        ) as h:
            results = await asyncio.gather(
                *(
                    h.client.post(
                        "/place", task_entry(4000.0, [0.5, 1.0], name=f"t{i}")
                    )
                    for i in range(n)
                )
            )
        return results

    return run(main())


class TestRequestSpans:
    def test_burst_yields_one_rooted_tree(self, tmp_path):
        events = tmp_path / "events.jsonl"
        run_burst(events)
        spans = read_spans(events)
        ids = {s["span_id"] for s in spans}
        roots = [s for s in spans if s["parent_id"] is None]
        orphans = [
            s
            for s in spans
            if s["parent_id"] is not None and s["parent_id"] not in ids
        ]
        assert len(roots) == 1
        assert roots[0]["event"] == "span.serve.run"
        assert orphans == []

    def test_each_request_links_to_the_shared_flush_span(self, tmp_path):
        events = tmp_path / "events.jsonl"
        results = run_burst(events)
        assert all(status == 200 for status, _ in results)
        spans = read_spans(events)
        requests = [s for s in spans if s["event"] == "span.serve.request"]
        flush_ids = {
            s["span_id"] for s in spans if s["event"] == "span.serve.flush"
        }
        assert len(requests) == BURST
        parents = {s["parent_id"] for s in requests}
        assert parents <= flush_ids
        # The 100 ms window coalesced the whole burst into one flush.
        assert len(parents) == 1
        assert all(s["kind"] == "place" for s in requests)

    def test_place_flush_keeps_its_probe_child(self, tmp_path):
        """The flush's probe time stays a synthetic ``probe`` child of
        ``serve.flush.place``: the grid, then one column per placement
        that leaves tasks waiting."""
        events = tmp_path / "events.jsonl"
        run_burst(events)
        spans = read_spans(events)
        places = {
            s["span_id"] for s in spans if s["event"] == "span.serve.flush.place"
        }
        probes = [
            s for s in spans if s["event"] == "span.probe" and s["parent_id"] in places
        ]
        assert len(probes) == len(places) == 1
        assert probes[0]["calls"] == BURST  # the grid + BURST - 1 refreshes

    def test_request_ids_propagate_to_responses_and_spans(self, tmp_path):
        events = tmp_path / "events.jsonl"
        results = run_burst(events)
        response_ids = {body["request_id"] for _, body in results}
        assert len(response_ids) == BURST  # unique per request
        spans = read_spans(events)
        span_ids = {
            s["request_id"]
            for s in spans
            if s["event"] == "span.serve.request"
        }
        assert span_ids == response_ids

    def test_attribution_reconciles_exactly(self, tmp_path):
        events = tmp_path / "events.jsonl"
        run_burst(events)
        spans = read_spans(events)
        root = next(s for s in spans if s["event"] == "span.serve.run")
        for span in spans:
            if span["event"] != "span.serve.request":
                continue
            queue_wait = span["queue_wait"]
            kernel = span["kernel"]
            apply_s = span["apply"]
            assert queue_wait >= 0 and kernel >= 0 and apply_s >= 0
            # seconds is constructed as the sum — exact, not approximate.
            assert queue_wait + kernel + apply_s == span["seconds"]
            # Wall-clock containment inside the daemon's run span.
            assert span["start"] >= root["start"]
            assert span["start"] + span["seconds"] <= (
                root["start"] + root["seconds"] + 0.5
            )

    def test_admit_requests_get_spans_too(self, tmp_path):
        events = tmp_path / "events.jsonl"

        taskset = random_taskset(np.random.default_rng(7), n=6)

        async def main():
            async with DaemonHarness(
                cores=2, log_json=str(events)
            ) as h:
                return await h.client.post(
                    "/admit",
                    {
                        "taskset": taskset_to_dict(taskset),
                        "cores": 2,
                        "scheme": "ca-tpa",
                    },
                )

        status, body = run(main())
        assert status == 200
        assert body["request_id"].startswith("admit-")
        requests = [
            s
            for s in read_spans(events)
            if s["event"] == "span.serve.request"
        ]
        assert len(requests) == 1
        assert requests[0]["kind"] == "admit"
