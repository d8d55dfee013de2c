"""End-to-end tests of the daemon over real sockets.

Each test starts a full :class:`ServeDaemon` on an ephemeral port,
talks HTTP to it with a raw-socket client, and shuts it down
gracefully.  Covers offline parity of ``/admit``, micro-batch
coalescing of ``/place`` (``serve.batch_size`` p50 > 1 under a
concurrent burst), lock-free ``/state``, error statuses, backpressure
503s, and the shutdown manifest/metrics export.
"""

import asyncio
import json
import select
import socket
import time

import numpy as np
import pytest

from repro.model.io import taskset_to_dict
from repro.obs import load_manifest
from repro.partition.registry import get_partitioner
from repro.serve import ServeConfig, http
from repro.serve.http import MAX_HEADER_LINES
from repro.serve.protocol import MAX_CORES
from repro.types import ReproError
from tests.conftest import random_taskset
from tests.serve.conftest import DaemonHarness, task_entry


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


class TestAdmitEndpoint:
    def test_matches_offline_partitioner(self):
        ts = random_taskset(np.random.default_rng(5), n=10)

        async def main():
            async with DaemonHarness(cores=3) as h:
                return await h.client.post(
                    "/admit",
                    {"taskset": taskset_to_dict(ts), "cores": 3, "scheme": "ca-tpa"},
                )

        status, body = run(main())
        offline = get_partitioner("ca-tpa").partition(ts, 3)
        assert status == 200
        assert body["schedulable"] == offline.schedulable
        assert body["assignment"] == offline.partition.assignment.tolist()
        assert body["utilizations"] == offline.partition.core_utilizations().tolist()

    def test_concurrent_admits_all_answered(self):
        tasksets = [
            random_taskset(np.random.default_rng(seed), n=8) for seed in range(8)
        ]

        async def main():
            async with DaemonHarness(cores=2) as h:
                return await asyncio.gather(
                    *[
                        h.client.post(
                            "/admit",
                            {"taskset": taskset_to_dict(ts), "cores": 2},
                        )
                        for ts in tasksets
                    ]
                )

        results = run(main())
        assert all(status == 200 for status, _ in results)
        for (_, body), ts in zip(results, tasksets):
            offline = get_partitioner("ca-tpa").partition(ts, 2)
            assert body["schedulable"] == offline.schedulable
            assert body["assignment"] == offline.partition.assignment.tolist()


class TestPlaceEndpoint:
    def test_burst_coalesces_and_balances(self):
        async def main():
            async with DaemonHarness(cores=2, window_ms=50.0) as h:
                results = await asyncio.gather(
                    *[
                        h.client.post(
                            "/place", task_entry(10.0, [0.5, 1.0], name=f"t{i}")
                        )
                        for i in range(8)
                    ]
                )
                state = await h.client.get("/state")
                metrics = await h.client.get("/metrics")
                return results, state, metrics

        results, (st_status, state), (_, metrics) = run(main())
        assert all(status == 200 for status, _ in results)
        assert st_status == 200
        assert state["tasks"] == 8
        assert sorted(state["assignment"].count(c) for c in (0, 1)) == [4, 4]
        batch = metrics["metrics"]["histograms"]["serve.batch_size"]
        assert batch["p50"] > 1  # the burst really coalesced

    def test_infeasible_placement_answers_409(self):
        async def main():
            async with DaemonHarness(cores=1) as h:
                first = await h.client.post("/place", task_entry(10.0, [6.0, 8.0]))
                second = await h.client.post("/place", task_entry(10.0, [6.0, 9.0]))
                state = await h.client.get("/state")
                return first, second, state

        (s1, b1), (s2, b2), (_, state) = run(main())
        assert s1 == 200 and b1["accepted"]
        assert s2 == 409 and not b2["accepted"] and b2["core"] is None
        assert state["tasks"] == 1  # the rejected task never joined


class TestErrorStatuses:
    def test_unknown_path_404_and_wrong_method_405(self):
        async def main():
            async with DaemonHarness() as h:
                return (
                    await h.client.get("/nope"),
                    await h.client.get("/admit"),
                    await h.client.post("/state", {}),
                )

        (s404, _), (s405a, _), (s405b, _) = run(main())
        assert (s404, s405a, s405b) == (404, 405, 405)

    def test_malformed_json_400(self):
        async def main():
            async with DaemonHarness() as h:
                reader, writer = await asyncio.open_connection(*h.daemon.bound)
                body = b"{not json"
                writer.write(
                    b"POST /place HTTP/1.1\r\nHost: t\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\nConnection: close\r\n\r\n"
                    + body
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return int(raw.split()[1])

        assert run(main()) == 400

    def test_negative_content_length_400_and_close(self):
        async def main():
            async with DaemonHarness() as h:
                reader, writer = await asyncio.open_connection(*h.daemon.bound)
                writer.write(
                    b"POST /place HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()  # EOF: the daemon closed the connection
                writer.close()
                return raw, await h.client.get("/healthz")

        raw, (healthz, _) = run(main())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert json.loads(body) == {"error": "bad Content-Length"}
        assert healthz == 200

    def test_validation_error_400(self):
        async def main():
            async with DaemonHarness() as h:
                return await h.client.post("/place", {"task": {"wcets": [1.0]}})

        status, body = run(main())
        assert status == 400 and "bad task" in body["error"]

    def test_overcritical_task_400(self):
        async def main():
            async with DaemonHarness(levels=2) as h:
                return await h.client.post(
                    "/place", task_entry(10.0, [1.0, 2.0, 3.0])
                )

        status, body = run(main())
        assert status == 400 and "K=2" in body["error"]

    def test_backpressure_503_under_overload(self):
        async def main():
            # backlog=1 + a wide window: concurrent submitters must
            # overflow the one-slot queue while the coordinator sleeps.
            async with DaemonHarness(cores=2, backlog=1, window_ms=200.0) as h:
                results = await asyncio.gather(
                    *[
                        h.client.post(
                            "/place", task_entry(50.0, [0.1, 0.2], name=f"t{i}")
                        )
                        for i in range(10)
                    ]
                )
                metrics = await h.client.get("/metrics")
                return results, metrics

        results, (_, metrics) = run(main())
        statuses = [status for status, _ in results]
        assert 503 in statuses  # overload sheds load instead of queueing
        assert any(status == 200 for status in statuses)  # but still serves
        assert metrics["metrics"]["counters"]["serve.overflow_503"] >= 1


def _deep_json_post() -> bytes:
    body = b"[" * 50_000 + b"]" * 50_000  # 100 kB, far past json's recursion
    return (
        b"POST /place HTTP/1.1\r\nHost: t\r\nContent-Length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )


def _header_flood(lines: int) -> bytes:
    """A ``GET /healthz`` carrying ``lines`` header lines, the last one
    ``Connection: close``."""
    return (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % i for i in range(lines - 1))
        + b"Connection: close\r\n\r\n"
    )


def _json_post(path: str, doc) -> bytes:
    """A one-shot ``POST`` of ``doc`` as JSON, asking for ``Connection: close``."""
    body = json.dumps(doc).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode() + body


def _taskset_doc(**change) -> dict:
    """A one-task ``repro-mc-taskset`` document with ``change`` applied."""
    doc = {"format": "repro-mc-taskset", "version": 1, "levels": 2,
           "tasks": [{"period": 10, "wcets": [1, 2]}]}
    return {**doc, **change}


#: ``/place`` task entries with one malformed field each.
_BAD_TASKS = {
    "period-str": {"period": "x", "wcets": [1]},
    "wcet-str": {"period": 10, "wcets": ["a"]},
    "wcets-string": {"period": "10", "wcets": "12"},
    "wcet-bool": {"period": 10, "wcets": [True]},
    "period-bool": {"period": True, "wcets": [1]},
    "name-list": {"period": 10, "wcets": [1], "name": ["x"]},
    "period-int-past-float": {"period": 10**400, "wcets": [1]},
}

#: Malformed ``/admit`` and ``/explain`` bodies (sent to both paths).
_BAD_ADMITS = {
    "taskset-period-str": {"taskset": _taskset_doc(
        tasks=[{"period": "x", "wcets": [1]}]), "cores": 2},
    "taskset-wcet-str": {"taskset": _taskset_doc(
        tasks=[{"period": 10, "wcets": ["a"]}]), "cores": 2},
    "taskset-not-object": {"taskset": [1], "cores": 2},
    "taskset-levels-str": {"taskset": _taskset_doc(levels="2"), "cores": 2},
    "cores-past-bound": {"taskset": _taskset_doc(), "cores": MAX_CORES + 1},
}

_BAD_BODIES = {
    **{f"place-{k}": _json_post("/place", {"task": v}) for k, v in _BAD_TASKS.items()},
    **{f"{path}-{k}": _json_post(f"/{path}", v)
       for k, v in _BAD_ADMITS.items() for path in ("admit", "explain")},
}


def _raw_exchange(address, payload: bytes, half_close: bool = False) -> bytes:
    """Send ``payload`` on a fresh socket (then end the stream, with
    ``half_close``); everything read until close."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestHostileInput:
    """Input past the transport's limits, or a body the protocol cannot
    take, gets a 4xx, not a dead task."""

    @pytest.mark.parametrize(
        "payload, status",
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: t\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
            (_deep_json_post(), 400),
            (_header_flood(20_000), 431),
            *[(payload, 400) for payload in _BAD_BODIES.values()],
        ],
        ids=[
            "request-line-over-64k",
            "header-line-over-64k",
            "json-nested-50k",
            "header-lines-20k",
            *_BAD_BODIES,
        ],
    )
    def test_answered_and_state_untouched(self, payload, status):
        async def main():
            recorded = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: recorded.append(context)
            )
            async with DaemonHarness() as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                _, before = await h.client.get("/state")
                raw = await asyncio.to_thread(_raw_exchange, h.daemon.bound, payload)
                _, after = await h.client.get("/state")
            return recorded, raw, before, after

        recorded, raw, before, after = run(main())
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].split()[:2] == ["HTTP/1.1", str(status)]
        assert "Connection: close" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert "error" in json.loads(body)
        assert after["seq"] == before["seq"] == 1
        assert recorded == []

    def test_header_block_at_the_cap_is_served(self):
        async def main():
            async with DaemonHarness() as h:
                return await asyncio.to_thread(
                    _raw_exchange, h.daemon.bound, _header_flood(MAX_HEADER_LINES)
                )

        raw = run(main())
        assert raw.split(b"\r\n")[0] == b"HTTP/1.1 200 OK"

    @pytest.mark.parametrize(
        "payload",
        [
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n",
            b"POST /place HTTP/1.1\r\nContent-Length: 40\r\nHost: t\r\n",
            b"GET /state HTTP/1.1\r\nHost: t",
        ],
        ids=["get", "post", "mid-line"],
    )
    def test_stream_ending_inside_headers_is_a_clean_close(self, payload):
        async def main():
            recorded = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: recorded.append(context)
            )
            async with DaemonHarness() as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                _, before = await h.client.get("/state")
                raw = await asyncio.to_thread(
                    _raw_exchange, h.daemon.bound, payload, True
                )
                _, after = await h.client.get("/state")
            return recorded, raw, before, after

        recorded, raw, before, after = run(main())
        assert raw == b""  # never dispatched, so never answered
        assert after == before
        assert recorded == []


    def test_slow_body_gets_408_within_the_deadline(self, monkeypatch):
        monkeypatch.setattr(http, "BODY_TIMEOUT_S", 0.3)
        payload = b"POST /place HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n{}"

        async def main():
            recorded = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: recorded.append(context)
            )
            async with DaemonHarness() as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                _, before = await h.client.get("/state")
                t0 = time.perf_counter()
                raw = await asyncio.to_thread(_raw_exchange, h.daemon.bound, payload)
                elapsed = time.perf_counter() - t0
                _, after = await h.client.get("/state")
            return recorded, raw, elapsed, before, after

        recorded, raw, elapsed, before, after = run(main())
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 408 Request Timeout"
        assert "Connection: close" in lines
        assert "0.3 s" in json.loads(body)["error"]
        assert 0.3 <= elapsed < 0.3 + 2.0  # the server closed, not the client
        assert after == before
        assert recorded == []


    def test_idle_keep_alive_connection_closes_unanswered(self, monkeypatch):
        monkeypatch.setattr(http, "HEADER_TIMEOUT_S", 0.3)

        async def main():
            recorded = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: recorded.append(context)
            )
            async with DaemonHarness() as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                _, before = await h.client.get("/state")
                reader, writer = await asyncio.open_connection(*h.daemon.bound)
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                first = await _read_response(reader)
                t0 = time.perf_counter()
                rest = await asyncio.wait_for(reader.read(), timeout=10)
                elapsed = time.perf_counter() - t0
                writer.close()
                _, after = await h.client.get("/state")
            return recorded, first, rest, elapsed, before, after

        recorded, first, rest, elapsed, before, after = run(main())
        assert first["ok"]  # served, kept alive, then idle
        assert rest == b""  # closed without a response
        assert 0.3 - 0.05 <= elapsed < 0.3 + 2.0
        assert after == before
        assert recorded == []

    def test_slow_header_block_gets_408_within_the_deadline(self, monkeypatch):
        monkeypatch.setattr(http, "HEADER_TIMEOUT_S", 0.3)
        payload = b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Slow: 1"

        async def main():
            recorded = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: recorded.append(context)
            )
            async with DaemonHarness() as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                _, before = await h.client.get("/state")
                t0 = time.perf_counter()
                raw = await asyncio.to_thread(_raw_exchange, h.daemon.bound, payload)
                elapsed = time.perf_counter() - t0
                _, after = await h.client.get("/state")
            return recorded, raw, elapsed, before, after

        recorded, raw, elapsed, before, after = run(main())
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 408 Request Timeout"
        assert "Connection: close" in lines
        assert "0.3 s" in json.loads(body)["error"]
        assert 0.3 - 0.05 <= elapsed < 0.3 + 2.0  # the server closed, not the client
        assert after == before
        assert recorded == []

class TestKeepAlive:
    def test_two_requests_one_connection(self):
        async def main():
            async with DaemonHarness() as h:
                reader, writer = await asyncio.open_connection(*h.daemon.bound)
                req = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                writer.write(req)
                await writer.drain()
                first = await _read_response(reader)
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                second = await _read_response(reader)
                writer.close()
                return first, second

        first, second = run(main())
        assert first["ok"] and second["ok"]


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.decode("latin-1").split("\r\n"):
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    return json.loads(await reader.readexactly(length))


class TestGracefulShutdown:
    def test_shutdown_exports_manifest_and_metrics(self, tmp_path):
        metrics_path = tmp_path / "serve.metrics.json"

        async def main():
            async with DaemonHarness(
                cores=2, metrics_path=str(metrics_path)
            ) as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                await h.client.get("/state")
                return h.daemon.run_id

        run_id = run(main())
        dump = json.loads(metrics_path.read_text())
        assert dump["run_id"] == run_id
        assert dump["metrics"]["histograms"]["serve.batch_size"]["count"] >= 1
        assert dump["metrics"]["counters"]["serve.place.accepted"] == 1
        manifest = load_manifest(tmp_path / "serve.metrics.manifest.json")
        assert manifest["run_id"] == run_id
        assert manifest["figure"] == "serve"
        assert manifest["artifact"]["path"] == "serve.metrics.json"

    def test_queued_work_drains_before_exit(self):
        async def main():
            async with DaemonHarness(cores=2, window_ms=100.0) as h:
                # Requests in flight when shutdown begins still answer.
                posts = [
                    asyncio.create_task(
                        h.client.post(
                            "/place", task_entry(20.0, [0.5, 1.0], name=f"d{i}")
                        )
                    )
                    for i in range(4)
                ]
                await asyncio.sleep(0.01)  # let them hit the queue
                await h.stop()
                return await asyncio.gather(*posts)

        results = run(main())
        assert all(status == 200 for status, _ in results)


class TestTelemetryEndpoints:
    def test_prometheus_exposition(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                return await h.client.get_raw("/metrics?format=prometheus")

        status, head, body = run(main())
        assert status == 200
        assert "text/plain" in head and "0.0.4" in head
        assert "# TYPE serve_requests_total counter" in body
        assert "# TYPE serve_place_seconds histogram" in body
        assert 'serve_place_seconds_bucket{le="+Inf"}' in body
        assert "# TYPE serve_queue_depth gauge" in body

    def test_prometheus_types_each_family_once(self):
        ts = random_taskset(np.random.default_rng(5), n=6)
        doc = {"taskset": taskset_to_dict(ts), "cores": 2}

        async def main():
            async with DaemonHarness(cores=2) as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                await h.client.post("/admit", doc)
                await h.client.post("/explain", doc)
                _, metrics = await h.client.get("/metrics")
                _, _, body = await h.client.get_raw("/metrics?format=prometheus")
                return metrics["metrics"]["histograms"], body

        histograms, body = run(main())
        typed = [
            line.split()[2] for line in body.splitlines() if line.startswith("# TYPE ")
        ]
        assert len(typed) == len(set(typed))
        samples = [
            line.rsplit(" ", 1)[0]
            for line in body.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(samples) == len(set(samples))
        # Each per-request latency histogram counts its requests only;
        # the flush-stage spans time under their own names.
        for kind in ("place", "admit", "explain"):
            assert histograms[f"serve.{kind}.seconds"]["count"] == 1
            assert histograms[f"serve.flush.{kind}.seconds"]["count"] == 1
        assert histograms["serve.handle.seconds"]["count"] >= 3

    def test_unknown_metrics_format_is_400(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                return await h.client.get("/metrics?format=xml")

        status, body = run(main())
        assert status == 400
        assert "format" in body["error"]

    def test_json_metrics_still_default(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                return await h.client.get("/metrics")

        status, body = run(main())
        assert status == 200
        assert body["metrics"]["counters"]["serve.place.accepted"] == 1

    def test_metrics_history_schema(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                return await h.client.get("/metrics/history")

        status, body = run(main())
        assert status == 200
        assert body["version"] == 1
        assert sum(body["counters"]["serve.requests"]["values"]) >= 1
        place = body["histograms"]["serve.place.seconds"]
        assert place["window"]["count"] == 1
        assert body["gauges"]["serve.tasks"] == 1.0
        assert "serve.lambda" in body["gauges"]


def _connects_completed(address, attempts: int, wait: float) -> int:
    """Open ``attempts`` non-blocking connects, then block ``wait`` seconds.

    Called from the daemon's own loop, so nothing is accepted meanwhile:
    only connects the kernel's listen queue holds complete their
    handshake.  The SYN of every later connect is dropped and retried
    after about 1 s, beyond ``wait``.
    """
    socks = []
    try:
        poller = select.poll()
        for _ in range(attempts):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            sock.connect_ex(address)
            socks.append(sock)
            poller.register(sock, select.POLLOUT)
        time.sleep(wait)
        writable = {fd for fd, _ in poller.poll(0)}
        return sum(
            1
            for sock in socks
            if sock.fileno() in writable
            and sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR) == 0
        )
    finally:
        for sock in socks:
            sock.close()


class TestListenBacklog:
    """``--backlog`` also bounds the connections waiting to be accepted."""

    @pytest.mark.parametrize("backlog", [256, 32])
    def test_listen_queue_follows_backlog(self, backlog):
        async def main():
            async with DaemonHarness(backlog=backlog) as h:
                completed = _connects_completed(h.daemon.bound, 200, 0.4)
                return completed, await h.client.get("/healthz")

        completed, (healthz, _) = run(main())
        if backlog == 256:
            assert completed == 200
        else:
            # The kernel holds about backlog + 1; asyncio's default
            # listen queue of 100 would let 101 through.
            assert completed < 100
        assert healthz == 200


class TestConfigChecks:
    """Settings that would start a broken daemon fail before any bind."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cores", 0),
            ("levels", 0),
            ("window_ms", -1.0),
            ("window_ms", float("nan")),
            ("window_ms", float("inf")),
            ("max_batch", 0),
            # 0 would build an unbounded queue: no 503 backpressure at all.
            ("backlog", 0),
            ("port", 65536),
        ],
    )
    def test_rejected(self, field, value):
        with pytest.raises(ReproError, match=f"{field} must be"):
            ServeConfig(**{field: value})
