"""``serve``: the ``repro-mc serve`` admission daemon under open-loop load.

The daemon runs at its defaults (4 cores, K=2, incremental backend).
One generator process drives it over two keep-alive connections on a
fixed schedule built from the seed:

* connection A carries every write, ``POST /place``, in due order, one
  every ``1 / WRITE_RATE`` s:
  small tasks that grow the live state from empty to over 1000 tasks,
  and a share of oversized tasks (utilization >= 1) that no loaded
  core can take;
* connection B carries one ``GET /state`` read per ``READ_EVERY``
  writes, due at a seeded random point between two writes, so how
  often a read delays a write varies smoothly with their costs.

Writes share one connection so that at most one write is in flight:
placement order, and with it every exact count of the traced ledger,
repeats run to run.  Reads still compete with writes on the daemon's
single event loop.  Latency is timed from each request's due time, so
a stall also charges the requests queued behind it.

The offered rate is about a third of the daemon's saturating rate at
the final state size (1000 / ``cpu_ms_per_item``), so the backlog stays
flat.
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from common import Program, median, percentile, proc_cpu_s

WRITE_RATE = 56.0  #: writes per second
READ_EVERY = 4  #: one /state read per this many writes
OVERSIZED_SHARE = 0.05
#: Oversized writes start once every core holds tasks.
WARMUP_WRITES = 100
#: Total LO-mode utilization of all small tasks together (over 4 cores),
#: whatever the run length, so every small task stays admissible.
SMALL_TOTAL_UTIL = 1.2
SETUP_LAUNCHES = 5
CORES = 4
#: Latency percentiles are taken per window of due time, then the
#: median over windows is reported: a burst of host noise moves one
#: window, not the run's figure.  2 s holds 112 writes, so a window's
#: p90 has more than ten samples beyond it.
WINDOW_S = 2.0

_LISTEN = re.compile(r"listening on http://([\d.]+):(\d+)")


@dataclass
class Request:
    index: int
    kind: str  #: "small" | "oversized" | "read"
    due: float  #: seconds after the schedule's start
    raw: bytes
    task: dict | None = None


def _http(method: str, path: str, body: dict | None = None) -> bytes:
    data = b"" if body is None else json.dumps(body).encode()
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
    return (head + "\r\n").encode() + data


def build_schedule(seed: int, seconds: float) -> list[Request]:
    """The seeded open-loop schedule: writes every 1/WRITE_RATE s, and
    after every READ_EVERY-th write one read at a random point of the
    gap before the next write."""
    rng = random.Random(seed)
    writes = max(8, round(WRITE_RATE * seconds))
    warmup = min(WARMUP_WRITES, writes // 4)
    kinds = [
        "oversized" if j >= warmup and rng.random() < OVERSIZED_SHARE else "small"
        for j in range(writes)
    ]
    u_mean = SMALL_TOTAL_UTIL / kinds.count("small")
    schedule = []
    for j, kind in enumerate(kinds):
        period = round(rng.uniform(100.0, 1000.0), 3)
        if kind == "small":
            c1 = period * u_mean * rng.uniform(0.4, 1.6)
            wcets = [c1] if rng.random() < 0.5 else [c1, c1 * rng.uniform(1.5, 2.5)]
        else:
            wcets = [period * rng.uniform(1.0, 1.1)]
        task = {"period": period, "wcets": wcets}
        schedule.append(
            Request(j, kind, j / WRITE_RATE, _http("POST", "/place", {"task": task}), task)
        )
        if j % READ_EVERY == READ_EVERY - 1:
            due = (j + rng.uniform(0.1, 0.9)) / WRITE_RATE
            schedule.append(Request(j, "read", due, _http("GET", "/state")))
    return schedule


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before a response")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


async def _open(host: str, port: int):
    t0 = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    return reader, writer, time.perf_counter() - t0


async def _lane(conn, requests: list[Request], t0: float, results: list) -> None:
    """Send ``requests`` in due order on one connection; record each."""
    reader, writer, _ = conn
    broken = None
    for req in requests:
        due = t0 + req.due
        if broken is not None:
            results.append((req, None, broken, due, due, due))
            continue
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter()
        try:
            writer.write(req.raw)
            status, body = await _read_response(reader)
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            broken = repr(exc)
            results.append((req, None, broken, due, sent, time.perf_counter()))
            continue
        results.append((req, status, body, due, sent, time.perf_counter()))


async def _drive(host: str, port: int, schedule: list[Request], cpu_probe) -> dict:
    write_conn = await _open(host, port)
    read_conn = await _open(host, port)
    results: list = []
    # A short lead so both lanes start on the same clock.
    t0 = time.perf_counter() + 0.05
    cpu0 = cpu_probe()
    await asyncio.gather(
        _lane(write_conn, [r for r in schedule if r.kind != "read"], t0, results),
        _lane(read_conn, [r for r in schedule if r.kind == "read"], t0, results),
    )
    t_end = max(done for *_, done in results)
    cpu1 = cpu_probe()
    final_state = None
    try:
        read_conn[1].write(_http("GET", "/state"))
        status, body = await _read_response(read_conn[0])
        if status == 200:
            final_state = json.loads(body)
    except (OSError, asyncio.IncompleteReadError, ValueError):
        pass
    for _, writer, _ in (write_conn, read_conn):
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return {
        "results": results,
        "t0": t0,
        "t_end": t_end,
        "daemon_cpu_s": cpu1 - cpu0,
        "connect_s": [write_conn[2], read_conn[2]],
        "final_state": final_state,
    }


def check_outputs(results: list, final_state: dict | None) -> list[str]:
    """Errors (empty = pass): statuses, refusal reasons, final state."""
    from repro.analysis import is_feasible_core
    from repro.model.io import taskset_from_dict

    errors = []
    accepted = []
    for req, status, body, *_ in sorted(results, key=lambda r: (r[0].due, r[0].kind)):
        if status is None:
            errors.append(f"{req.kind} #{req.index}: transport error {body}")
            continue
        if req.kind == "read":
            if status != 200:
                errors.append(f"read #{req.index}: status {status}")
            continue
        try:
            doc = json.loads(body)
        except ValueError:
            errors.append(f"{req.kind} #{req.index}: body is not JSON")
            continue
        if req.kind == "small":
            if status != 200 or doc.get("accepted") is not True:
                errors.append(f"small #{req.index}: status {status}, expected 200")
            else:
                accepted.append(req.task)
        else:
            reason = doc.get("reason")
            if status != 409 or doc.get("accepted") is not False:
                errors.append(f"oversized #{req.index}: status {status}, expected 409")
            elif not (isinstance(reason, dict) and isinstance(reason.get("cores"), list)
                      and len(reason["cores"]) == CORES):
                errors.append(f"oversized #{req.index}: 409 without a structured reason")
    if final_state is None:
        return errors + ["final GET /state failed"]
    tasks = (final_state.get("taskset") or {}).get("tasks", [])
    held = [{"period": t["period"], "wcets": t["wcets"]} for t in tasks]
    if held != accepted:
        errors.append(
            f"final /state holds {len(held)} tasks, not exactly the "
            f"{len(accepted)} accepted ones"
        )
    if not tasks:
        return errors
    taskset = taskset_from_dict(final_state["taskset"])
    assignment = final_state["assignment"]
    for core in range(final_state["cores"]):
        idx = [i for i, c in enumerate(assignment) if c == core]
        if idx and not is_feasible_core(taskset.level_matrix(idx)):
            errors.append(f"final /state: core {core} fails is_feasible_core")
    return errors


def _launch(workdir: Path, tag: str, ledger: Path | None) -> tuple[Program, str, int, float]:
    program = Program(["serve", "--port", "0"], workdir, tag, ledger)
    t, line = program.readline()
    match = _LISTEN.search(line)
    if match is None:
        program.proc.send_signal(signal.SIGTERM)
        program.finish()
        raise RuntimeError(f"daemon never listened: {program.stderr()[-500:]}")
    program.drain_in_background()
    return program, match.group(1), int(match.group(2)), t - program.t_launch


def _stop(program: Program) -> int:
    program.proc.send_signal(signal.SIGTERM)
    return program.finish()


def run(seed: int, seconds: float, workdir: Path, ledger_dir: Path | None = None) -> dict:
    setups, rss, errors = [], [], []
    launches = 1 if ledger_dir is not None else SETUP_LAUNCHES
    for k in range(launches - 1):
        program, _, _, setup = _launch(workdir, f"serve-setup-{k}", None)
        setups.append(setup)
        if _stop(program) != 0:
            errors.append(f"set-up daemon {k} exited {program.returncode}")
        rss.append(program.maxrss_mb)
    ledger = None if ledger_dir is None else ledger_dir / "serve.json"
    program, host, port, setup = _launch(workdir, "serve", ledger)
    setups.append(setup)
    schedule = build_schedule(seed, seconds)
    try:
        drive = asyncio.run(
            _drive(host, port, schedule, lambda: proc_cpu_s(program.pid))
        )
    finally:
        code = _stop(program)
    rss.append(program.maxrss_mb)
    if code != 0:
        errors.append(f"daemon exited {code}: {program.stderr()[-500:]}")
    errors += check_outputs(drive["results"], drive["final_state"])
    return summarize(drive, setups, max(rss), errors)


def windowed(samples: list[tuple[float, float]], q: float) -> float:
    """Median over :data:`WINDOW_S` windows of each window's ``q``-th
    percentile; ``samples`` are ``(due, latency)`` pairs."""
    windows: dict[int, list[float]] = {}
    for due, latency in samples:
        windows.setdefault(int(due // WINDOW_S), []).append(latency)
    return median([percentile(v, q) for v in windows.values()])


def summarize(drive: dict, setups: list[float], rss_mb: float, errors: list[str]) -> dict:
    results = drive["results"]
    answered = [r for r in results if r[1] is not None]
    expected = {"small": 200, "oversized": 409, "read": 200}
    failed = sum(1 for req, status, *_ in results if status != expected[req.kind])
    t0 = drive["t0"]
    place = [(due - t0, 1e3 * (done - due))
             for req, _, _, due, _, done in answered if req.kind != "read"]
    state = [(due - t0, 1e3 * (done - due))
             for req, _, _, due, _, done in answered if req.kind == "read"]
    lag = [1e3 * (sent - due) for _, _, _, due, sent, _ in results]
    rtt = [1e3 * (done - sent) for _, _, _, _, sent, done in answered]
    out = {
        "errors": errors,
        "attempted": len(results),
        "failed": failed,
        "items": len(answered),
        "work_s": drive["t_end"] - drive["t0"],
        "parallelism": 1,
        "client": {
            "connect_ms": 1e3 * sum(drive["connect_s"]) / len(drive["connect_s"]),
            "rtt_ms_mean": sum(rtt) / len(rtt) if rtt else 0.0,
        },
        "daemon_cpu_s": drive["daemon_cpu_s"],
        "final_tasks": (drive["final_state"] or {}).get("tasks", 0),
    }
    if place and state and answered:
        out["metrics"] = {
            "setup_s": median(setups),
            "throughput_per_s": len(answered) / out["work_s"],
            "cpu_ms_per_item": 1e3 * drive["daemon_cpu_s"] / len(answered),
            "peak_rss_mb": rss_mb,
        }
        out["latency"] = {
            "p50_ms": windowed(place, 50),
            "p90_ms": windowed(place, 90),
            "read_p50_ms": windowed(state, 50),
            "read_p90_ms": windowed(state, 90),
        }
        m, lat = out["metrics"], out["latency"]
        out["report"] = {
            "setup_s": (m["setup_s"], "s"),
            "place_p50_ms": (lat["p50_ms"], "ms"),
            "place_p90_ms": (lat["p90_ms"], "ms"),
            "state_p50_ms": (lat["read_p50_ms"], "ms"),
            "state_p90_ms": (lat["read_p90_ms"], "ms"),
            "serve_cpu_ms_per_req": (m["cpu_ms_per_item"], "ms"),
            "failed_frac": (failed / len(results), "ratio"),
            "gen_lag_p50_ms": (percentile(lag, 50), "ms"),
            "gen_lag_p90_ms": (percentile(lag, 90), "ms"),
            "final_tasks": (out["final_tasks"], "tasks"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    return out
