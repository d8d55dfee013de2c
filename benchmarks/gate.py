"""Quick benchmark gate: re-measure the hot paths against the baselines.

``python benchmarks/gate.py [--sets N]`` re-runs scaled-down versions of
the probe benchmarks in this directory and compares them against the
committed ``BENCH_partition.json`` / ``BENCH_serve.json`` /
``BENCH_obs_overhead.json`` at the repo root, exiting 1 if any gate
fails.  It measures

* Theorem-1 probe throughput, batch vs scalar, on replayed CA-TPA
  states: ``answer`` of a one-task ``probe_request``, the one way every
  caller probes;
* the lockstep sweep: ``Engine(probe_impl=...).evaluate`` on the Fig.-1
  default point, batch vs scalar — with jobs=1 and no store, one inline
  shard stepping every set x scheme through ``partition_lockstep``, the
  path every figure runs;
* the daemon-style placement loop, one-column refresh vs full re-probe,
  through the serve flush's own probe call;
* a serve ``/place`` burst over keep-alive connections;
* the disabled-instrumentation overhead on the probe hot path: batch
  ``answer`` against the same call without its ``OBS.enabled`` branch.

The full benchmarks (``test_bench_probe_speed.py``,
``test_bench_probe_overhead.py``) import their helpers from here, so the
gate and the committed numbers are measured by the same code.

Raw wall-clock numbers are not comparable across machines, so every
gate is chosen to survive a hardware change:

* **speedups** — batch/scalar probe and lockstep speedups must reach
  :data:`GATE_RATIO` times the committed speedup.  Both sides of each
  ratio run on the *same* machine, so a drop means the batch path
  regressed relative to the scalar one, not that the machine is slower.
* **throughput** — batch probes/sec, the placement loop's refresh
  probes/sec (the ``incremental`` key of the baseline) and serve qps
  must reach :data:`GATE_RATIO` times the committed figure.  These
  *are* machine-relative; the ratio leaves room for slower CI hardware
  while still catching an order-of-magnitude regression (e.g. the batch
  path silently falling back to scalar).
* **refresh speedup** — the refresh's speedup over the full re-probe
  must reach ``max(1.0, GATE_RATIO x committed)``: however slow the
  machine, the refresh may never lose to re-probing everything.
* **serve p95** — the p95 place latency must stay under
  ``committed / GATE_RATIO``, the throughput floor mirrored.
* **disabled overhead** — the median paired guarded/raw ratio must stay
  under :data:`OVERHEAD_GATE`, looser than the full benchmark's 1.02
  because the quick run has fewer samples.

A missing baseline file, or a ``BENCH_partition.json`` without its
``placement`` or ``end_to_end`` section, is itself a failure: a silently
absent baseline would make its gate vacuous.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.batch import _is_feasible_stack
from repro.analysis.edfvd import check_eq9_rule
from repro.engine import Engine, PointSpec
from repro.experiments import default_schemes
from repro.gen import WorkloadConfig, generate_taskset
from repro.model import Partition
from repro.partition import ordering
from repro.partition.backend import BATCH, best_core, get_backend, probe_request
from repro.serve.coordinator import batch_probe_tasks
from repro.types import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent
PARTITION_BASELINE = "BENCH_partition.json"
OVERHEAD_BASELINE = "BENCH_obs_overhead.json"
SERVE_BASELINE = "BENCH_serve.json"

SEED = 2016
DEFAULT_SETS = 12
PLACEMENT_SETS = 3
PASSES = 3  #: every timing is the best of this many passes
CHUNKS = 8  #: interleaved chunks for the paired A/B/A overhead measurement

#: Measured value must be >= GATE_RATIO * committed value (throughput
#: and speedup gates).  0.5 tolerates a 2x slower machine / noisy CI box
#: while still catching the batch path degrading to scalar-like speed.
GATE_RATIO = 0.5

#: Median guarded/raw gate for the quick disabled-overhead check.
OVERHEAD_GATE = 1.10

#: Backlog depth of the placement-loop workload.  The one-column
#: refresh saves ``cores - 1`` columns of every pending row per round,
#: so its advantage grows with the backlog; a deep backlog is the
#: daemon-under-load shape it exists for.
PLACEMENT_TASK_RANGE = (250, 400)

#: The serve burst: SERVE_PLACES /place requests to a SERVE_CORES-core
#: daemon, sent closed-loop over SERVE_CONNECTIONS keep-alive
#: connections.  That keeps SERVE_CONNECTIONS requests in flight, so
#: the daemon's flushes coalesce, and stays far below the listen
#: backlog (asyncio's default is 100), so no connect waits on a SYN
#: retry.
SERVE_PLACES = 256
SERVE_CORES = 8
SERVE_CONNECTIONS = 16


def replay_probe_states(
    config: WorkloadConfig, sets: int
) -> list[tuple[Partition, int]]:
    """The (partition, task_index) probe states of a greedy CA-TPA replay.

    The partitions are materialized up front (placement replayed once),
    so the timed loops touch identical, pre-built state.
    """
    rng = np.random.default_rng(SEED)
    states: list[tuple[Partition, int]] = []
    for _ in range(sets):
        taskset = generate_taskset(config, rng)
        partition = Partition(taskset, config.cores)
        placed: list[tuple[int, int]] = []
        for task_index in ordering.by_contribution(taskset):
            # A fresh partition per probe state keeps every recorded
            # state alive and immutable for the timing loops.
            snapshot = Partition(taskset, config.cores)
            for i, m in placed:
                snapshot.assign(i, m)
            states.append((snapshot, task_index))
            target = best_core(raw_probe(partition, task_index))
            if target is None:
                break
            partition.assign(task_index, target)
            placed.append((task_index, target))
    return states


def raw_answer(request):
    """``BatchBackend.answer`` without its ``OBS.enabled`` branch: the
    instrumentation cost is what the disabled-overhead row divides out."""
    stack, keys, split = request.stack, request.keys, request.split
    check_eq9_rule(request.rule)
    admits, utils = _is_feasible_stack(stack, request.rule, split * keys.shape[1])
    return admits.reshape(keys.shape), utils.reshape(split, keys.shape[1])


def one_task_probe(answer):
    """``(partition, task_index) -> (M,)`` Eq.-(15) row: ``answer`` of a
    one-task :func:`~repro.partition.backend.probe_request`."""

    def probe(partition: Partition, task_index: int) -> np.ndarray:
        request = probe_request(
            partition.level_matrices(), partition.taskset, [task_index]
        )
        return answer(request)[1][0]

    return probe


raw_probe = one_task_probe(raw_answer)


def best_of(fn, states) -> float:
    """Best-of-:data:`PASSES` wall time of ``fn`` over the probe states.

    The minimum is the measurement least polluted by preemption and
    frequency scaling; the A/B/A pairing of :func:`paired_ratios`
    handles the drift that the minimum cannot.
    """
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        for partition, task_index in states:
            fn(partition, task_index)
        best = min(best, time.perf_counter() - start)
    return best


def paired_ratios(fn, chunks, rounds: int = 1) -> tuple[list[float], float, float]:
    """Per-chunk ``fn / raw_probe`` ratios from A/B/A paired timings.

    Each chunk is timed raw -> ``fn`` -> raw, ``rounds`` times over all
    chunks.  Returns ``(ratios, total_raw_seconds, total_fn_seconds)``;
    each chunk's raw time is the mean of the two runs bracketing the
    ``fn`` run, so slow clock drift cancels out of the ratio.
    """
    ratios = []
    raw_total = fn_total = 0.0
    for _ in range(rounds):
        for chunk in chunks:
            before = best_of(raw_probe, chunk)
            timed = best_of(fn, chunk)
            after = best_of(raw_probe, chunk)
            ratios.append(timed / ((before + after) / 2))
            raw_total += before + after
            fn_total += timed
    return ratios, raw_total / 2, fn_total


def time_evaluate(config: WorkloadConfig, sets: int) -> dict:
    """Time ``Engine(probe_impl=...).evaluate`` of one point, batch vs scalar.

    Every default scheme runs on ``sets`` task sets with jobs=1 and no
    store: one inline shard stepping every set x scheme through the
    lockstep driver.  A discarded batch pass warms up first.  The two
    backends must give the same answer, compared as ``to_dict()``
    documents so that the NaN means of a scheme that schedules no set
    (``null`` there) compare equal.
    """
    point = PointSpec(
        config=config, schemes=tuple(default_schemes()), sets=sets, seed=SEED
    )
    Engine(probe_impl="batch").evaluate(point)  # warm-up
    seconds, answers = {}, {}
    for impl in ("batch", "scalar"):
        start = time.perf_counter()
        stats = Engine(probe_impl=impl).evaluate(point)
        seconds[impl] = time.perf_counter() - start
        answers[impl] = {label: s.to_dict() for label, s in stats.items()}
    if answers["batch"] != answers["scalar"]:
        raise AssertionError(
            f"batch and scalar Engine.evaluate disagree on {sets} sets: "
            f"{answers['batch']} != {answers['scalar']}"
        )
    return {
        "schemes": [spec.label for spec in point.schemes],
        **{
            impl: {"seconds": seconds[impl], "sets_per_sec": sets / seconds[impl]}
            for impl in ("scalar", "batch")
        },
        "speedup": seconds["scalar"] / seconds["batch"],
    }


def placement_loop(taskset, cores: int, refresh: bool = True) -> int:
    """One daemon-style placement loop; returns hypotheses answered.

    Mirrors the coordinator's ``/place`` flush: probe *every* pending
    task against every core, place the head of the queue on its best
    finite core, bring the remaining rows up to date, repeat.  Every probe
    is the flush's own call (``batch_probe_tasks``); with ``refresh`` it
    re-probes only the placed core's column, without it every round
    re-probes the full ``(pending, cores)`` grid.  Identical answers,
    different cost; the returned count is the full grid of every round
    either way.
    """
    partition = Partition(taskset, cores)
    pending = list(ordering.by_contribution(taskset))
    utils = batch_probe_tasks(partition.level_matrices(), taskset, pending)
    hypotheses = 0
    while pending:
        hypotheses += utils.size
        head, utils = utils[0], utils[1:]
        task_index = pending.pop(0)
        core = best_core(head)
        if core is None:
            continue  # no feasible core: skip, keep placing the rest
        partition.assign(task_index, core)
        mats = partition.level_matrices()
        if refresh:
            utils[:, [core]] = batch_probe_tasks(mats, taskset, pending, cores=[core])
        else:
            utils = batch_probe_tasks(mats, taskset, pending)
    return hypotheses


def run_placement_bench(sets: int = PLACEMENT_SETS) -> dict:
    """Time the placement loop: full re-probe vs one-column refresh.

    ``batch`` times the full re-probe of every round, ``incremental``
    the one-column refresh of the serve flush (the key keeps the name
    of the backend that used to serve it, so the committed baseline and
    its gates compare like with like).  Both answer the exact same
    hypotheses, so ``speedup`` is a pure throughput ratio on provably
    equivalent work.
    """
    config = WorkloadConfig(task_count_range=PLACEMENT_TASK_RANGE)
    rng = np.random.default_rng(SEED)
    tasksets = [generate_taskset(config, rng) for _ in range(sets)]
    timings: dict[str, float] = {}
    hypotheses = 0
    for key, refresh in (("batch", False), ("incremental", True)):
        placement_loop(tasksets[0], config.cores, refresh=refresh)  # warm-up
        best = float("inf")
        for _ in range(PASSES):
            start = time.perf_counter()
            hypotheses = sum(
                placement_loop(ts, config.cores, refresh=refresh)
                for ts in tasksets
            )
            best = min(best, time.perf_counter() - start)
        timings[key] = best
    return {
        "benchmark": "placement-loop",
        "sets": sets,
        "seed": SEED,
        "task_count_range": list(PLACEMENT_TASK_RANGE),
        "hypotheses": hypotheses,
        **{
            key: {"seconds": timings[key], "probes_per_sec": hypotheses / timings[key]}
            for key in ("batch", "incremental")
        },
        "speedup": timings["batch"] / timings["incremental"],
    }


async def _place_lane(host: str, port: int, bodies: list[bytes]) -> None:
    """POST each body to ``/place`` in turn on one keep-alive connection."""
    reader, writer = await asyncio.open_connection(host, port)
    for body in bodies:
        head = f"POST /place HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}"
        writer.write(f"{head}\r\n\r\n".encode("latin-1") + body)
        await writer.drain()
        length = 0  # read the status line and headers, then the body
        while (line := await reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        await reader.readexactly(length)
    writer.close()
    await writer.wait_closed()


def run_serve_bench() -> dict:
    """Serve-latency burst: an in-process daemon under concurrent /place.

    Boots a real :class:`~repro.serve.daemon.ServeDaemon` (ephemeral
    port, the serve defaults), sends it :data:`SERVE_PLACES` seeded
    ``/place`` requests over :data:`SERVE_CONNECTIONS` keep-alive
    connections, and reports qps plus the exact log-bucket p50/p95 of
    ``serve.place.seconds`` (queue-wait + kernel + apply per request,
    the same histogram the daemon exposes via Prometheus).  Everything
    runs in one process on one event loop, so the numbers are the
    coalescing path's, not a client fleet's.
    """
    from repro.obs.runtime import OBS
    from repro.serve.daemon import ServeConfig, ServeDaemon

    rng = np.random.default_rng(SEED)
    bodies = []
    for i in range(SERVE_PLACES):
        period = float(rng.uniform(50.0, 200.0))
        lo = period * float(rng.uniform(0.001, 0.01))
        body = {"task": {"name": f"b{i}", "period": period, "wcets": [lo, lo * 2]}}
        bodies.append(json.dumps(body).encode("utf-8"))

    async def _bench() -> dict:
        config = ServeConfig(cores=SERVE_CORES, port=0, command=["bench", "serve"])
        daemon = ServeDaemon(config)
        shutdown = asyncio.Event()
        ready = asyncio.Event()
        runner = asyncio.create_task(daemon.run(shutdown, ready=ready))
        await ready.wait()
        host, port = daemon.bound
        start = time.perf_counter()
        await asyncio.gather(
            *(
                _place_lane(host, port, bodies[k::SERVE_CONNECTIONS])
                for k in range(SERVE_CONNECTIONS)
            )
        )
        elapsed = time.perf_counter() - start
        # The daemon instruments the whole process while it runs, so its
        # registry is readable here — before shutdown restores state.
        latency = OBS.registry.histogram("serve.place.seconds").as_dict()
        batch = OBS.registry.histograms.get("serve.batch_size")
        batch_p50 = batch.percentile(50.0) if batch is not None else 0.0
        accepted = OBS.registry.counter("serve.place.accepted").value
        shutdown.set()
        await runner
        return {
            "benchmark": "serve-burst",
            "places": SERVE_PLACES,
            "connections": SERVE_CONNECTIONS,
            "seed": SEED,
            "cores": SERVE_CORES,
            "seconds": elapsed,
            "qps": SERVE_PLACES / elapsed,
            "accepted": accepted,
            "batch_p50": batch_p50,
            "place_p50_s": latency["p50"],
            "place_p95_s": latency["p95"],
        }

    return asyncio.run(_bench())


def measure(sets: int = DEFAULT_SETS) -> dict:
    """Run every quick measurement; same vocabulary as the baselines.

    ``probes``, ``batch``/``scalar`` seconds and probes/sec and
    ``speedup`` are the probe rows; ``end_to_end``, ``placement`` and
    ``serve`` are shaped like the committed sections of the same name,
    and ``disabled_overhead_ratio`` is the median paired ratio.
    """
    if sets < 1:
        raise ReproError(f"sets must be >= 1, got {sets}")
    config = WorkloadConfig()  # the Fig.-1 default point
    states = replay_probe_states(config, sets)
    batch = one_task_probe(BATCH.answer)
    batch_seconds = best_of(batch, states)
    scalar_seconds = best_of(one_task_probe(get_backend("scalar").answer), states)
    ratios, _, _ = paired_ratios(batch, [states[k::CHUNKS] for k in range(CHUNKS)])
    return {
        "sets": sets,
        "seed": SEED,
        "probes": len(states),
        "batch": {
            "seconds": batch_seconds,
            "probes_per_sec": len(states) / batch_seconds,
        },
        "scalar": {
            "seconds": scalar_seconds,
            "probes_per_sec": len(states) / scalar_seconds,
        },
        "speedup": scalar_seconds / batch_seconds,
        "end_to_end": time_evaluate(config, sets),
        "placement": run_placement_bench(),
        "serve": run_serve_bench(),
        "disabled_overhead_ratio": statistics.median(ratios),
        "overhead_samples": len(ratios),
    }


def _load_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def compare_against_baselines(
    measured: dict,
    baseline_dir: str | Path,
    *,
    gate_ratio: float = GATE_RATIO,
    overhead_gate: float = OVERHEAD_GATE,
) -> tuple[list[str], list[str]]:
    """Gate the measurement against the committed baselines.

    Returns ``(failures, lines)``: human-readable report lines plus a
    list of failed-gate descriptions (empty = all gates passed).
    """
    baseline_dir = Path(baseline_dir)
    failures: list[str] = []
    lines = [
        f"benchmark gate: {measured['probes']} probes "
        f"({measured['sets']} sets, seed {measured['seed']})",
        "",
        f"  {'metric':<26} {'measured':>12} {'committed':>12} {'gate':>16}",
    ]

    def missing(what: str) -> None:
        failures.append(f"missing/unreadable {what}")
        lines.append(f"  !! no {what} in {baseline_dir}")

    def check(metric, value, committed, bound, ceiling=False, digits=2) -> None:
        ok = value <= bound if ceiling else value >= bound
        gate = f"{'<=' if ceiling else '>='} {bound:.{digits}f}"
        lines.append(
            f"  {metric:<26} {value:>12.{digits}f} {committed:>12.{digits}f} "
            f"{gate:>14} {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(
                f"{metric}: measured {value:.{digits}f} misses gate {gate} "
                f"(committed {committed:.{digits}f})"
            )

    def floor(metric, value, committed, minimum=0.0) -> None:
        check(metric, value, committed, max(minimum, gate_ratio * committed))

    partition = _load_json(baseline_dir / PARTITION_BASELINE)
    if partition is None:
        missing(f"baseline {PARTITION_BASELINE}")
    else:
        probe = partition["probe"]
        floor(
            "batch probes/sec",
            measured["batch"]["probes_per_sec"],
            probe["batch"]["probes_per_sec"],
        )
        floor("batch/scalar speedup", measured["speedup"], probe["speedup"])
        end_to_end = partition.get("end_to_end")
        if end_to_end is None:
            missing(f"'end_to_end' section of {PARTITION_BASELINE}")
        else:
            floor(
                "lockstep speedup",
                measured["end_to_end"]["speedup"],
                end_to_end["speedup"],
            )
        placement = partition.get("placement")
        if placement is None:
            missing(f"'placement' section of {PARTITION_BASELINE}")
        else:
            floor(
                "incremental probes/sec",
                measured["placement"]["incremental"]["probes_per_sec"],
                placement["incremental"]["probes_per_sec"],
            )
            # Never below 1.0: whatever the hardware, the column refresh
            # must not lose to the full re-probe.
            floor(
                "incremental/batch speedup",
                measured["placement"]["speedup"],
                placement["speedup"],
                minimum=1.0,
            )

    serve = _load_json(baseline_dir / SERVE_BASELINE)
    if serve is None:
        missing(f"baseline {SERVE_BASELINE}")
    else:
        floor("serve qps", measured["serve"]["qps"], serve["qps"])
        committed_p95 = serve["place_p95_s"]
        check(
            "serve place p95 (s)",
            measured["serve"]["place_p95_s"],
            committed_p95,
            committed_p95 / gate_ratio,
            ceiling=True,
            digits=5,
        )

    # The overhead gate is absolute; the committed ratio is context.
    overhead = _load_json(baseline_dir / OVERHEAD_BASELINE)
    check(
        "disabled overhead",
        measured["disabled_overhead_ratio"],
        overhead["disabled_overhead_ratio"] if overhead else float("nan"),
        overhead_gate,
        ceiling=True,
        digits=3,
    )
    if overhead is None:
        missing(f"baseline {OVERHEAD_BASELINE}")

    lines.append("")
    if failures:
        lines.append(f"{len(failures)} gate(s) FAILED:")
        lines.extend(f"  - {failure}" for failure in failures)
    else:
        lines.append("all gates passed")
    return failures, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gate.py",
        description=(
            "Re-measure the quick benchmarks and gate them against the "
            "committed BENCH_*.json baselines at the repo root."
        ),
    )
    parser.add_argument(
        "--sets",
        type=int,
        default=DEFAULT_SETS,
        help=f"task sets the probe and lockstep rows replay (default {DEFAULT_SETS})",
    )
    args = parser.parse_args(argv)
    try:
        measured = measure(args.sets)
    except ReproError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 1
    failures, lines = compare_against_baselines(measured, REPO_ROOT)
    print("\n".join(lines))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
