"""Quick probe-throughput regression check against committed baselines.

``repro-mc bench compare`` re-runs a scaled-down version of the
``benchmarks/`` probe microbenchmarks — Theorem-1 probe throughput
(batch vs scalar), the daemon-style placement loop (one-column refresh
vs full re-probe), and the disabled-instrumentation overhead on the
probe hot path — and compares the result against the committed
``BENCH_partition.json`` / ``BENCH_obs_overhead.json`` baselines.

Raw wall-clock numbers are not comparable across machines, so the gates
are deliberately chosen to survive a hardware change:

* **speedup** — the measured batch/scalar speedup must be at least
  ``gate_ratio`` times the committed speedup.  Both sides of the ratio
  run on the *same* machine, so a drop means the batch path regressed
  relative to the scalar path, not that the machine is slower.
* **throughput** — measured batch probes/sec must be at least
  ``gate_ratio`` times the committed figure.  This one *is*
  machine-relative; the default ``gate_ratio`` leaves generous room for
  slower CI hardware while still catching an order-of-magnitude
  regression (e.g. the batch path silently falling back to scalar).
* **placement loop** — measured hypotheses/sec of the one-column
  refresh (the ``incremental`` key of the baseline) must clear
  ``gate_ratio`` times the committed figure, and its speedup over the
  full re-probe (the ``batch`` key) must stay above
  ``max(1.0, gate_ratio x committed)`` — i.e. the refresh must never be
  slower than re-probing everything, however slow the machine.
* **disabled overhead** — the median paired guarded/raw ratio must stay
  under ``overhead_gate``.  Machine-independent by construction; the
  quick run uses a looser default gate than the full benchmark's 1.02
  because fewer samples mean more timing noise.

The full, slow benchmarks under ``benchmarks/`` remain the source of
truth for the committed numbers; this module exists so CI (and a
developer about to touch the probe layer) gets a minutes-not-hours
regression signal.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.analysis.batch import _core_utilization_stack
from repro.gen import WorkloadConfig, generate_taskset
from repro.model import Partition
from repro.partition import ordering
from repro.partition.backend import BATCH, get_backend
from repro.types import ReproError

__all__ = [
    "DEFAULT_SETS",
    "DEFAULT_PLACEMENT_SETS",
    "DEFAULT_SERVE_PLACES",
    "DEFAULT_GATE_RATIO",
    "DEFAULT_OVERHEAD_GATE",
    "PLACEMENT_TASK_RANGE",
    "placement_loop",
    "replay_probe_states",
    "run_placement_bench",
    "run_probe_bench",
    "run_serve_bench",
    "compare_against_baselines",
    "run_compare",
]

SEED = 2016
DEFAULT_SETS = 12
DEFAULT_PLACEMENT_SETS = 3
CHUNKS = 8  #: interleaved chunks for the paired A/B/A overhead measurement

#: Backlog depth of the placement-loop workload.  The one-column
#: refresh saves ``cores - 1`` columns of every pending row per round,
#: so its advantage grows with the backlog; a deep backlog is the
#: daemon-under-load shape it exists for.
PLACEMENT_TASK_RANGE = (250, 400)

#: Measured value must be >= gate_ratio * committed value (throughput
#: and speedup gates).  0.5 tolerates a 2x slower machine / noisy CI box
#: while still catching the batch path degrading to scalar-like speed.
DEFAULT_GATE_RATIO = 0.5

#: Median guarded/raw gate for the quick disabled-overhead check.  The
#: full benchmark gates at 1.02 over 48 paired ratios; the quick run has
#: far fewer samples, so the gate is looser.
DEFAULT_OVERHEAD_GATE = 1.10

PARTITION_BASELINE = "BENCH_partition.json"
OVERHEAD_BASELINE = "BENCH_obs_overhead.json"
SERVE_BASELINE = "BENCH_serve.json"

#: Concurrent /place requests of the quick serve-latency burst.
DEFAULT_SERVE_PLACES = 256


def replay_probe_states(
    config: WorkloadConfig, sets: int, seed: int = SEED
) -> list[tuple[Partition, int]]:
    """The (partition, task_index) probe states of a greedy CA-TPA replay.

    Mirrors the state construction of ``benchmarks/`` (placement replayed
    once, every recorded state immutable) at a fraction of the set count.
    """
    rng = np.random.default_rng(seed)
    states: list[tuple[Partition, int]] = []
    for _ in range(sets):
        taskset = generate_taskset(config, rng)
        partition = Partition(taskset, config.cores)
        placed: list[tuple[int, int]] = []
        for task_index in ordering.by_contribution(taskset):
            snapshot = Partition(taskset, config.cores)
            for i, m in placed:
                snapshot.assign(i, m)
            states.append((snapshot, task_index))
            new_utils = _core_utilization_stack(
                partition.candidate_stack(task_index), "max"
            )
            finite = np.isfinite(new_utils)
            if not finite.any():
                break
            target = int(np.argmin(np.where(finite, new_utils, np.inf)))
            partition.assign(task_index, target)
            placed.append((task_index, target))
    return states


def placement_loop(
    taskset, cores: int, rule: str = "max", refresh: bool = True
) -> int:
    """One daemon-style placement loop; returns hypotheses answered.

    Mirrors the coordinator's ``/place`` flush: probe *every* pending
    task against every core, place the head of the queue on its best
    finite core, bring the remaining rows up to date, repeat.  With
    ``refresh`` the loop makes the flush's own call — re-probe only the
    placed core's column; without it every round re-probes the full
    ``(pending, cores)`` grid.  Identical answers, different cost; the
    returned count is the full grid of every round either way.
    """
    partition = Partition(taskset, cores)
    pending = list(ordering.by_contribution(taskset))
    utils = BATCH.probe_tasks(partition, pending, rule=rule)
    hypotheses = 0
    while pending:
        hypotheses += utils.size
        head, utils = utils[0], utils[1:]
        task_index = pending.pop(0)
        finite = np.isfinite(head)
        if not finite.any():
            continue  # no feasible core: skip, keep placing the rest
        core = int(np.argmin(np.where(finite, head, np.inf)))
        partition.assign(task_index, core)
        if refresh:
            utils[:, [core]] = BATCH.probe_tasks(
                partition, pending, rule=rule, cores=[core]
            )
        else:
            utils = BATCH.probe_tasks(partition, pending, rule=rule)
    return hypotheses


def run_placement_bench(
    sets: int = DEFAULT_PLACEMENT_SETS, seed: int = SEED, passes: int = 3
) -> dict:
    """Time the placement loop: full re-probe vs one-column refresh.

    ``batch`` times the full re-probe of every round, ``incremental``
    the one-column refresh of the serve flush (the key keeps the name
    of the backend that used to serve it, so the committed baseline and
    its gates compare like with like).  Both answer the exact same
    hypotheses, so ``speedup`` is a pure throughput ratio on provably
    equivalent work.
    """
    config = WorkloadConfig(task_count_range=PLACEMENT_TASK_RANGE)
    rng = np.random.default_rng(seed)
    tasksets = [generate_taskset(config, rng) for _ in range(sets)]
    timings: dict[str, float] = {}
    hypotheses = 0
    for key, refresh in (("batch", False), ("incremental", True)):
        placement_loop(tasksets[0], config.cores, refresh=refresh)  # warm-up
        best = float("inf")
        for _ in range(passes):
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
        "seed": seed,
        "task_count_range": list(PLACEMENT_TASK_RANGE),
        "hypotheses": hypotheses,
        "batch": {
            "seconds": timings["batch"],
            "probes_per_sec": hypotheses / timings["batch"],
        },
        "incremental": {
            "seconds": timings["incremental"],
            "probes_per_sec": hypotheses / timings["incremental"],
        },
        "speedup": timings["batch"] / timings["incremental"],
    }


def run_serve_bench(
    places: int = DEFAULT_SERVE_PLACES, seed: int = SEED, cores: int = 8
) -> dict:
    """Serve-latency burst: an in-process daemon under concurrent /place.

    Boots a real :class:`~repro.serve.daemon.ServeDaemon` (ephemeral
    port, the serve defaults), fires ``places`` concurrent HTTP
    ``/place`` requests at it, and reports qps plus the exact log-bucket
    p50/p95 of ``serve.place.seconds`` (queue-wait + kernel + apply per
    request, the same histogram the daemon exposes via Prometheus).
    Everything runs in one process on one event loop, so the numbers are
    the coalescing path's, not a client fleet's.
    """
    import asyncio
    import json as json_mod

    from repro.obs.runtime import OBS
    from repro.serve.daemon import ServeConfig, ServeDaemon

    rng = np.random.default_rng(seed)
    bodies = []
    for i in range(places):
        period = float(rng.uniform(50.0, 200.0))
        lo = period * float(rng.uniform(0.001, 0.01))
        body = {
            "task": {"name": f"b{i}", "period": period, "wcets": [lo, lo * 2]}
        }
        bodies.append(json_mod.dumps(body).encode("utf-8"))

    async def _post(host: str, port: int, body: bytes) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            (
                "POST /place HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()
        await reader.read()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    async def _bench() -> dict:
        config = ServeConfig(
            cores=cores,
            port=0,
            backlog=places + 8,
            command=["bench", "serve"],
        )
        daemon = ServeDaemon(config)
        shutdown = asyncio.Event()
        ready = asyncio.Event()
        runner = asyncio.create_task(daemon.run(shutdown, ready=ready))
        await ready.wait()
        host, port = daemon.bound
        start = time.perf_counter()
        await asyncio.gather(*(_post(host, port, body) for body in bodies))
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
            "places": places,
            "seed": seed,
            "cores": cores,
            "seconds": elapsed,
            "qps": places / elapsed,
            "accepted": accepted,
            "batch_p50": batch_p50,
            "place_p50_s": latency["p50"],
            "place_p95_s": latency["p95"],
        }

    return asyncio.run(_bench())


def _raw(partition: Partition, task_index: int):
    return _core_utilization_stack(partition.candidate_stack(task_index), "max")


def _time_states(fn, states, passes: int = 3) -> float:
    """Best-of-``passes`` wall time of ``fn`` over the probe states."""
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        for partition, task_index in states:
            fn(partition, task_index)
        best = min(best, time.perf_counter() - start)
    return best


def run_probe_bench(sets: int = DEFAULT_SETS, seed: int = SEED) -> dict:
    """Measure batch/scalar probe throughput and the disabled overhead.

    Returns a dict with the same vocabulary as the committed baselines:
    ``probes``, ``batch``/``scalar`` seconds and probes/sec, ``speedup``,
    and the median paired ``disabled_overhead_ratio``.
    """
    if sets < 1:
        raise ReproError(f"sets must be >= 1, got {sets}")
    if seed < 0:
        raise ReproError(f"seed must be >= 0, got {seed}")
    config = WorkloadConfig()  # the Fig.-1 default point
    states = replay_probe_states(config, sets, seed)
    if not states:
        raise ValueError("probe-state replay produced no states")

    batch_seconds = _time_states(BATCH.probe, states)
    scalar_seconds = _time_states(get_backend("scalar").probe, states)

    chunks = [states[k::CHUNKS] for k in range(CHUNKS)]
    ratios = []
    for chunk in chunks:
        before = _time_states(_raw, chunk)
        timed = _time_states(BATCH.probe, chunk)
        after = _time_states(_raw, chunk)
        ratios.append(timed / ((before + after) / 2))

    return {
        "benchmark": "probe-throughput-quick",
        "sets": sets,
        "seed": seed,
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
        "placement": run_placement_bench(seed=seed),
        "serve": run_serve_bench(seed=seed),
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
    gate_ratio: float = DEFAULT_GATE_RATIO,
    overhead_gate: float = DEFAULT_OVERHEAD_GATE,
) -> tuple[list[str], list[str]]:
    """Gate the measurement against the committed baselines.

    Returns ``(failures, lines)``: human-readable report lines plus a
    list of failed-gate descriptions (empty = all gates passed).  A
    missing baseline file is itself a failure — a silently absent
    baseline would make the gate vacuous.
    """
    baseline_dir = Path(baseline_dir)
    failures: list[str] = []
    lines = [
        f"bench compare: {measured['probes']} probes "
        f"({measured['sets']} sets, seed {measured['seed']})",
        "",
        f"  {'metric':<26} {'measured':>12} {'committed':>12} {'gate':>16}",
    ]

    def check(metric: str, value: float, committed: float, floor: float) -> None:
        ok = value >= floor
        lines.append(
            f"  {metric:<26} {value:>12.2f} {committed:>12.2f} "
            f"{'>= ' + format(floor, '.2f'):>14} {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(
                f"{metric}: measured {value:.2f} < gate {floor:.2f} "
                f"(committed {committed:.2f} x ratio {gate_ratio})"
            )

    partition = _load_json(baseline_dir / PARTITION_BASELINE)
    if partition is None:
        failures.append(f"missing/unreadable baseline {PARTITION_BASELINE}")
        lines.append(f"  !! no {PARTITION_BASELINE} in {baseline_dir}")
    else:
        committed_pps = float(partition["probe"]["batch"]["probes_per_sec"])
        committed_speedup = float(partition["probe"]["speedup"])
        check(
            "batch probes/sec",
            measured["batch"]["probes_per_sec"],
            committed_pps,
            gate_ratio * committed_pps,
        )
        check(
            "batch/scalar speedup",
            measured["speedup"],
            committed_speedup,
            gate_ratio * committed_speedup,
        )
        placement = partition.get("placement")
        if placement is None:
            # A vacuously-green placement gate is itself a failure.
            failures.append(
                f"baseline {PARTITION_BASELINE} has no 'placement' section"
            )
            lines.append(f"  !! no placement section in {PARTITION_BASELINE}")
        else:
            committed_inc = float(
                placement["incremental"]["probes_per_sec"]
            )
            committed_inc_speedup = float(placement["speedup"])
            check(
                "incremental probes/sec",
                measured["placement"]["incremental"]["probes_per_sec"],
                committed_inc,
                gate_ratio * committed_inc,
            )
            # Machine-relative floor, but never below 1.0: whatever the
            # hardware, the column refresh must not lose to the full
            # re-probe.
            check(
                "incremental/batch speedup",
                measured["placement"]["speedup"],
                committed_inc_speedup,
                max(1.0, gate_ratio * committed_inc_speedup),
            )

    serve_baseline = _load_json(baseline_dir / SERVE_BASELINE)
    serve_measured = measured.get("serve")
    if serve_baseline is None:
        # Same policy as the placement section: a silently absent
        # baseline would make the serve-latency gate vacuous.
        failures.append(f"missing/unreadable baseline {SERVE_BASELINE}")
        lines.append(f"  !! no {SERVE_BASELINE} in {baseline_dir}")
    elif serve_measured is not None:
        committed_qps = float(serve_baseline["qps"])
        check(
            "serve qps",
            serve_measured["qps"],
            committed_qps,
            gate_ratio * committed_qps,
        )
        # Latency gates from above: a slower machine is allowed
        # 1/gate_ratio times the committed p95, no more.
        committed_p95 = float(serve_baseline["place_p95_s"])
        measured_p95 = float(serve_measured["place_p95_s"])
        ceiling = committed_p95 / gate_ratio
        ok = measured_p95 <= ceiling
        lines.append(
            f"  {'serve place p95 (s)':<26} {measured_p95:>12.5f} "
            f"{committed_p95:>12.5f} "
            f"{'<= ' + format(ceiling, '.5f'):>14} {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(
                f"serve place p95: measured {measured_p95:.5f}s exceeds "
                f"gate {ceiling:.5f}s (committed {committed_p95:.5f}s / "
                f"ratio {gate_ratio})"
            )

    overhead = _load_json(baseline_dir / OVERHEAD_BASELINE)
    measured_overhead = measured["disabled_overhead_ratio"]
    committed_overhead = (
        float(overhead["disabled_overhead_ratio"]) if overhead else float("nan")
    )
    ok = measured_overhead <= overhead_gate
    lines.append(
        f"  {'disabled overhead':<26} {measured_overhead:>12.3f} "
        f"{committed_overhead:>12.3f} "
        f"{'<= ' + format(overhead_gate, '.2f'):>14} {'ok' if ok else 'FAIL'}"
    )
    if not ok:
        failures.append(
            f"disabled overhead: median guarded/raw {measured_overhead:.3f} "
            f"exceeds gate {overhead_gate:.2f}"
        )
    if overhead is None:
        failures.append(f"missing/unreadable baseline {OVERHEAD_BASELINE}")
        lines.append(f"  !! no {OVERHEAD_BASELINE} in {baseline_dir}")

    lines.append("")
    if failures:
        lines.append(f"{len(failures)} gate(s) FAILED:")
        lines.extend(f"  - {failure}" for failure in failures)
    else:
        lines.append("all gates passed")
    return failures, lines


def run_compare(
    *,
    sets: int = DEFAULT_SETS,
    seed: int = SEED,
    baseline_dir: str | Path | None = None,
    gate_ratio: float = DEFAULT_GATE_RATIO,
    overhead_gate: float = DEFAULT_OVERHEAD_GATE,
) -> tuple[int, str]:
    """Run the quick bench and gate it; returns ``(exit_code, report)``.

    ``baseline_dir`` defaults to the current working directory (where CI
    checks out the repo root with the committed ``BENCH_*.json`` files).
    """
    measured = run_probe_bench(sets=sets, seed=seed)
    failures, lines = compare_against_baselines(
        measured,
        Path.cwd() if baseline_dir is None else baseline_dir,
        gate_ratio=gate_ratio,
        overhead_gate=overhead_gate,
    )
    return (1 if failures else 0), "\n".join(lines)
