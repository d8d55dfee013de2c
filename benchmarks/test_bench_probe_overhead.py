"""Disabled-instrumentation overhead on the Theorem-1 probe hot path.

The observability layer's contract is that when :data:`repro.obs.OBS`
is disabled (the default), an instrumented call site costs one attribute
load and a branch.  This benchmark pins that contract: it replays the
CA-TPA placement states of the Fig.-1 default workload (exactly like
``test_bench_probe_speed.py``) and times the Eq.-(15) probe twice per
state —

* **raw**: the bare batch kernel,
  ``_core_utilization_stack(partition.candidate_stack(i), "max")``,
  with no instrumentation guard at all;
* **guarded**: the batch backend's public probe,
  :meth:`repro.partition.backend.BatchBackend.probe` on ``BATCH``, which
  adds the ``if OBS.enabled:`` guard (and the rule validation).

The acceptance gate is ``median(guarded / raw) <= 1.02`` over paired
A/B/A chunk timings: the states are split into interleaved chunks, each
chunk is timed raw -> guarded -> raw, and the chunk ratio divides the
guarded time by the mean of its two surrounding raw times.  Pairing
cancels clock drift and the median discards scheduler outliers — the
per-probe kernel is tens of microseconds, so a plain two-big-loops
comparison would gate on machine noise, not on the guard.  The
*enabled* cost is measured alongside and reported for information — it
is allowed to be expensive, it just has to be opt-in.

Results land in ``BENCH_obs_overhead.json`` at the repo root; the
committed ``BENCH_partition.json`` throughput is echoed for context
(cross-run wall-clock comparisons are informational, never gated).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import statistics
import time

import numpy as np
from conftest import bench_sets

from repro import obs
from repro.analysis.batch import _core_utilization_stack
from repro.gen import WorkloadConfig, generate_taskset
from repro.model import Partition
from repro.partition import ordering
from repro.partition.backend import BATCH

REPO_ROOT = pathlib.Path(__file__).parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_obs_overhead.json"
BASELINE_PATH = REPO_ROOT / "BENCH_partition.json"
SEED = 2016
CHUNKS = 16  #: interleaved state chunks, each timed raw -> guarded -> raw
ROUNDS = 3  #: full passes over all chunks (CHUNKS * ROUNDS paired ratios)
MAX_DISABLED_OVERHEAD = 1.02  #: median guarded/raw ratio gate (< 2 %)


def _replay_states(config: WorkloadConfig, sets: int):
    """The (partition, task_index) probe states of a greedy CA-TPA replay.

    The partitions are materialized up front (placement replayed once),
    so the timed loops below touch identical, pre-built state.
    """
    rng = np.random.default_rng(SEED)
    states = []
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


def _time_chunk(fn, chunk, passes: int = 3) -> float:
    """Best-of-``passes`` wall time of ``fn`` over a chunk of states.

    The minimum is the measurement least polluted by preemption and
    frequency scaling; the A/B/A pairing around it handles the drift
    that the minimum cannot.
    """
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        for partition, task_index in chunk:
            fn(partition, task_index)
        best = min(best, time.perf_counter() - start)
    return best


def _raw(partition, task_index):
    return _core_utilization_stack(partition.candidate_stack(task_index), "max")


def _paired_ratios(fn, chunks) -> tuple[list[float], float, float]:
    """Per-chunk ``fn / raw`` ratios from A/B/A paired timings.

    Returns ``(ratios, total_raw_seconds, total_fn_seconds)``; each
    chunk's raw time is the mean of the two runs bracketing the ``fn``
    run, so slow clock drift cancels out of the ratio.
    """
    ratios = []
    raw_total = fn_total = 0.0
    for _ in range(ROUNDS):
        for chunk in chunks:
            before = _time_chunk(_raw, chunk)
            timed = _time_chunk(fn, chunk)
            after = _time_chunk(_raw, chunk)
            ratios.append(timed / ((before + after) / 2))
            raw_total += before + after
            fn_total += timed
    return ratios, raw_total / 2, fn_total


def test_disabled_instrumentation_overhead(emit):
    config = WorkloadConfig()  # the Fig.-1 default point
    sets = bench_sets(60)
    states = _replay_states(config, sets)
    chunks = [states[k::CHUNKS] for k in range(CHUNKS)]
    assert not obs.OBS.enabled  # the default state is what we are gating

    disabled_ratios, raw_s, guarded_s = _paired_ratios(BATCH.probe, chunks)
    disabled_ratio = statistics.median(disabled_ratios)

    with obs.instrument():
        enabled_ratios, _, enabled_s = _paired_ratios(BATCH.probe, chunks)
        # Inside an open span the probe additionally accumulates its
        # timing bucket on the innermost frame — the cost an actual
        # instrumented sweep pays (informational, not gated).
        with obs.span("bench.overhead"):
            in_span_ratios, _, in_span_s = _paired_ratios(BATCH.probe, chunks)
    enabled_ratio = statistics.median(enabled_ratios)
    in_span_ratio = statistics.median(in_span_ratios)

    baseline_note = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        committed_pps = baseline["probe"]["batch"]["probes_per_sec"]
        measured_pps = len(states) * ROUNDS / guarded_s
        baseline_note = (
            f"committed BENCH_partition.json batch path: "
            f"{committed_pps:.0f} probes/sec; this run (guarded, disabled): "
            f"{measured_pps:.0f} probes/sec (informational — different "
            "machines/loads are not comparable)"
        )

    payload = {
        "benchmark": "obs-disabled-overhead",
        "workload": dataclasses.asdict(config),
        "sets": sets,
        "seed": SEED,
        "probes": len(states),
        "chunks": CHUNKS,
        "rounds": ROUNDS,
        "raw_seconds": raw_s,
        "guarded_disabled_seconds": guarded_s,
        "guarded_enabled_seconds": enabled_s,
        "guarded_enabled_in_span_seconds": in_span_s,
        "disabled_overhead_ratio": disabled_ratio,
        "enabled_overhead_ratio": enabled_ratio,
        "enabled_in_span_overhead_ratio": in_span_ratio,
        "gate": MAX_DISABLED_OVERHEAD,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    n_ratios = CHUNKS * ROUNDS
    lines = [
        "Observability overhead on the Eq.-(15) probe hot path "
        f"({len(states)} probes, median of {n_ratios} paired A/B/A ratios)",
        "",
        f"  {'path':<22} {'seconds':>10} {'vs raw':>8}",
        f"  {'raw kernel':<22} {raw_s:>10.4f} {'1.00x':>8}",
        f"  {'guarded, disabled':<22} {guarded_s:>10.4f} "
        f"{disabled_ratio:>7.3f}x",
        f"  {'guarded, enabled':<22} {enabled_s:>10.4f} "
        f"{enabled_ratio:>7.3f}x",
        f"  {'enabled, in span':<22} {in_span_s:>10.4f} "
        f"{in_span_ratio:>7.3f}x",
        "",
        f"  gate: disabled overhead <= {MAX_DISABLED_OVERHEAD:.2f}x (median)",
    ]
    if baseline_note:
        lines += ["", f"  {baseline_note}"]
    emit("probe_overhead", "\n".join(lines))

    assert disabled_ratio <= MAX_DISABLED_OVERHEAD, (
        f"disabled instrumentation costs {(disabled_ratio - 1) * 100:.1f}% "
        f"on the probe hot path (gate: "
        f"{(MAX_DISABLED_OVERHEAD - 1) * 100:.0f}%)"
    )
