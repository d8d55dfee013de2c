"""Disabled-instrumentation overhead on the Theorem-1 probe hot path.

The observability layer's contract is that when :data:`repro.obs.OBS`
is disabled (the default), an instrumented call site costs one attribute
load and a branch.  This benchmark pins that contract: it replays the
CA-TPA placement states of the Fig.-1 default workload
(``gate.replay_probe_states``) and times the Eq.-(15) probe twice per
state —

* **raw**: ``gate.raw_probe``, a one-task ``probe_request`` answered
  by the body of :meth:`repro.partition.backend.BatchBackend.answer`
  without its ``if OBS.enabled:`` branch;
* **guarded**: the same request answered by ``BATCH.answer`` itself,
  which adds only that guard.

The acceptance gate is ``median(guarded / raw) <= 1.02`` over paired
A/B/A chunk timings: the states are split into interleaved chunks, each
chunk is timed raw -> guarded -> raw, and the chunk ratio divides the
guarded time by the mean of its two surrounding raw times
(``gate.paired_ratios``; the quick gate runs the same loop).  Pairing
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
import statistics

from conftest import bench_sets
from gate import (
    OVERHEAD_BASELINE,
    PARTITION_BASELINE,
    REPO_ROOT,
    SEED,
    one_task_probe,
    paired_ratios,
    replay_probe_states,
)

from repro import obs
from repro.gen import WorkloadConfig
from repro.partition.backend import BATCH

RESULT_PATH = REPO_ROOT / OVERHEAD_BASELINE
BASELINE_PATH = REPO_ROOT / PARTITION_BASELINE
CHUNKS = 16  #: interleaved state chunks, each timed raw -> guarded -> raw
ROUNDS = 3  #: full passes over all chunks (CHUNKS * ROUNDS paired ratios)
MAX_DISABLED_OVERHEAD = 1.02  #: median guarded/raw ratio gate (< 2 %)


def test_disabled_instrumentation_overhead(emit):
    config = WorkloadConfig()  # the Fig.-1 default point
    sets = bench_sets(60)
    states = replay_probe_states(config, sets)
    chunks = [states[k::CHUNKS] for k in range(CHUNKS)]
    assert not obs.OBS.enabled  # the default state is what we are gating

    guarded = one_task_probe(BATCH.answer)
    disabled_ratios, raw_s, guarded_s = paired_ratios(guarded, chunks, ROUNDS)
    disabled_ratio = statistics.median(disabled_ratios)

    with obs.instrument():
        enabled_ratios, _, enabled_s = paired_ratios(guarded, chunks, ROUNDS)
        # Inside an open span the counters are recorded the same way —
        # the cost an actual instrumented sweep pays (informational, not
        # gated).
        with obs.span("bench.overhead"):
            in_span_ratios, _, in_span_s = paired_ratios(guarded, chunks, ROUNDS)
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
