"""``sweep``: the Fig.-1 NSU sweep (5 NSU points x the 5 paper schemes).

Each pass launches ``repro-mc fig1 --sets 10 --seed S`` inline (jobs=1,
the CLI default) into a fresh, empty result store, with ``--progress``
for the per-point timeline and ``--csv`` for the rows the check reads.
A run makes several passes in two concurrent lanes: set-up is sampled
several times, and the figures pool both CPUs of the host, whose speed
was seen to differ between CPUs and over seconds.  Throughput is per
engine process (sets over summed pass work time).

Pass seeds come from a fixed pool (``reference/sweep_pool.json``,
regenerated by ``make_reference.py``) that records, per seed, the
digest of its rows and the CPU time its pass took; the run's ``--seed``
picks one pool seed per cost stratum (:func:`common.stratified_seeds`),
and every pass's rows must equal the committed reference for that seed
and set count bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from common import BENCH_DIR, Program, proc_cpu_s, stratified_seeds, summarize_passes

SETS_PER_POINT = 10
POINTS = 5
#: Concurrent launch lanes (the host has 2 CPUs).
LANES = 2
#: Nominal wall time of one pass (with the other lane busy) on the
#: 2-vCPU host the benchmark was sized on; ``--seconds`` / this = passes
#: per lane.
PASS_SECONDS = 3.8
REFERENCE_PATH = BENCH_DIR / "reference" / "sweep_pool.json"
_METRICS = ("sched_ratio", "u_sys", "u_avg", "imbalance")


def passes_for(seconds: float) -> int:
    return max(3, round(seconds / PASS_SECONDS))


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def pass_seeds(seed: int, passes: int, reference: dict) -> list[int]:
    costs = {int(s): e["work_cpu_s"] for s, e in reference["seeds"].items()}
    return stratified_seeds(costs, passes, seed)


def canonical_rows(csv_text: str) -> list[tuple[str, str, str, str]]:
    """``(value, scheme, metric, result)`` rows of a ``--csv`` export,
    floats as printed (``repr``), so equality is bit-for-bit."""
    rows = [
        (r["value"], r["scheme"], r["metric"], r["result"])
        for r in csv.DictReader(io.StringIO(csv_text))
    ]
    return sorted(rows)


def rows_from_artifact(doc: dict) -> list[tuple[str, str, str, str]]:
    """The same canonical rows from a committed ``*.artifact.json``."""
    rows = []
    for row in doc["rows"]:
        for stats in row["stats"]:
            for metric in _METRICS:
                value = stats[metric]
                rows.append(
                    (
                        repr(float(row["value"])),
                        stats["scheme"],
                        metric,
                        "nan" if value is None else repr(float(value)),
                    )
                )
    return sorted(rows)


def rows_digest(rows: list[tuple[str, str, str, str]]) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check_rows(csv_text: str, seed: int, reference: dict) -> list[str]:
    """Errors (empty = pass) of one pass's CSV against the reference."""
    if reference["sets_per_point"] != SETS_PER_POINT:
        return [
            f"reference is for {reference['sets_per_point']} sets/point, "
            f"the run used {SETS_PER_POINT}"
        ]
    entry = reference["seeds"].get(str(seed))
    if entry is None:
        return [f"no committed reference rows for seed {seed}"]
    expected = entry["rows_sha256"]
    try:
        rows = canonical_rows(csv_text)
    except (KeyError, csv.Error) as exc:
        return [f"unreadable CSV: {exc!r}"]
    if len(rows) != POINTS * 5 * len(_METRICS):
        return [f"expected {POINTS * 5 * len(_METRICS)} rows, got {len(rows)}"]
    got = rows_digest(rows)
    if got != expected:
        return [f"seed {seed}: rows differ from the committed reference "
                f"(sha256 {got[:12]} != {expected[:12]})"]
    return []


def run_pass(seed: int, workdir: Path, index: int, ledger: Path | None = None) -> dict:
    """One ``repro-mc fig1`` launch; returns its timeline and check."""
    store = workdir / f"sweep-store-{index}"
    csv_dir = workdir / f"sweep-csv-{index}"
    program = Program(
        [
            "fig1",
            "--sets", str(SETS_PER_POINT),
            "--seed", str(seed),
            "--store", str(store),
            "--csv", str(csv_dir),
            "--progress",
        ],
        workdir,
        f"sweep-{index}",
        ledger,
    )
    first_point = point_start = last_shard = None
    cpu_at_work = 0.0
    latencies: list[float] = []
    for t, line in program.lines():
        if line.startswith("[fig1 "):
            if first_point is None:
                first_point = t
                cpu_at_work = proc_cpu_s(program.pid)
            point_start = t
        elif line.lstrip().startswith("shard [") and point_start is not None:
            latencies.append(t - point_start)
            last_shard = t
    code = program.finish()
    errors = []
    if code != 0:
        errors.append(f"fig1 seed {seed} exited {code}: {program.stderr()[-500:]}")
    if len(latencies) != POINTS:
        errors.append(f"fig1 seed {seed}: {len(latencies)}/{POINTS} points done")
    csv_path = csv_dir / "fig1.csv"
    return {
        "seed": seed,
        "setup_s": (first_point - program.t_launch) if first_point is not None else None,
        "work_s": (last_shard - first_point) if latencies else None,
        "work_cpu_s": program.cpu_s - cpu_at_work,
        "rss_mb": program.maxrss_mb,
        "latencies": latencies,
        "items": SETS_PER_POINT * len(latencies),
        "units_planned": POINTS,
        "units_done": len(latencies),
        "errors": errors,
        "csv": csv_path.read_text() if csv_path.is_file() else "",
    }


def run(seed: int, seconds: float, workdir: Path, ledger_dir: Path | None = None) -> dict:
    """All passes of one run; ``ledger_dir`` set = traced launches.

    Passes run in ``LANES`` concurrent lanes, one launch after another
    in each, so the run samples both CPUs of the host.
    """
    reference = load_reference()
    seeds = pass_seeds(seed, LANES * passes_for(seconds), reference)
    passes: list[dict | None] = [None] * len(seeds)

    def lane(first: int) -> None:
        for k in range(first, len(seeds), LANES):
            ledger = None if ledger_dir is None else ledger_dir / f"sweep-{k}.json"
            result = run_pass(seeds[k], workdir, k, ledger)
            if not result["errors"]:
                result["errors"] = check_rows(result["csv"], seeds[k], reference)
            passes[k] = result

    with ThreadPoolExecutor(max_workers=LANES) as pool:
        for future in [pool.submit(lane, i) for i in range(LANES)]:
            future.result()
    return summarize_passes(passes, 1, "sets_per_s", "sets/s")
