"""``validate``: the oracle campaign, its four configs x all 11 oracles.

Each pass launches ``repro-mc validate --sets 10 --seed S --jobs 2``
into a fresh, empty result store: 40 cases over the engine's process
pool.  The pool forks its workers at the first shard, so the first
child process of the launch marks the end of set-up.  Every check must
be green and the check count must equal cases x 11.

Pass seeds come from a fixed pool of campaign seeds
(``reference/validate_pool.json``, made by ``make_reference.py``) with
the CPU time each pass took; the run's ``--seed`` picks one per cost
stratum (:func:`common.stratified_seeds`).
"""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

from common import (
    BENCH_DIR, Program, has_children, proc_cpu_s, stratified_seeds, summarize_passes,
)

SETS_PER_CONFIG = 10
CONFIGS = 4
ORACLES = 11
JOBS = 2
#: Nominal wall time of one pass on the 2-vCPU sizing host.
PASS_SECONDS = 3.5
POOL_PATH = BENCH_DIR / "reference" / "validate_pool.json"

_SUMMARY = re.compile(
    r"validate: (\d+) cases x (\d+) oracles over (\d+) points "
    r"\((\d+) checks\): (all green|\d+ FAILURE\(S\))"
)
_SHARD = re.compile(r"shard \[(\d+), (\d+)\)")


def passes_for(seconds: float) -> int:
    return max(3, round(seconds / PASS_SECONDS))


def pass_seeds(seed: int, passes: int) -> list[int]:
    pool = json.loads(POOL_PATH.read_text())
    costs = {int(s): e["work_cpu_s"] for s, e in pool["seeds"].items()}
    return stratified_seeds(costs, passes, seed)


def check_summary(stdout: str, cases_expected: int) -> list[str]:
    """Errors (empty = pass) of one campaign's printed summary."""
    match = _SUMMARY.search(stdout)
    if match is None:
        return ["no campaign summary line in the output"]
    cases, oracles, points, checks = (int(match.group(i)) for i in range(1, 5))
    errors = []
    if match.group(5) != "all green":
        errors.append(f"campaign not green: {match.group(0)}")
    if oracles != ORACLES:
        errors.append(f"{oracles} oracles ran, expected {ORACLES}")
    if cases != cases_expected or points != CONFIGS:
        errors.append(f"{cases} cases over {points} points, expected "
                      f"{cases_expected} over {CONFIGS}")
    if checks != cases * ORACLES:
        errors.append(f"{checks} checks != {cases} cases x {ORACLES} oracles")
    return errors


class _ForkWatch(threading.Thread):
    """Records the instant (and the parent's CPU) of the first fork."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.t_fork: float | None = None
        self.cpu_at_fork = 0.0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            if has_children(self.pid):
                self.t_fork = time.perf_counter()
                self.cpu_at_fork = proc_cpu_s(self.pid)
                return
            time.sleep(0.002)

    def stop(self) -> None:
        self._halt.set()
        self.join()


def run_pass(seed: int, workdir: Path, index: int, ledger: Path | None = None) -> dict:
    program = Program(
        [
            "validate",
            "--sets", str(SETS_PER_CONFIG),
            "--seed", str(seed),
            "--jobs", str(JOBS),
            "--store", str(workdir / f"validate-store-{index}"),
            "--repro-dir", str(workdir / f"validate-repros-{index}"),
            "--progress",
        ],
        workdir,
        f"validate-{index}",
        ledger,
    )
    watch = _ForkWatch(program.pid)
    watch.start()
    point_ends: list[float] = []
    shards = 0
    for t, line in program.lines():
        match = _SHARD.search(line)
        if match:
            shards += 1
            if int(match.group(2)) == SETS_PER_CONFIG:
                point_ends.append(t)
    code = program.finish()
    watch.stop()
    cases = SETS_PER_CONFIG * CONFIGS
    errors = []
    if code not in (0, 1):
        errors.append(f"validate seed {seed} exited {code}: {program.stderr()[-500:]}")
    errors += [f"seed {seed}: {e}" for e in check_summary(program.stdout(), cases)]
    start = watch.t_fork
    done = start is not None and len(point_ends) == CONFIGS
    latencies = []
    if done:
        bounds = [start] + point_ends
        latencies = [b - a for a, b in zip(bounds, bounds[1:])]
    return {
        "seed": seed,
        "setup_s": (start - program.t_launch) if start is not None else None,
        "work_s": (point_ends[-1] - start) if done else None,
        "work_cpu_s": program.cpu_s - watch.cpu_at_fork,
        "rss_mb": program.maxrss_mb,
        "latencies": latencies,
        "items": cases if done else 0,
        "units_planned": JOBS * CONFIGS,
        "units_done": min(shards, JOBS * CONFIGS),
        "errors": errors,
    }


def run(seed: int, seconds: float, workdir: Path, ledger_dir: Path | None = None) -> dict:
    passes = []
    for k, pass_seed in enumerate(pass_seeds(seed, passes_for(seconds))):
        ledger = None if ledger_dir is None else ledger_dir / f"validate-{k}.json"
        passes.append(run_pass(pass_seed, workdir, k, ledger))
    return summarize_passes(passes, JOBS, "cases_per_s", "cases/s")
