"""Plumbing shared by the workloads: checkout layout, program launches,
per-process CPU and exit accounting, and small statistics helpers.

Every workload runs the program as shipped, ``python -m repro.cli ...``
from the checkout's ``src/``, as a child process.  A traced run starts
the same command through :mod:`traced_main`, which installs the layer
ledger first.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: one directory per run, removed at
#: the end of the run.  Result stores, CSVs and ledgers live here.
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
#: No single program launch may outlive this.
LAUNCH_TIMEOUT_S = 150.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_LIVE: set["Program"] = set()


class BenchError(Exception):
    """The benchmark cannot run here, or did not finish in time."""


def require_program() -> None:
    """Fail unless the checkout holds the program's source tree."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no program source under {SRC}; run from the root of a "
            "checkout that contains src/repro"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    # Exact ledger counts must repeat run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def new_workdir(tag: str) -> Path:
    path = WORK_ROOT / f"{tag}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def proc_cpu_s(pid: int, *, reaped_children: bool = False) -> float:
    """utime+stime of a live (or zombie) process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    if reaped_children:
        ticks += int(fields[13]) + int(fields[14])
    return ticks / _CLK_TCK


def has_children(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return bool(f.read().strip())
    except FileNotFoundError:
        return False


class Program:
    """One launch of the program: launch instant, timestamped stderr
    lines, and, after :meth:`finish`, exit code and total CPU time
    (its own plus every descendant it reaped, e.g. pool workers)."""

    def __init__(
        self, args: list[str], workdir: Path, tag: str, ledger: Path | None = None
    ):
        if ledger is None:
            argv = [sys.executable, "-m", "repro.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_main.py"), str(ledger), *args]
        self.stdout_path = workdir / f"{tag}.stdout"
        self.stderr_text: list[str] = []
        self.returncode: int | None = None
        self.cpu_s = 0.0
        self.maxrss_mb = 0.0
        with open(self.stdout_path, "w") as out:
            self.t_launch = time.perf_counter()
            self.proc = subprocess.Popen(
                argv,
                stdout=out,
                stderr=subprocess.PIPE,
                text=True,
                env=child_env(),
                cwd=ROOT,
            )
        _LIVE.add(self)
        self._watchdog = threading.Timer(LAUNCH_TIMEOUT_S, self._kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()

    def lines(self):
        """``(perf_counter instant, line)`` for each stderr line until EOF."""
        for line in self.proc.stderr:
            self.stderr_text.append(line)
            yield time.perf_counter(), line

    def readline(self) -> tuple[float, str]:
        line = self.proc.stderr.readline()
        self.stderr_text.append(line)
        return time.perf_counter(), line

    def drain_in_background(self) -> None:
        """Keep consuming stderr on a thread, so a chatty long-lived
        process (the daemon) never blocks on a full pipe."""
        self._drain = threading.Thread(
            target=lambda: [None for _ in self.lines()], daemon=True
        )
        self._drain.start()

    def finish(self) -> int:
        """Drain stderr, reap the process, record exit code and CPU."""
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join()
        else:
            for _ in self.lines():
                pass
        self.proc.stderr.close()
        _pid, status, usage = os.wait4(self.proc.pid, 0)
        self._watchdog.cancel()
        self.proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        # Linux reports the largest of the process and its reaped
        # descendants (pool workers included).
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self.t_exit = time.perf_counter()
        _LIVE.discard(self)
        return self.returncode

    def stdout(self) -> str:
        return self.stdout_path.read_text()

    def stderr(self) -> str:
        return "".join(self.stderr_text)


def stop_all() -> None:
    """Kill and reap every launch still running (error paths)."""
    for program in list(_LIVE):
        program._kill()
        try:
            program.finish()
        except (OSError, ValueError):
            _LIVE.discard(program)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def stratified_seeds(costs: dict[int, float], passes: int, seed: int) -> list[int]:
    """One pool seed from each of ``passes`` cost strata, picked by ``seed``.

    The pool is ordered by the CPU time each pool seed's pass took when
    the pool was made and cut into ``passes`` strata; a run takes one
    seed from each, redrawing (up to 200 times, from an RNG seeded with
    ``seed``) until the picks' summed cost is within 0.5% of the pool
    average.  Every run then does the same amount of work on different
    inputs, so run-to-run spread reflects the program and the machine,
    not the luck of the draw.
    """
    ordered = sorted(costs, key=lambda s: (costs[s], s))
    target = passes * sum(costs.values()) / len(costs)
    rng = random.Random(seed)
    best: tuple[float, list[int]] | None = None
    for _ in range(200):
        picks = []
        for i in range(passes):
            lo = i * len(ordered) // passes
            hi = max((i + 1) * len(ordered) // passes, lo + 1)
            picks.append(rng.choice(ordered[lo:hi]))
        miss = abs(sum(costs[p] for p in picks) - target)
        if best is None or miss < best[0]:
            best = (miss, picks)
        if miss <= 0.005 * target:
            break
    picks = best[1]
    rng.shuffle(picks)
    return picks


def summarize_passes(passes: list[dict], parallelism: int, rate: str, unit: str) -> dict:
    """Pool the launches ("passes") of a sweep or validate run.

    Each pass reports ``setup_s``, ``work_s`` (``None`` if unfinished),
    ``work_cpu_s``, ``items``, ``units_planned`` / ``units_done``
    (points or shards), ``latencies`` (per point, s), ``rss_mb`` and
    ``errors``.  Throughput and CPU per item are pooled over all passes;
    set-up time is the median launch.
    """
    done = [p for p in passes if p["work_s"] is not None]
    items = sum(p["items"] for p in done)
    work_s = sum(p["work_s"] for p in done)
    attempted = sum(p["units_planned"] for p in passes)
    failed = attempted - sum(p["units_done"] for p in passes)
    out = {
        "errors": [e for p in passes for e in p["errors"]],
        "attempted": attempted,
        "failed": failed,
        "items": items,
        "work_s": work_s,
        "parallelism": parallelism,
    }
    if done:
        latencies = [lat for p in done for lat in p["latencies"]]
        m = out["metrics"] = {
            "setup_s": median([p["setup_s"] for p in done]),
            "throughput_per_s": items / work_s,
            "cpu_ms_per_item": 1e3 * sum(p["work_cpu_s"] for p in done) / items,
            "peak_rss_mb": max(p["rss_mb"] for p in passes),
        }
        out["latency"] = {
            "p50_ms": 1e3 * percentile(latencies, 50),
            "p90_ms": 1e3 * percentile(latencies, 90),
        }
        out["report"] = {
            "setup_s": (m["setup_s"], "s"),
            rate: (m["throughput_per_s"], unit),
            "failed_frac": (failed / attempted, "ratio"),
            "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        }
    return out
