"""Self-tests of the benchmark itself.  Run from the repository root::

    python3 perfbench/selftest.py

1. Each output check rejects planted wrong outputs and accepts the
   program's real ones.
2. The sweep row check agrees with the committed 150-sets/point, seed
   2016 artifact ``benchmarks/output/fig1_nsu.artifact.json``.
3. A tiny run of each workload prints every end-to-end metric with its
   unit, and ``--workload all`` prints the design's ten named figures.
4. Two tiny traced runs of one seed report every per-layer metric and
   agree exactly on the named exact counts.
5. ``BENCHMARK.json`` lists exactly the metrics the runner reports.
6. Without the program's source the runner exits non-zero and prints no
   result.

Takes a few minutes; exits non-zero when any test fails.
"""

from __future__ import annotations

import asyncio
import copy
import json
import shutil
import subprocess
import sys

import common
import ledger
import run
import serve_wl
import sweep_wl
import validate_wl

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def bench(*args: str, cwd=common.ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def test_sweep_check(workdir) -> None:
    reference = sweep_wl.load_reference()
    seed = sweep_wl.pass_seeds(0, 1, reference)[0]
    result = sweep_wl.run_pass(seed, workdir, 0)
    text = result["csv"]
    expect(not result["errors"] and sweep_wl.check_rows(text, seed, reference) == [],
           "sweep: real rows match the committed reference")
    lines = text.splitlines()
    header, row = lines[0], lines[1].split(",")
    row[5] = repr(float(row[5]) + 1e-12)
    planted = "\n".join([header, ",".join(row), *lines[2:]]) + "\n"
    expect(sweep_wl.check_rows(planted, seed, reference) != [],
           "sweep: a result off in its last digits is rejected")
    expect(sweep_wl.check_rows("\n".join(lines[:-1]) + "\n", seed, reference) != [],
           "sweep: a missing row is rejected")
    expect(sweep_wl.check_rows(text, seed + 1, reference) != [],
           "sweep: rows of another seed are rejected")


def test_fig1_artifact(workdir) -> None:
    doc = json.loads((common.ROOT / "benchmarks/output/fig1_nsu.artifact.json").read_text())
    program = common.Program(
        ["fig1", "--sets", str(doc["sets_per_point"]), "--seed", str(doc["seed"]),
         "--store", str(workdir / "full-store"), "--csv", str(workdir / "full-csv")],
        workdir, "full",
    )
    code = program.finish()
    rows = sweep_wl.canonical_rows((workdir / "full-csv" / "fig1.csv").read_text())
    expect(code == 0 and rows == sweep_wl.rows_from_artifact(doc),
           "sweep: 150 sets/point, seed 2016 rows equal fig1_nsu.artifact.json")


def test_validate_check() -> None:
    green = ("validate: 40 cases x 11 oracles over 4 points (440 checks): all green")
    expect(validate_wl.check_summary(green, 40) == [], "validate: a green summary passes")
    planted = {
        "a failing oracle": green.replace("all green", "1 FAILURE(S)"),
        "a check count != cases x 11": green.replace("440 checks", "439 checks"),
        "a missing oracle": green.replace("11 oracles", "10 oracles"),
        "too few cases": green.replace("40 cases", "36 cases"),
        "no summary": "validate done",
    }
    for what, text in planted.items():
        expect(validate_wl.check_summary(text, 40) != [], f"validate: {what} is rejected")


def test_serve_check(workdir) -> None:
    program, host, port, _ = serve_wl._launch(workdir, "check", None)
    try:
        drive = asyncio.run(serve_wl._drive(
            host, port, serve_wl.build_schedule(5, 3.0), lambda: 0.0
        ))
    finally:
        serve_wl._stop(program)
    results, state = drive["results"], drive["final_state"]
    expect(serve_wl.check_outputs(results, state) == [],
           "serve: real answers and final state pass")

    def with_answer(kind, status, body=None):
        out = list(results)
        i = next(i for i, r in enumerate(out) if r[0].kind == kind)
        req, _, old_body, *times = out[i]
        out[i] = (req, status, old_body if body is None else body, *times)
        return out

    small = next(r for r in results if r[0].kind == "small")
    big = next(r for r in results if r[0].kind == "oversized")
    no_reason = json.loads(big[2])
    no_reason.pop("reason")
    planted = {
        "a small task refused": with_answer("small", 409),
        "an oversized task accepted": with_answer(
            "oversized", 200, json.dumps({**json.loads(big[2]), "accepted": True})),
        "a 409 without a reason": with_answer("oversized", 409, json.dumps(no_reason)),
        "a read answered 503": with_answer("read", 503),
        "a transport error": with_answer("small", None, "ConnectionResetError()"),
    }
    for what, planted_results in planted.items():
        expect(serve_wl.check_outputs(planted_results, state) != [],
               f"serve: {what} is rejected")
    lost = copy.deepcopy(state)
    lost["taskset"]["tasks"].pop()
    lost["assignment"].pop()
    expect(serve_wl.check_outputs(results, lost) != [],
           "serve: a final state missing an accepted task is rejected")
    packed = copy.deepcopy(state)
    packed["assignment"] = [0] * len(packed["assignment"])
    expect(serve_wl.check_outputs(results, packed) != [],
           "serve: a final state with an infeasible core is rejected")
    expect(small[1] == 200, "serve: small tasks answer 200")


def test_tiny_runs() -> None:
    units = {m["name"]: m["unit"] for m in json.loads(
        (common.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for name in run.WORKLOADS:
        code, out = bench("--workload", name, "--seed", "3", "--seconds", "1")
        line = last_json(out) or {}
        metrics = line.get("metrics", {})
        expect(code == 0 and line.get("correct") is True
               and {m: v["unit"] for m, v in metrics.items()} == units,
               f"{name}: a tiny run is correct and prints every end-to-end metric")
    code, out = bench("--workload", "all", "--seed", "3", "--seconds", "1")
    named = {
        "setup_s": "s", "sets_per_s": "sets/s", "cases_per_s": "cases/s",
        "place_p50_ms": "ms", "place_p90_ms": "ms", "state_p50_ms": "ms",
        "state_p90_ms": "ms", "serve_cpu_ms_per_req": "ms", "failed_frac": "ratio",
        "peak_rss_mb": "MB",
    }
    report = {tuple(l.split()[::2]) for l in out.splitlines() if l.startswith("  ")}
    missing = [n for n, u in named.items() if (n, u) not in report]
    expect(code == 0 and not missing,
           f"all: the ten design figures print with units (missing {missing})")


def test_traced_runs() -> None:
    names = [m for m, _, _ in ledger.PER_LAYER]
    for workload in run.WORKLOADS:
        lines = []
        for _ in range(2):
            code, out = bench("--workload", workload, "--seed", "4", "--seconds", "1",
                              "--trace", "1")
            lines.append(last_json(out) or {})
        expect(all(l.get("correct") is True and list(l["metrics"]) == names for l in lines),
               f"{workload}: traced runs report every per-layer metric")
        counts = [{m: l["metrics"][m]["value"] for m in ledger.EXACT_COUNTS} for l in lines]
        expect(counts[0] == counts[1], f"{workload}: exact counts repeat {counts[0]}")


def test_benchmark_json() -> None:
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches the runner")
    expect([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
           == list(ledger.PER_LAYER), "BENCHMARK.json per_layer matches the ledger")


def test_without_program() -> None:
    bare = common.new_workdir("bare")
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = bench("--workload", "sweep", "--seconds", "1", cwd=bare)
        expect(code != 0 and last_json(out) is None,
               "no source tree: non-zero exit and no result line")
    finally:
        common.remove_workdir(bare)


def main() -> int:
    common.require_program()
    workdir = common.new_workdir("selftest")
    try:
        test_benchmark_json()
        test_validate_check()
        test_sweep_check(workdir)
        test_serve_check(workdir)
        test_without_program()
        test_tiny_runs()
        test_traced_runs()
        test_fig1_artifact(workdir)
    finally:
        common.stop_all()
        common.remove_workdir(workdir)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
