"""The repository benchmark: three workloads against the program as shipped.

    python3 perfbench/run.py --workload sweep|serve|validate|all \\
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` (default) runs the workload untraced, checks its outputs,
and prints a report followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric of ``BENCHMARK.json``.

``--trace 1`` runs the workload untraced once and then traced, with the
layer ledger installed in the program's processes (see ``ledger.py``),
prints the per-layer table, and reports every per-layer metric,
including the traced-to-untraced overhead ratio.

``--workload all`` runs the three in turn and prints each workload's
figures under the names of the design (``design.json``).  The exit code
is non-zero when any output check fails.  Run from the root of a
checkout; scratch files go to ``.bench_build/perfbench/`` and are
removed at the end of the run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import signal
import sys

import common
import ledger
import serve_wl
import sweep_wl
import validate_wl

WORKLOADS = {"sweep": sweep_wl, "serve": serve_wl, "validate": validate_wl}
DESIGN = json.loads((common.BENCH_DIR / "design.json").read_text())
#: A run that has not finished by then is abandoned (its launches are
#: killed and reaped) and exits non-zero without a result.
RUN_TIMEOUT_S = 175
#: End-to-end metrics every untraced run reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
}


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    workdir = common.new_workdir(name)
    try:
        result = WORKLOADS[name].run(seed, seconds, workdir)
    finally:
        common.remove_workdir(workdir)
    return result


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """Untraced reference run, then the traced run and its ledger."""
    base = run_untraced(name, seed, seconds)
    workdir = common.new_workdir(f"{name}-traced")
    try:
        ledger_dir = workdir / "ledger"
        ledger_dir.mkdir()
        result = WORKLOADS[name].run(seed, seconds, workdir, ledger_dir)
        doc = ledger.load(sorted(ledger_dir.glob("*.json")))
    finally:
        common.remove_workdir(workdir)
    result["errors"] = base["errors"] + result["errors"]
    # End-to-end figures come from the untraced run only.
    result["report"] = base.get("report", {})
    key = "daemon_cpu_s" if name == "serve" else "work_s"
    overhead = result[key] / base[key] if base.get(key) else 0.0
    result["table"] = ledger.table(doc, result["work_s"], result["parallelism"])
    result["layer_metrics"] = ledger.per_layer_metrics(
        doc, result["work_s"], result["parallelism"], result.get("client"), overhead,
        base.get("latency", {}),
    )
    return result


def report_lines(name: str, result: dict) -> list[str]:
    lines = [f"== {name}: {result['attempted']} attempted, {result['failed']} failed, "
             f"{result['items']} items"]
    for metric, (value, unit) in result.get("report", {}).items():
        lines.append(f"  {metric:<22} {value:>14.6g} {unit}")
    lines += [f"  CHECK FAILED: {e}" for e in result["errors"][:20]]
    return lines


def result_line(result: dict, traced: bool) -> dict:
    if traced:
        units = {m: u for m, u, _ in ledger.PER_LAYER}
        values = result.get("layer_metrics", {})
    else:
        units = END_TO_END
        values = result.get("metrics", {})
    complete = set(values) >= set(units)
    return {
        "correct": not result["errors"] and complete,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()
                    if m in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DESIGN["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        common.require_program()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    def overdue(signum, frame):
        raise common.BenchError(f"run exceeded {RUN_TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, overdue)
    signal.alarm(RUN_TIMEOUT_S)
    # Bytecode is a cache users keep between runs: fill it untimed.
    compileall.compile_dir(str(common.SRC), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = run_traced if args.trace else run_untraced
    results = {}
    try:
        for name in names:
            results[name] = runner(name, args.seed, args.seconds)
            for line in report_lines(name, results[name]):
                print(line)
            if args.trace:
                print(f"-- {name}: traced ledger (overhead "
                      f"{results[name]['layer_metrics']['trace.overhead_ratio']:.3f}x)")
                print("\n".join(results[name]["table"]))
    finally:
        common.stop_all()
    lines = {name: result_line(r, bool(args.trace)) for name, r in results.items()}
    if len(lines) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{n}.{m}": v for n, r in lines.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
