"""Regenerate the committed input pools under ``reference/``.

``sweep_pool.json``: for every sweep pool seed, ``repro-mc fig1 --sets
10`` runs on the default probe backend and on the scalar reference
backend; the two must agree bit for bit, and the file records the
digest of the canonical rows and the CPU time of the default pass.

``validate_pool.json``: every validate pool seed runs one campaign
pass, which must be green; the file records its CPU time.

The CPU times only order each pool into cost strata (see
:func:`common.stratified_seeds`).  Run from the repository root while
the machine is otherwise idle::

    python3 perfbench/make_reference.py

It takes several minutes.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import validate_wl
from common import Program, new_workdir, remove_workdir, require_program
from sweep_wl import REFERENCE_PATH, SETS_PER_POINT, canonical_rows, rows_digest, run_pass

#: 2016 is the paper-figure default seed.
SWEEP_POOL = tuple(range(2016, 2016 + 40))
VALIDATE_POOL = tuple(range(100, 100 + 49))


def _scalar_digest(seed: int, workdir) -> str:
    tag = f"scalar-{seed}"
    program = Program(
        ["fig1", "--sets", str(SETS_PER_POINT), "--seed", str(seed),
         "--store", str(workdir / f"store-{tag}"), "--csv", str(workdir / f"csv-{tag}"),
         "--probe-impl", "scalar"],
        workdir,
        tag,
    )
    if program.finish() != 0:
        raise SystemExit(f"fig1 seed {seed} (scalar) failed:\n{program.stderr()}")
    return rows_digest(canonical_rows((workdir / f"csv-{tag}" / "fig1.csv").read_text()))


def _write(path, doc) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path} ({len(doc['seeds'])} seeds)")


def main() -> int:
    require_program()
    workdir = new_workdir("reference")
    try:
        sweep = {}
        for k, seed in enumerate(SWEEP_POOL):
            with ThreadPoolExecutor(max_workers=2) as pool:
                scalar = pool.submit(_scalar_digest, seed, workdir)
                result = run_pass(seed, workdir, k)
            if result["errors"]:
                print("\n".join(result["errors"]), file=sys.stderr)
                return 1
            digest = rows_digest(canonical_rows(result["csv"]))
            if digest != scalar.result():
                print(f"seed {seed}: default and scalar backends disagree", file=sys.stderr)
                return 1
            sweep[str(seed)] = {"rows_sha256": digest, "work_cpu_s": round(result["work_cpu_s"], 3)}
        validate = {}
        for k, seed in enumerate(VALIDATE_POOL):
            result = validate_wl.run_pass(seed, workdir, k)
            if result["errors"]:
                print("\n".join(result["errors"]), file=sys.stderr)
                return 1
            validate[str(seed)] = {"work_cpu_s": round(result["work_cpu_s"], 3)}
    finally:
        remove_workdir(workdir)
    _write(REFERENCE_PATH, {"figure": "fig1", "sets_per_point": SETS_PER_POINT, "seeds": sweep})
    _write(validate_wl.POOL_PATH,
           {"sets_per_config": validate_wl.SETS_PER_CONFIG, "seeds": validate})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
