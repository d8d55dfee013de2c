"""Counterexample shrinking and repro files.

When an oracle fails, the raw case is a 6-12 task randomly generated
set — too big to eyeball.  :func:`shrink_case` reduces it the classic
way: greedily delete tasks while the oracle still fails (to a
fixpoint), then bisect a uniform WCET scale towards the smallest demand
that still fails.  The result is written as a self-contained
``repro-mc-counterexample`` JSON document; :func:`check_repro` replays
one, so a fixed bug can be proven fixed by re-running its repro file.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro._version import __version__
from repro.engine.spec import SchemeSpec
from repro.gen.params import WorkloadConfig
from repro.model import MCTask, MCTaskSet
from repro.model.io import taskset_from_dict, taskset_to_dict
from repro.types import ReproError
from repro.validate.fuzz import OracleFailure
from repro.validate.oracles import Oracle, ValidationCase, get_oracle

__all__ = [
    "REPRO_FORMAT",
    "REPRO_VERSION",
    "check_repro",
    "counterexample_dict",
    "load_repro",
    "shrink_case",
    "shrink_failure",
    "write_repro",
]

REPRO_FORMAT = "repro-mc-counterexample"
REPRO_VERSION = 1

#: Bisection steps for the WCET-scale pass; 12 halvings pin the minimal
#: failing scale to ~2.5e-4 of the original demand span.
_BISECTION_STEPS = 12


def _fresh_case(base: ValidationCase, taskset: MCTaskSet) -> ValidationCase:
    """A new case for ``taskset`` — never reuse ``base`` (cached results)."""
    return ValidationCase(
        taskset=taskset,
        config=base.config,
        schemes=base.schemes,
        seed=base.seed,
        set_index=base.set_index,
        sim_cycles=base.sim_cycles,
    )


def _without_task(taskset: MCTaskSet, index: int) -> MCTaskSet:
    tasks = [t for i, t in enumerate(taskset) if i != index]
    return MCTaskSet(tasks, levels=taskset.levels)


def _scaled(taskset: MCTaskSet, scale: float) -> MCTaskSet:
    return MCTaskSet(
        [
            MCTask(
                wcets=tuple(c * scale for c in t.wcets),
                period=t.period,
                name=t.name,
            )
            for t in taskset
        ],
        levels=taskset.levels,
    )


def shrink_case(
    oracle: Oracle, case: ValidationCase
) -> tuple[ValidationCase, list[str]]:
    """Minimize a failing case; returns the shrunk case and its messages.

    Pass 1 (greedy deletion): repeatedly drop any single task whose
    removal keeps the oracle failing, until no removal does.  Pass 2
    (parameter bisection): uniformly scale all WCETs, bisecting for the
    smallest scale in ``(0, 1]`` that still fails — failures driven by
    overload usually survive with far less demand than the generator
    drew, and the small numbers make the violation legible.

    Raises :class:`ReproError` when the oracle passes on ``case`` —
    there is nothing to shrink (and silently returning the input would
    mask a flaky, non-deterministic oracle).
    """
    messages = oracle.failures(_fresh_case(case, case.taskset))
    if not messages:
        raise ReproError(
            f"cannot shrink: oracle {oracle.name!r} passes on the given case"
        )
    current, current_messages = case.taskset, messages

    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for i in range(len(current)):
            candidate = _without_task(current, i)
            msgs = oracle.failures(_fresh_case(case, candidate))
            if msgs:
                current, current_messages = candidate, msgs
                shrunk = True
                break

    # Invariant: `hi` always fails (starts at the post-deletion set).
    lo, hi = 0.0, 1.0
    for _ in range(_BISECTION_STEPS):
        mid = (lo + hi) / 2.0
        if mid <= 0.0:  # pragma: no cover - lo starts at 0, mid > 0
            break
        msgs = oracle.failures(_fresh_case(case, _scaled(current, mid)))
        if msgs:
            hi, current_messages = mid, msgs
        else:
            lo = mid
    if hi < 1.0:
        current = _scaled(current, hi)

    return _fresh_case(case, current), current_messages


def counterexample_dict(
    failure: OracleFailure, shrunk: ValidationCase, messages: list[str]
) -> dict:
    """The self-contained JSON repro document for one shrunk failure."""
    return {
        "format": REPRO_FORMAT,
        "version": REPRO_VERSION,
        "repro_version": __version__,
        "oracle": failure.oracle,
        "seed": failure.seed,
        "set_index": failure.set_index,
        "messages": list(messages),
        "config": shrunk.config.to_dict(),
        "schemes": [s.to_dict() for s in shrunk.schemes],
        "taskset": taskset_to_dict(shrunk.taskset),
    }


def shrink_failure(failure: OracleFailure) -> dict:
    """Rebuild a campaign failure, shrink it, and return its repro document."""
    oracle = get_oracle(failure.oracle)
    shrunk, messages = shrink_case(oracle, failure.case())
    return counterexample_dict(failure, shrunk, messages)


def write_repro(doc: dict, directory: str | Path) -> Path:
    """Write a repro document as ``<oracle>-seed<S>-set<I>-M<m>K<k>-nsu<u>.json``.

    The campaign runs the same seed and set indices against every
    config, so the filename must carry the config — otherwise the K=4
    counterexample for set 0 overwrites the K=3 one.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cfg = doc["config"]
    nsu = str(cfg["nsu"]).replace(".", "p")
    path = directory / (
        f"{doc['oracle']}-seed{doc['seed']}-set{doc['set_index']}"
        f"-M{cfg['cores']}K{cfg['levels']}-nsu{nsu}.json"
    )
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_repro(path: str | Path) -> dict:
    """Load and validate a ``repro-mc-counterexample`` document."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != REPRO_FORMAT:
        raise ReproError(
            f"not a {REPRO_FORMAT} document: format={doc.get('format')!r}"
        )
    if doc.get("version") != REPRO_VERSION:
        raise ReproError(f"unsupported repro version {doc.get('version')!r}")
    return doc


def check_repro(doc_or_path: dict | str | Path) -> list[str]:
    """Re-run the failing oracle on a stored counterexample.

    Returns the oracle's messages — empty means the bug the repro file
    captured no longer reproduces.
    """
    doc = doc_or_path if isinstance(doc_or_path, dict) else load_repro(doc_or_path)
    case = ValidationCase(
        taskset=taskset_from_dict(doc["taskset"]),
        config=WorkloadConfig.from_dict(doc["config"]),
        schemes=tuple(SchemeSpec.from_dict(s) for s in doc["schemes"]),
        seed=int(doc["seed"]),
        set_index=int(doc["set_index"]),
    )
    return get_oracle(doc["oracle"]).failures(case)
