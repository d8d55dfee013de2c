"""Plain-text rendering of sweep artifacts and the worked-example tables.

The paper's figures are line charts; this module prints the same data as
aligned text tables (one per panel) so every figure regenerates without
a plotting dependency.  The panel letters match the paper:
(a) schedulability ratio, (b) U_sys, (c) U_avg, (d) imbalance Lambda.

Everything renders from the one structured
:class:`~repro.engine.SweepArtifact` schema the engine produces — the
CSV exporter and the CLI read the same object, so a renderer can be
checked against a stored artifact without re-running the sweep.
:func:`format_head_to_head` prints one point's paired evidence: every
scheme runs on the same task sets, so the sets one scheme schedules and
another does not decide between them with an exact sign test.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.engine.artifact import SweepArtifact
from repro.experiments.tables import AllocationStep, table1_rows
from repro.metrics.aggregate import SchemeStats
from repro.model.taskset import MCTaskSet

__all__ = [
    "format_panel",
    "format_sweep",
    "format_head_to_head",
    "format_table1",
    "format_allocation_trace",
    "sign_test_p",
]

PANELS = (
    ("a", "sched_ratio", "Schedulability ratio"),
    ("b", "u_sys", "System utilization U_sys"),
    ("c", "u_avg", "Average core utilization U_avg"),
    ("d", "imbalance", "Workload imbalance Lambda"),
)


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "   -  "
    return f"{value:6.3f}"


def format_panel(result: SweepArtifact, metric: str, heading: str) -> str:
    """One metric as a values-by-scheme text table."""
    schemes = result.schemes
    param = result.parameter
    header = f"{param:>8} | " + " ".join(f"{s:>8}" for s in schemes)
    lines = [heading, "-" * len(header), header, "-" * len(header)]
    series = result.series(metric)
    for i, value in enumerate(result.values):
        cells = " ".join(f"{_fmt(series[s][i]):>8}" for s in schemes)
        lines.append(f"{value!s:>8} | {cells}")
    return "\n".join(lines)


def format_sweep(result: SweepArtifact) -> str:
    """All four panels of one figure, paper-style."""
    out = [
        f"{result.figure.upper()}: {result.title}",
        f"({result.sets_per_point} task sets per data point, seed {result.seed})",
        "",
    ]
    for letter, metric, title in PANELS:
        out.append(format_panel(result, metric, f"({letter}) {title}"))
        out.append("")
    return "\n".join(out)


def sign_test_p(b: int, c: int) -> float:
    """Exact two-sided sign-test p of ``b`` against ``c`` discordant sets.

    Under the null hypothesis each discordant set goes either way with
    probability 1/2, so the smaller count is Binomial(b + c, 1/2); the
    p-value doubles its lower tail, capped at 1 (``p(0, 0) == 1``).
    """
    n = b + c
    tail = sum(math.comb(n, i) for i in range(min(b, c) + 1))
    return min(1.0, 2 * tail / 2**n)


def format_head_to_head(stats: Mapping[str, SchemeStats]) -> str:
    """One point's ``label -> SchemeStats`` as its dominance matrix (cell
    = row schedules, column does not; with each scheme's ratio), then per
    scheme pair both discordant counts and the sign-test p."""
    labels = list(stats)
    width = max(8, max(len(s) for s in labels) + 1)
    header = (
        f"{'wins over ->':>{width}} |"
        + "".join(f"{s:>{width}}" for s in labels)
        + f"{'ratio':>{width}}"
    )
    lines = [
        f"Head-to-head on {stats[labels[0]].total_sets} common task sets"
        " (cell = row schedules, column does not)",
        header,
        "-" * len(header),
    ]
    for a in labels:
        cells = "".join(
            f"{'-':>{width}}" if a == b else f"{stats[a].wins[b]:>{width}}"
            for b in labels
        )
        lines.append(f"{a:>{width}} |{cells}{stats[a].sched_ratio:>{width}.3f}")
    lines += ["", "Sign test per pair (left only : right only, exact two-sided p)"]
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            ab, ba = stats[a].wins[b], stats[b].wins[a]
            lines.append(
                f"{a:>{width}} vs {b:<{width}}{ab:>6} : {ba:<6}"
                f"p = {sign_test_p(ab, ba):.3g}"
            )
    return "\n".join(lines)


def format_table1(taskset: MCTaskSet) -> str:
    """Table I: timing parameters and utilization contributions."""
    rows = table1_rows(taskset)
    k = taskset.levels
    head = (
        f"{'task':>6} {'p_i':>7} {'l_i':>3} "
        + " ".join(f"{f'c({j})':>9}" for j in range(1, k + 1))
        + " "
        + " ".join(f"{f'u({j})':>7}" for j in range(1, k + 1))
        + f" {'C_i':>7}"
    )
    lines = ["Table I: timing parameters of the worked-example tasks", head]
    for r in rows:
        cs = list(r["wcets"]) + [float("nan")] * (k - len(r["wcets"]))
        us = r["utilizations"]
        lines.append(
            f"{r['task']:>6} {r['period']:>7g} {r['criticality']:>3} "
            + " ".join("      -  " if math.isnan(c) else f"{c:>9.3f}" for c in cs)
            + " "
            + " ".join(f"{u:>7.3f}" for u in us)
            + f" {r['contribution']:>7.3f}"
        )
    return "\n".join(lines)


def format_allocation_trace(
    title: str, taskset: MCTaskSet, steps: Sequence[AllocationStep]
) -> str:
    """Tables II/III: step-by-step allocation with core utilizations."""
    lines = [title]
    cores = len(steps[0].core_levels) if steps else 0
    for step in steps:
        name = taskset[step.task_index].name or f"tau_{step.task_index + 1}"
        if step.core is None:
            lines.append(f"  {name} -> FAILS (no feasible core)")
            continue
        parts = []
        for m in range(cores):
            mat = step.core_levels[m]
            diag = " ".join(
                f"U_{j + 1}({k + 1})={mat[j, k]:.3f}"
                for j in range(mat.shape[0])
                for k in range(j + 1)
                if mat[j, k] > 0
            )
            parts.append(f"P{m + 1}[{diag or 'empty'}]")
        lines.append(f"  {name} -> P{step.core + 1}   " + "  ".join(parts))
    return "\n".join(lines)
