"""Command-line interface: regenerate any figure or table of the paper.

All figure subcommands run on the resumable :class:`~repro.engine.Engine`:
completed shards are checkpointed to a content-addressed store (default
``$REPRO_MC_STORE`` or ``~/.cache/repro-mc/store``), so an interrupted
``repro-mc all --sets 2000`` resumes from where it stopped and re-runs
answer instantly from cache.  ``--no-store`` opts out; ``--progress``
streams per-shard timing and cache hit/miss counters to stderr.

Examples
--------
Regenerate Figure 1 with 1000 task sets per data point on 8 workers::

    repro-mc fig1 --sets 1000 --jobs 8

Print the worked example (Tables I-III)::

    repro-mc tables

Run everything the paper reports (this is the long one; interrupting it
is safe — a re-run resumes from the checkpointed shards)::

    repro-mc all --sets 2000 --jobs 0 --progress

Fuzz the cross-layer invariant oracles (scalar vs. batch probes,
analysis vs. simulation, reports vs. counters) and shrink any failure
to a minimal JSON repro under ``--repro-dir``::

    repro-mc validate --sets 200 --seed 0

Instrumented runs write full provenance: ``--json DIR`` drops a
``<figure>.manifest.json`` run manifest next to each artifact,
``--metrics PATH`` dumps the merged counter/histogram snapshot, and
``--log-json PATH`` streams structured JSONL events.  ``repro-mc
inspect out/fig1.json`` pretty-prints the manifest of a past run.

Diagnose where an instrumented run spent its time (critical path,
self-time table, flamegraph/Perfetto exports — all reconstructed
offline from the events file)::

    repro-mc fig1 --sets 1000 --jobs 8 --log-json events.jsonl
    repro-mc trace events.jsonl --report
    repro-mc trace events.jsonl --chrome trace.json --folded stacks.folded

Each subcommand accepts only its own flags: ``repro-mc <command> --help``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro._version import __version__
from repro.engine import Engine, ResultStore, default_store_root
from repro.experiments.report import (
    format_allocation_trace,
    format_sweep,
    format_table1,
)
from repro.experiments.sweeps import FIGURES, definition_to_spec
from repro.experiments.tables import allocation_trace, paper_example_taskset
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    build_manifest,
    format_manifest,
    git_describe,
    load_manifest,
    manifest_path_for,
    new_run_id,
    write_manifest,
)
from repro.obs import runtime as obs_runtime
from repro.obs.live import parse_slo
from repro.partition.backend import (
    DEFAULT_BACKEND,
    ProbeBackend,
    available_backends,
    get_backend,
)
from repro.partition.catpa import CATPA
from repro.partition.classical import FirstFitDecreasing
from repro.types import ReproError

__all__ = ["main", "build_parser", "version_string"]


def version_string() -> str:
    """``repro-mc <version>``, with git describe when in a work tree."""
    described = git_describe()
    base = f"repro-mc {__version__}"
    return f"{base} ({described})" if described else base


class _LazyOutput:
    """``--out`` target that opens (and truncates) only on first write.

    Stdout when no path was given; otherwise a file that comes into
    existence with the first report byte, so a command that fails before
    reporting never clobbers an existing report.  :func:`main` closes it.
    """

    def __init__(self, path: str | None):
        self.path = path
        self._file = None

    def write(self, text: str) -> int:
        if self.path is None:
            return sys.stdout.write(text)
        if self._file is None:
            self._file = open(self.path, "w")
        return self._file.write(text)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class _VersionAction(argparse.Action):
    """Like ``action="version"`` but resolves git describe lazily, so
    building the parser never shells out."""

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "print the version (with git describe) and exit")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(version_string())
        parser.exit()


# -- flag types ---------------------------------------------------------


def _library_type(check: Callable[[str], object]) -> Callable[[str], str]:
    """An argparse ``type=`` that validates a flag with a library ``check``.

    The check's :class:`ReproError` becomes a usage error (exit 2) that
    carries the library's own message; argparse only maps
    ``ArgumentTypeError`` (and ``ValueError``) to usage errors.
    """

    def convert(text: str) -> str:
        try:
            check(text)
        except ReproError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return convert


def _burst_factors(text: str) -> tuple[float, ...]:
    """``--burst-factors``: a non-empty comma-separated float list."""
    try:
        factors = tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated float list, got {text!r}"
        ) from None
    if not factors:
        raise argparse.ArgumentTypeError("is empty")
    return factors


# -- flag groups shared between subcommands -----------------------------


def _flag_groups() -> dict[str, argparse.ArgumentParser]:
    """The flag groups several subcommands share, as argparse parents."""
    names = ("run", "out", "artifacts", "obs", "probe", "partition")
    groups = {name: argparse.ArgumentParser(add_help=False) for name in names}
    run = groups["run"]
    run.add_argument(
        "--sets",
        type=int,
        default=500,
        help="random task sets per data point (paper: 50000; default 500)",
    )
    run.add_argument("--seed", type=int, default=2016, help="root RNG seed")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; 0 = all CPU cores (default 1)",
    )
    run.add_argument(
        "--store",
        metavar="DIR",
        help=(
            "checkpoint store for completed shards (default: $REPRO_MC_STORE "
            "or ~/.cache/repro-mc/store); interrupted sweeps resume from it"
        ),
    )
    run.add_argument(
        "--no-store",
        action="store_true",
        help="disable shard checkpointing (always recompute)",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="stream per-shard timing and cache hit/miss counts to stderr",
    )
    groups["out"].add_argument(
        "--out",
        metavar="PATH",
        help=(
            "write the report to PATH instead of stdout; the file is "
            "opened only when the first report line is ready, so a "
            "failing command never clobbers an existing report"
        ),
    )
    groups["artifacts"].add_argument(
        "--csv",
        metavar="DIR",
        help="also write each figure's data as <DIR>/<figure>.csv",
    )
    groups["artifacts"].add_argument(
        "--json",
        metavar="DIR",
        help=(
            "also write each figure's SweepArtifact as <DIR>/<figure>.json "
            "and its run manifest as <DIR>/<figure>.manifest.json"
        ),
    )
    groups["obs"].add_argument(
        "--log-json",
        metavar="PATH",
        help="stream structured run events (JSON lines) to PATH",
    )
    groups["obs"].add_argument(
        "--metrics",
        metavar="PATH",
        help=(
            "write the merged instrumentation counters/histograms of the "
            "whole invocation to PATH as JSON"
        ),
    )
    groups["probe"].add_argument(
        "--probe-impl",
        metavar="NAME",
        type=_library_type(get_backend),
        default=DEFAULT_BACKEND,
        help=(
            "probe backend for every schedulability probe of this "
            f"invocation; one of: {', '.join(available_backends())} "
            f"(default {DEFAULT_BACKEND}).  Both backends are pinned "
            "bit-identical, so results never depend on the choice"
        ),
    )
    partition = groups["partition"]
    partition.add_argument(
        "--cores", type=int, default=4, help="cores of the target system (default 4)"
    )
    partition.add_argument(
        "--scheme",
        default="ca-tpa",
        help="partitioning scheme from the registry (default ca-tpa)",
    )
    return groups


# -- shared run plumbing ------------------------------------------------


def _progress_hook(stream):
    """Render engine events as human-readable stderr lines."""

    def hook(event: dict) -> None:
        if event["event"] == "point":
            print(
                f"[{event['figure']} {event['parameter']}={event['value']}]",
                file=stream,
            )
        elif event["event"] == "shard":
            stop = event["start"] + event["count"]
            source = (
                "cache hit"
                if event["cached"]
                else f"computed in {event['seconds']:.2f}s"
            )
            print(
                f"  shard [{event['start']}, {stop}) {source}",
                file=stream,
            )

    return hook


def _engine_options(args) -> dict:
    """Engine keywords from the ``--jobs/--store/--no-store/--progress`` group."""
    store = None
    if not args.no_store:
        store = ResultStore(args.store or default_store_root())
    return {
        "jobs": None if args.jobs == 0 else args.jobs,
        "store": store,
        "progress": _progress_hook(sys.stderr) if args.progress else None,
    }


class _Instrumentation:
    """``--log-json`` / ``--metrics`` for one invocation.

    Enabled (by either flag, or ``always``), each :meth:`call` runs in a
    fresh registry under a ``cli.<name>`` root span and merges into the
    totals that a clean exit from the ``with`` block writes to
    ``--metrics``; disabled, it is a plain call and OBS stays off.
    """

    def __init__(self, args, command: list[str], *, always: bool = False):
        self.enabled = bool(args.log_json or args.metrics or always)
        self.run_id = new_run_id() if self.enabled else None
        self._sink = JsonlSink(args.log_json) if args.log_json else None
        self._metrics_path = args.metrics
        self._command = command
        self._totals = MetricsRegistry()

    def __enter__(self) -> _Instrumentation:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._sink is not None:
            self._sink.close()
        if exc_type is None and self._metrics_path is not None:
            self._write_metrics()

    def call(self, name: str, fn, *, span: dict | None = None, **start):
        """``(fn(), metrics snapshot)``; the snapshot is ``None`` when disabled."""
        if not self.enabled:
            return fn(), None
        with obs_runtime.instrument(sink=self._sink, run_id=self.run_id) as state:
            obs_runtime.emit(f"cli.{name}_start", **start)
            with obs_runtime.span(f"cli.{name}", **(span or {})):
                result = fn()
            snapshot = state.registry.snapshot()
            self._totals.merge(state.registry.dump())
        return result, snapshot

    def _write_metrics(self) -> None:
        """Dump the merged instrumentation snapshot to ``--metrics PATH``."""
        metrics_path = Path(self._metrics_path)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            json.dumps(
                {
                    "run_id": self.run_id,
                    "repro_version": __version__,
                    "command": self._command,
                    "metrics": self._totals.snapshot(),
                },
                indent=2,
            )
            + "\n"
        )


# -- subcommands --------------------------------------------------------


def _render_tables(backend: ProbeBackend) -> str:
    ts = paper_example_taskset()
    out = [format_table1(ts), ""]
    ffd_steps = allocation_trace(FirstFitDecreasing(), ts, 2, backend)
    out.append(
        format_allocation_trace("Table II: allocations under FFD", ts, ffd_steps)
    )
    out.append("")
    ca_steps = allocation_trace(CATPA(), ts, 2, backend)
    out.append(
        format_allocation_trace("Table III: allocations under CA-TPA", ts, ca_steps)
    )
    return "\n".join(out)


def _figure(args, command, name, inst: _Instrumentation, engine_options) -> str:
    """Run one figure sweep and write its ``--csv``/``--json`` artifacts;
    returns the text report."""
    engine = Engine(probe_impl=args.probe_impl, **engine_options)
    spec = definition_to_spec(FIGURES[name](), sets=args.sets, seed=args.seed)
    # The run's root span: every engine/worker span of this figure hangs
    # off it, so `repro-mc trace` sees one rooted tree whose duration is
    # the figure's wall clock.
    artifact, figure_metrics = inst.call(
        "figure", lambda: engine.run(spec), span={"figure": name}, figure=name
    )
    text = format_sweep(artifact)
    if args.csv is not None:
        from repro.experiments.export import save_sweep_csv

        directory = Path(args.csv)
        directory.mkdir(parents=True, exist_ok=True)
        save_sweep_csv(artifact, directory / f"{name}.csv")
    if args.json is not None:
        directory = Path(args.json)
        directory.mkdir(parents=True, exist_ok=True)
        artifact_path = directory / f"{name}.json"
        artifact_path.write_text(artifact.to_json() + "\n")
        manifest = build_manifest(
            run_id=inst.run_id,
            command=command,
            figure=name,
            sets=args.sets,
            seed=args.seed,
            jobs=args.jobs,
            artifact_path=artifact_path,
            engine_stats=engine.stats.as_dict(),
            metrics=figure_metrics,
            events_log=args.log_json,
        )
        write_manifest(manifest_path_for(artifact_path), manifest)
    if args.progress:
        s = engine.stats
        print(
            f"[{name}: {s.shards_planned} shards planned, "
            f"{s.cache_hits} cache hits, {s.cache_misses} misses, "
            f"{s.shards_computed} computed in {s.compute_seconds:.2f}s]",
            file=sys.stderr,
        )
    return text


def _regenerate(args, command: list[str], names: list[str]) -> int:
    """Regenerate paper artifacts (figures and/or the tables) in order."""
    engine_options = _engine_options(args)
    # --json writes run manifests, so it instruments the run too.
    with _Instrumentation(args, command, always=bool(args.json)) as inst:
        for name in names:
            start = time.perf_counter()
            if name == "tables":
                text = _render_tables(get_backend(args.probe_impl))
            else:
                text = _figure(args, command, name, inst, engine_options)
            elapsed = time.perf_counter() - start
            print(text, file=args.out)
            print(f"[{name} regenerated in {elapsed:.1f}s]\n", file=args.out)
    return 0


def _run_artifact(args, command: list[str]) -> int:
    """``repro-mc fig1..fig5|tables``: regenerate the named artifact."""
    return _regenerate(args, command, [args.experiment])


def _run_all(args, command: list[str]) -> int:
    """``repro-mc all``: every figure, then the tables, in one report."""
    return _regenerate(args, command, [*FIGURES, "tables"])


def _configure_dynamic(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        metavar="DIR",
        help="also write the raw tallies and derived rows as <DIR>/dynamic.json",
    )
    parser.add_argument(
        "--burst-factors",
        metavar="CSV",
        type=_burst_factors,
        help=(
            "comma-separated WCET burst factors to sweep "
            "(default 1.0,1.5,2.0,3.0,4.0)"
        ),
    )


def _run_dynamic(args, command: list[str]) -> int:
    """``repro-mc dynamic``: the injected-event resilience sweep."""
    from repro.experiments.dynamic import (
        DEFAULT_BURST_FACTORS,
        format_dynamic,
        run_dynamic_sweep,
    )

    engine_options = _engine_options(args)
    with _Instrumentation(args, command) as inst:
        start = time.perf_counter()
        result, _ = inst.call(
            "dynamic",
            lambda: run_dynamic_sweep(
                args.burst_factors or DEFAULT_BURST_FACTORS,
                sets=args.sets,
                seed=args.seed,
                **engine_options,
            ),
            sets=args.sets,
            seed=args.seed,
        )
        print(format_dynamic(result), file=args.out)
        print(
            f"[dynamic regenerated in {time.perf_counter() - start:.1f}s]",
            file=args.out,
        )
        if args.json is not None:
            directory = Path(args.json)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "dynamic.json").write_text(
                json.dumps(result.to_dict(), indent=2) + "\n"
            )
    return 0


def _configure_validate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--repro-dir",
        metavar="DIR",
        default="counterexamples",
        help="where shrunk counterexample JSON files go (default: counterexamples/)",
    )


def _run_validate(args, command: list[str]) -> int:
    """``repro-mc validate``: fuzz the oracle registry, shrink failures."""
    from repro.validate import run_campaign, shrink_failure, write_repro

    engine_options = _engine_options(args)
    with _Instrumentation(args, command) as inst:
        start = time.perf_counter()
        result, _ = inst.call(
            "validate",
            lambda: run_campaign(args.sets, args.seed, **engine_options),
            sets=args.sets,
            seed=args.seed,
        )
        print(result.summary(), file=args.out)
        for failure in result.failures:
            doc = shrink_failure(failure)
            path = write_repro(doc, args.repro_dir)
            print(
                f"  repro written: {path} ({len(doc['taskset']['tasks'])} tasks)",
                file=args.out,
            )
        print(
            f"[validate done in {time.perf_counter() - start:.1f}s]",
            file=args.out,
        )
    return 0 if result.ok else 1


def _configure_simulate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--taskset",
        metavar="PATH",
        required=True,
        help="task-set JSON (repro-mc-taskset format) to partition and simulate",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        help=(
            "injected-event script JSON (repro-mc-events format); "
            "validated up front against the partition"
        ),
    )
    parser.add_argument(
        "--scenario",
        choices=("honest", "random", "level"),
        default="random",
        help=(
            "execution-demand scenario; 'random' overruns with "
            "--overrun-prob (default random)"
        ),
    )
    parser.add_argument(
        "--overrun-prob",
        type=float,
        default=0.1,
        help="per-job overrun probability of --scenario random (default 0.1)",
    )
    parser.add_argument(
        "--cycles",
        type=float,
        default=20.0,
        help="horizon in multiples of the longest period (default 20)",
    )
    parser.add_argument("--seed", type=int, default=2016, help="root RNG seed")
    parser.add_argument(
        "--allow-infeasible",
        action="store_true",
        help=(
            "run cores that fail the Theorem-1 analysis under plain EDF "
            "instead of refusing (misses are then expected)"
        ),
    )


def _run_simulate(args, command: list[str]) -> int:
    """``repro-mc simulate``: one partitioned EDF-VD run, optionally
    under an injected-event script (``--events``)."""
    from repro.model import load_events, load_taskset
    from repro.partition.registry import get_partitioner
    from repro.sched import (
        HonestScenario,
        LevelScenario,
        RandomScenario,
        SystemSimulator,
        default_horizon,
    )

    taskset = load_taskset(args.taskset)
    result = get_partitioner(args.scheme).partition(taskset, args.cores)
    if not result.partition.is_complete:
        raise ReproError(
            f"{args.scheme} could not place every task on {args.cores} cores "
            f"(failed at task {result.failed_task}); nothing to simulate"
        )
    if not result.schedulable and not args.allow_infeasible:
        raise ReproError(
            f"the {args.scheme} partition fails the schedulability analysis; "
            "pass --allow-infeasible to simulate it anyway"
        )
    horizon = default_horizon(result.partition, cycles=args.cycles)
    events = None if args.events is None else load_events(args.events)
    scenario = {
        "honest": lambda: HonestScenario(),
        "random": lambda: RandomScenario(overrun_prob=args.overrun_prob),
        "level": lambda: LevelScenario(target=taskset.levels),
    }[args.scenario]()
    with _Instrumentation(args, command) as inst:
        report, _ = inst.call(
            "simulate",
            lambda: SystemSimulator(
                result.partition,
                horizon=horizon,
                allow_infeasible=args.allow_infeasible,
                events=events,
            ).run(scenario, seed=args.seed),
            taskset=args.taskset,
            events=args.events,
            scheme=args.scheme,
        )
        lines = [
            f"simulate: {len(taskset)} tasks on {args.cores} cores "
            f"({args.scheme}), horizon {horizon:g}, scenario {args.scenario}, "
            f"seed {args.seed}",
            f"  schedulable offline: {result.schedulable}",
        ]
        for key, value in sorted(report.telemetry().items()):
            lines.append(f"  {key}: {value}")
        for key, value in sorted(report.event_telemetry().items()):
            lines.append(f"  {key}: {value}")
        print("\n".join(lines), file=args.out)
    return 0


def _configure_explain(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        metavar="DIR",
        help=(
            "'-' prints the explanation document (schema v1) to stdout "
            "instead of the text report; DIR also writes <DIR>/explain.json"
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--taskset",
        metavar="PATH",
        help="task-set JSON (repro-mc-taskset format) to partition and explain",
    )
    source.add_argument(
        "path",
        nargs="?",
        metavar="TASKSET",
        help="the task-set JSON, given positionally instead of --taskset",
    )


def _run_explain(args, command: list[str]) -> int:
    """``repro-mc explain``: decompose one admission decision."""
    from repro.analysis.explain import explain_admission, format_explanation
    from repro.model import load_taskset

    taskset = load_taskset(args.path if args.taskset is None else args.taskset)
    exp = explain_admission(taskset, args.cores, args.scheme)
    document = json.dumps(exp.to_dict(), indent=2, allow_nan=False)
    if args.json == "-":
        print(document, file=args.out)
        return 0
    if args.json is not None:
        out_dir = Path(args.json)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "explain.json").write_text(document + "\n")
    print(format_explanation(exp), file=args.out)
    return 0


def _configure_inspect(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="artifact paths (their <name>.manifest.json is read) or manifest paths",
    )


def _run_inspect(args, command: list[str]) -> int:
    """``repro-mc inspect``: pretty-print the run manifest of each artifact."""
    for i, raw in enumerate(args.paths):
        path = Path(raw)
        if not path.name.endswith(".manifest.json"):
            path = manifest_path_for(path)
        manifest = load_manifest(path)
        if i:
            print("", file=args.out)
        print(format_manifest(manifest), file=args.out)
    return 0


def _configure_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs=1,
        metavar="EVENTS",
        help="events.jsonl file (written with --log-json) or a run directory",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help=(
            "print the critical-path + self-time report "
            "(default when no export flag is given)"
        ),
    )
    parser.add_argument(
        "--folded",
        metavar="PATH",
        help=(
            "write folded stacks (flamegraph.pl/speedscope input) to PATH "
            "('-' for stdout)"
        ),
    )
    parser.add_argument(
        "--chrome",
        metavar="PATH",
        help=(
            "write Chrome trace-event JSON (chrome://tracing / Perfetto) to "
            "PATH ('-' for stdout)"
        ),
    )
    parser.add_argument(
        "--top",
        type=int,
        default=15,
        help="rows in the self-time table (default 15)",
    )


def _write_export(target: str, text: str, out) -> None:
    """Write an exporter's output to a path, or stdout when ``-``."""
    if target == "-":
        print(text, file=out)
        return
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _run_trace(args, command: list[str]) -> int:
    """``repro-mc trace``: analyse/export the span tree of a past run."""
    from repro.obs import trace as trace_mod

    source = args.paths[0]
    tree = trace_mod.load_tree(source)
    if not tree.roots:
        raise ReproError(
            f"no span events in {source} "
            "(was the run instrumented with --log-json?)"
        )
    if tree.orphans:
        print(
            f"repro-mc trace: warning: {len(tree.orphans)} orphan span(s) "
            "whose parent never closed; attached as extra roots",
            file=sys.stderr,
        )
    exported = False
    if args.folded is not None:
        _write_export(args.folded, trace_mod.to_folded(tree), args.out)
        exported = True
    if args.chrome is not None:
        chrome = json.dumps(trace_mod.to_chrome(tree), separators=(",", ":"))
        _write_export(args.chrome, chrome, args.out)
        exported = True
    if args.report or not exported:
        print(trace_mod.format_report(tree, top=args.top), file=args.out)
    return 0


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cores", type=int, default=4, help="cores of the live system (default 4)"
    )
    parser.add_argument(
        "--levels",
        type=int,
        default=2,
        help="criticality levels K of the live system (default 2)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port; 0 picks an ephemeral port (default 8787)",
    )
    parser.add_argument(
        "--window-ms",
        type=float,
        default=1.0,
        help=(
            "micro-batch coalescing window in milliseconds; concurrent "
            "requests arriving within it share one probe kernel call "
            "(default 1.0)"
        ),
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="max requests per flush (default 64)",
    )
    parser.add_argument(
        "--backlog",
        type=int,
        default=256,
        help="request queue size (full: 503) and listen backlog (default 256)",
    )
    parser.add_argument(
        "--slo",
        action="append",
        metavar="RULE",
        type=_library_type(parse_slo),
        help=(
            "SLO rule over the live window, e.g. "
            "'p95(serve.place.seconds) < 5ms' or "
            "'rate(serve.rejected_503) == 0'; repeatable.  Violations "
            "emit slo.alert events and bump the serve.slo.alerts counter"
        ),
    )


def _run_serve(args, command: list[str]) -> int:
    """``repro-mc serve``: run the online admission-control daemon."""
    from repro.serve import ServeConfig
    from repro.serve.daemon import run_forever

    config = ServeConfig(
        cores=args.cores,
        levels=args.levels,
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        backlog=args.backlog,
        metrics_path=args.metrics,
        log_json=args.log_json,
        slo=args.slo or [],
        command=command,
    )
    return run_forever(config)


def _configure_top(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs=1,
        metavar="TARGET",
        help=(
            "daemon URL (e.g. http://127.0.0.1:8787), or an events.jsonl "
            "file / run directory of a sweep"
        ),
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh interval in seconds (default 2.0)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help=(
            "render a single frame without terminal control codes and exit "
            "(for scripts/CI)"
        ),
    )


def _run_top(args, command: list[str]) -> int:
    """``repro-mc top``: live dashboard over a daemon URL or events file."""
    from repro.obs.top import run_top

    try:
        return run_top(
            args.paths[0], interval=args.interval, once=args.once, stream=sys.stdout
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


# -- the subcommand table -----------------------------------------------


@dataclass(frozen=True)
class Command:
    """One subcommand: help line, ``run(args, argv) -> exit code``, the
    shared flag groups it accepts, and ``configure(parser)`` for its own."""

    help: str
    run: Callable[[argparse.Namespace, list[str]], int]
    groups: tuple[str, ...] = ()
    configure: Callable[[argparse.ArgumentParser], None] | None = None


_SWEEP = ("run", "out", "obs")
# `tables` takes the figure flags because `all` runs it in the figure loop.
_FIGURE = _SWEEP + ("probe", "artifacts")

COMMANDS: dict[str, Command] = {
    **{
        name: Command(f"regenerate Figure {name[3:]}", _run_artifact, _FIGURE)
        for name in FIGURES
    },
    "tables": Command(
        "print the worked example (Tables I-III)", _run_artifact, _FIGURE
    ),
    "all": Command("regenerate every figure, then the tables", _run_all, _FIGURE),
    "dynamic": Command(
        "run the injected-event resilience sweep",
        _run_dynamic,
        _SWEEP,
        _configure_dynamic,
    ),
    "validate": Command(
        "fuzz the cross-layer invariant oracles; shrink failures to JSON repros",
        _run_validate,
        _SWEEP,
        _configure_validate,
    ),
    "simulate": Command(
        "run one partitioned EDF-VD simulation, optionally with injected events",
        _run_simulate,
        ("partition", "out", "obs"),
        _configure_simulate,
    ),
    "explain": Command(
        "decompose one admission decision (per-core Theorem-1 margins, "
        "headroom, rejection sensitivity)",
        _run_explain,
        ("partition", "out"),
        _configure_explain,
    ),
    "inspect": Command(
        "pretty-print the run manifest of artifacts",
        _run_inspect,
        ("out",),
        _configure_inspect,
    ),
    "trace": Command(
        "analyse the span tree of an instrumented run",
        _run_trace,
        ("out",),
        _configure_trace,
    ),
    "serve": Command(
        "run the online admission-control daemon",
        _run_serve,
        ("obs",),
        _configure_serve,
    ),
    "top": Command(
        "show a live dashboard over a daemon URL or a sweep's events.jsonl",
        _run_top,
        configure=_configure_top,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mc",
        description=(
            "Criticality-aware partitioning for multicore mixed-criticality "
            "systems: regenerate the paper's figures and tables."
        ),
    )
    parser.add_argument("--version", action=_VersionAction)
    groups = _flag_groups()
    subcommands = parser.add_subparsers(
        dest="experiment", metavar="COMMAND", required=True
    )
    for name, command in COMMANDS.items():
        subparser = subcommands.add_parser(
            name,
            help=command.help,
            description=command.help,
            parents=[groups[group] for group in command.groups],
        )
        if command.configure is not None:
            command.configure(subparser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``repro-mc`` command and return its exit code.

    The only error boundary: argparse usage errors return 2 (``--help``
    and ``--version`` return 0), and a :class:`ReproError` or an
    ``OSError`` (a path the user named that cannot be read or written,
    a port that cannot be bound) prints one ``repro-mc <command>:
    <message>`` line on stderr and returns 1.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    command = list(argv) if argv is not None else sys.argv[1:]
    # The report target opens lazily on first write and is always closed
    # here, whatever exit path the subcommand takes.
    args.out = _LazyOutput(getattr(args, "out", None))
    try:
        return COMMANDS[args.experiment].run(args, command)
    except (ReproError, OSError) as exc:
        print(f"repro-mc {args.experiment}: {exc}", file=sys.stderr)
        return 1
    finally:
        args.out.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
