"""Cross-layer invariant oracles for differential validation.

Each oracle is a named *differential* check over one generated task set
(a :class:`ValidationCase`): two independently-coded paths through the
stack — analysis vs. simulation, scalar vs. vectorized, report fields
vs. obs counters — must agree.  An oracle returns a list of
human-readable failure messages; an empty list means the invariant
held.  The seeded fuzz driver (:mod:`repro.validate.fuzz`) sweeps
generated workloads through every registered oracle, and the shrinker
(:mod:`repro.validate.shrink`) reduces any failure to a minimal repro.

The registry is deliberately open: downstream experiments can
``@register_oracle`` additional invariants and they are picked up by
``repro-mc validate`` automatically.

Built-in oracles
----------------
``probe-scalar-batch``
    The scalar and batch probe backends make bit-identical placement
    decisions for every scheme.
``theorem1-eq7-k2``
    At ``K = 2``, Ineq. (5) (Theorem 1) agrees with the classical
    dual-criticality test Eq. (7) on every core's level matrix.
``admission-monotonicity``
    Uniformly scaling a feasible core's demand *down* never makes it
    infeasible, and a ``schedulable`` partition result implies every
    core passes the Theorem-1 analysis.
``schedulable-no-miss``
    A Theorem-1-schedulable partition misses no deadlines in runtime
    simulation under honest, worst-case, and random overrun scenarios.
``trace-busy-time``
    Execution-slice accounting (``Trace.busy_time``) and event tallies
    reconcile exactly with the :class:`~repro.sched.CoreReport`.
``job-conservation``
    Every released job is accounted for:
    ``released == completed + dropped + pending``, per core and
    system-wide, in the level-K run ``schedulable-no-miss`` also checks
    (:meth:`ValidationCase.level_run`).
``telemetry-counters``
    Running instrumented changes nothing, and the report's
    ``telemetry()`` reconciles key-for-key with the ``sim.*`` obs
    counters.
``serve-offline``
    The admission daemon's ``/admit`` answers (coordinator + micro-
    batcher, all schemes answered by one flush) are bit-identical to
    the offline partitioners' results, stepped in one lockstep.
``explain-decision``
    The structured explanation layer reproduces every backend's
    admission decision: ``ProbeExplanation.admitted`` matches the
    partitioner's verdict under scalar and batch, all decision
    margins are nonnegative iff the set is admitted, and the
    explanation document itself is backend-invariant.
``events-job-conservation``
    Under a deterministic injection script covering all four event
    families (WCET burst + recovery window, arrival + departure, core
    failure + hotplug), job conservation still holds per core and
    system-wide, and the event tallies themselves balance (arrivals
    admitted + rejected, displaced = replaced + lost, recovery windows
    applied + no-op + missed).
``events-telemetry``
    The same evented run executed plain and instrumented is identical,
    and both ``telemetry()`` and ``event_telemetry()`` reconcile
    key-for-key with the ``sim.*`` / ``sim.event.*`` obs counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis import (
    DualUtilizations,
    assign_virtual_deadlines,
    is_feasible_core,
    is_feasible_dual,
    is_feasible_theorem1,
)
from repro.engine.spec import SchemeSpec, default_schemes
from repro.gen.params import WorkloadConfig
from repro.model import MCTaskSet
from repro.obs import runtime as obs
from repro.partition.backend import BATCH, ProbeBackend, get_backend
from repro.partition.base import PartitionResult, partition_lockstep
from repro.sched import (
    CoreSimulator,
    HonestScenario,
    LevelScenario,
    RandomScenario,
    SystemReport,
    SystemSimulator,
    default_horizon,
)
from repro.types import ReproError

__all__ = [
    "SIM_CYCLES",
    "Oracle",
    "ValidationCase",
    "all_oracles",
    "get_oracle",
    "register_oracle",
]

#: Default simulation span in multiples of the longest period.  Five
#: cycles keep a fuzz case in the low milliseconds while still crossing
#: enough release-phase relations to exercise the AMC protocol.
SIM_CYCLES = 5.0


@dataclass(eq=False)
class ValidationCase:
    """One fuzz case: a task set plus everything the oracles need.

    Partition outcomes are computed lazily and cached — several oracles
    look at the same schedulable partition, and partitioning (not
    checking) dominates the cost of a case — and so are that
    partition's two simulators, each compiled once for every scenario
    run on it.  The case therefore must be treated as immutable: the
    shrinker builds a *fresh* case per candidate task set instead of
    mutating one.
    """

    taskset: MCTaskSet
    config: WorkloadConfig
    schemes: tuple[SchemeSpec, ...] = ()
    seed: int = 0
    set_index: int = 0
    sim_cycles: float = SIM_CYCLES
    _results: dict[str, dict[str, PartitionResult]] = field(
        default_factory=dict, init=False, repr=False
    )
    _sims: dict[bool, SystemSimulator] = field(
        default_factory=dict, init=False, repr=False
    )
    _level_run: SystemReport | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.schemes:
            self.schemes = tuple(default_schemes())

    def scheme_results(self) -> dict[str, PartitionResult]:
        """Partition outcome per scheme label (batch probe engine), cached."""
        return self.partition_all(BATCH)

    def partition_all(self, backend: ProbeBackend) -> dict[str, PartitionResult]:
        """Every scheme's outcome on ``backend``, in lockstep; cached per
        backend, so the oracles that compare backends share one run."""
        if backend.name not in self._results:
            cores = self.config.cores
            jobs = [(spec.build(), self.taskset, cores) for spec in self.schemes]
            results = partition_lockstep(jobs, backend)
            labels = [spec.label for spec in self.schemes]
            self._results[backend.name] = dict(zip(labels, results))
        return self._results[backend.name]

    def first_schedulable(self) -> tuple[str, PartitionResult] | tuple[None, None]:
        """The first scheme (in spec order) that produced a feasible partition."""
        for label, result in self.scheme_results().items():
            if result.schedulable:
                return label, result
        return None, None

    def simulator(self, evented: bool = False) -> SystemSimulator | None:
        """The first schedulable partition's simulator over
        ``sim_cycles`` longest periods, cached (``None`` when no scheme
        is schedulable).  ``evented`` gives the one that runs
        :func:`_case_event_script`, whose failure re-partitioning may
        overload cores."""
        if evented not in self._sims:
            _, result = self.first_schedulable()
            if result is None:
                return None
            part = result.partition
            horizon = default_horizon(part, cycles=self.sim_cycles)
            self._sims[evented] = SystemSimulator(
                part,
                horizon=horizon,
                allow_infeasible=evented,
                events=_case_event_script(self, part, horizon) if evented else None,
            )
        return self._sims[evented]

    def level_run(self) -> SystemReport | None:
        """The first schedulable partition simulated under the level-K
        scenario, cached (``None`` when no scheme is schedulable).

        ``LevelScenario`` draws no randomness, so this one run stands
        for every seed: ``schedulable-no-miss`` and ``job-conservation``
        both check it.
        """
        if self._level_run is None:
            sim = self.simulator()
            if sim is None:
                return None
            self._level_run = sim.run(
                LevelScenario(target=self.taskset.levels), seed=self.sim_seed(1)
            )
        return self._level_run

    def sim_seed(self, salt: int) -> np.random.SeedSequence:
        """Deterministic per-case simulation seed stream.

        The spawn key folds in the set index and a per-use salt, so
        different oracles (and different scenarios within one oracle)
        draw independent — but reproducible — streams.
        """
        return np.random.SeedSequence(
            self.seed, spawn_key=(self.set_index, 0xCA5E, salt)
        )


@dataclass(frozen=True)
class Oracle:
    """A named cross-layer invariant over one :class:`ValidationCase`.

    ``check(case)`` returns failure messages; empty means the invariant
    held for this case.  Callers ask :meth:`failures`, which also turns
    an exception into a failure.
    """

    name: str
    description: str
    check: Callable[[ValidationCase], list[str]]

    def failures(self, case: ValidationCase) -> list[str]:
        """``check(case)``, with any exception it raises recorded as
        its one failure message (type and text), so the campaign
        records the oracle and the case and the shrinker shrinks it
        like any other failure.  Call ``check`` for the traceback."""
        try:
            return self.check(case)
        except Exception as exc:
            return [f"raised {type(exc).__name__}: {exc}"]


_ORACLES: dict[str, Oracle] = {}


def register_oracle(name: str, description: str):
    """Decorator: register ``fn(case) -> list[str]`` under ``name``."""

    def decorate(fn: Callable[[ValidationCase], list[str]]):
        _ORACLES[name] = Oracle(name=name, description=description, check=fn)
        return fn

    return decorate


def all_oracles() -> tuple[Oracle, ...]:
    """Every registered oracle, in deterministic (sorted-name) order."""
    return tuple(_ORACLES[name] for name in sorted(_ORACLES))


def get_oracle(name: str) -> Oracle:
    try:
        return _ORACLES[name]
    except KeyError:
        raise ReproError(
            f"unknown oracle {name!r}; registered: {sorted(_ORACLES)}"
        ) from None


# ----------------------------------------------------------------------
# Built-in oracles
# ----------------------------------------------------------------------


@register_oracle(
    "probe-scalar-batch",
    "scalar and batch probe backends make identical decisions",
)
def _check_probe_equivalence(case: ValidationCase) -> list[str]:
    failures = []
    batch = case.scheme_results()
    scalar = case.partition_all(get_backend("scalar"))
    for spec in case.schemes:
        b, s = batch[spec.label], scalar[spec.label]
        if (
            s.schedulable != b.schedulable
            or s.failed_task != b.failed_task
            or not np.array_equal(s.assignment, b.assignment)
        ):
            failures.append(
                f"{spec.label}: scalar/batch probes disagree "
                f"(schedulable {s.schedulable}/{b.schedulable}, "
                f"failed_task {s.failed_task}/{b.failed_task}, "
                f"assignment {s.assignment.tolist()} "
                f"vs {b.assignment.tolist()})"
            )
    return failures


@register_oracle(
    "theorem1-eq7-k2",
    "Ineq. (5) at K=2 agrees with the dual-criticality Eq. (7)",
)
def _check_dual_equivalence(case: ValidationCase) -> list[str]:
    if case.taskset.levels != 2:
        return []
    matrices = [("whole set", case.taskset.level_matrix())]
    label, result = case.first_schedulable()
    if result is not None:
        part = result.partition
        matrices += [
            (f"{label} core {m}", part.level_matrix(m))
            for m in range(part.cores)
            if part.core_size(m)
        ]
    failures = []
    for what, mat in matrices:
        theorem1 = is_feasible_theorem1(mat)
        eq7 = is_feasible_dual(DualUtilizations.from_level_matrix(mat))
        if theorem1 != eq7:
            failures.append(
                f"{what}: Theorem 1 says {theorem1} but Eq. (7) says {eq7} "
                f"for level matrix {mat.tolist()}"
            )
    return failures


@register_oracle(
    "admission-monotonicity",
    "scaling a feasible core's demand down never breaks feasibility",
)
def _check_admission_monotonicity(case: ValidationCase) -> list[str]:
    failures = []
    for label, result in case.scheme_results().items():
        if not result.schedulable:
            continue
        part = result.partition
        for m in range(part.cores):
            if not part.core_size(m):
                continue
            mat = part.level_matrix(m)
            if not is_feasible_core(mat):
                failures.append(
                    f"{label}: result claims schedulable but core {m} "
                    f"fails the admission test (matrix {mat.tolist()})"
                )
                continue
            for scale in (0.9, 0.75, 0.5):
                if not is_feasible_core(mat * scale):
                    failures.append(
                        f"{label}: core {m} is feasible at full demand but "
                        f"infeasible at x{scale} (matrix {mat.tolist()})"
                    )
    return failures


@register_oracle(
    "schedulable-no-miss",
    "a Theorem-1-schedulable partition never misses a deadline in simulation",
)
def _check_schedulable_no_miss(case: ValidationCase) -> list[str]:
    label, _ = case.first_schedulable()
    sim = case.simulator()
    if sim is None:
        return []
    runs = [
        ("honest", sim.run(HonestScenario(), seed=case.sim_seed(0))),
        (f"level-{case.taskset.levels}", case.level_run()),
        ("random", sim.run(RandomScenario(overrun_prob=0.3), seed=case.sim_seed(2))),
    ]
    failures = []
    for name, report in runs:
        if report.miss_count:
            failures.append(
                f"{label}: {report.miss_count} deadline miss(es) under the "
                f"{name} scenario over horizon {sim.horizon:g}"
            )
    return failures


@register_oracle(
    "trace-busy-time",
    "trace slices and event tallies reconcile with the core report",
)
def _check_trace_busy_time(case: ValidationCase) -> list[str]:
    label, result = case.first_schedulable()
    if result is None:
        return []
    part = result.partition
    core = next((m for m in range(part.cores) if part.core_size(m)), None)
    if core is None:
        return []
    subset = part.taskset.subset(part.tasks_on(core))
    plan = assign_virtual_deadlines(subset)
    if plan is None:
        return [
            f"{label}: partition is schedulable but assign_virtual_deadlines "
            f"refuses core {core}"
        ]
    horizon = case.sim_cycles * max(t.period for t in subset)
    report = CoreSimulator(
        subset=subset,
        plan=plan,
        scenario=LevelScenario(target=subset.levels),
        rng=np.random.default_rng(case.sim_seed(101)),
        horizon=horizon,
        record_trace=True,
    ).run()
    failures = []
    busy = report.trace.busy_time()
    if abs(busy - report.busy_time) > 1e-6 * max(1.0, report.busy_time):
        failures.append(
            f"core {core}: Trace.busy_time() {busy!r} != "
            f"CoreReport.busy_time {report.busy_time!r}"
        )
    counts = report.trace.counts()
    tallies = (
        ("release", report.released),
        ("complete", report.completed),
        ("drop", report.dropped),
        ("mode_up", report.mode_switches),
        ("idle_reset", report.idle_resets),
    )
    for kind, reported in tallies:
        if counts[kind] != reported:
            failures.append(
                f"core {core}: trace counts {counts[kind]} {kind} events "
                f"but the report says {reported}"
            )
    return failures


@register_oracle(
    "job-conservation",
    "released == completed + dropped + pending, per core and system-wide",
)
def _check_job_conservation(case: ValidationCase) -> list[str]:
    report = case.level_run()
    return [] if report is None else _conservation_failures(report)


def _conservation_failures(report: SystemReport) -> list[str]:
    failures = []
    for m, core in enumerate(report.core_reports):
        if core is None:
            continue
        if core.released != core.completed + core.dropped + core.pending:
            failures.append(
                f"core {m}: {core.released} released != {core.completed} "
                f"completed + {core.dropped} dropped + {core.pending} pending"
            )
    if report.released != report.completed + report.dropped + report.pending:
        failures.append(
            f"system: {report.released} released != {report.completed} "
            f"completed + {report.dropped} dropped + {report.pending} pending"
        )
    return failures


@register_oracle(
    "telemetry-counters",
    "instrumented runs change nothing and reconcile with sim.* counters",
)
def _check_telemetry_counters(case: ValidationCase) -> list[str]:
    label, _ = case.first_schedulable()
    sim = case.simulator()
    if sim is None:
        return []
    scenario = RandomScenario(overrun_prob=0.3)
    plain = sim.run(scenario, seed=case.sim_seed(303))
    with obs.collect() as registry:
        instrumented = sim.run(scenario, seed=case.sim_seed(303))
        counters = registry.snapshot()["counters"]
    failures = []
    if plain.telemetry() != instrumented.telemetry():
        failures.append(
            f"{label}: enabling instrumentation changed the simulation "
            f"({plain.telemetry()} vs {instrumented.telemetry()})"
        )
    for key, value in instrumented.telemetry().items():
        recorded = counters.get(key, 0)
        if recorded != value:
            failures.append(
                f"{key}: report says {value} but the obs counter says {recorded}"
            )
    return failures


@register_oracle(
    "serve-offline",
    "the admission daemon's /admit answers match the offline partitioner",
)
def _check_serve_offline(case: ValidationCase) -> list[str]:
    """Differential: online service vs. offline batch, same question.

    Spins up an in-process coordinator (no sockets) and queues one
    ``/admit`` per paper scheme before it first runs, so one real flush
    answers them all (no coalescing window: nothing is left to wait
    for).  The daemon answers each with a one-attempt ``partition()``;
    the offline side steps every scheme in one lockstep, and the two
    must agree byte for byte.  Paper schemes, not ``case.schemes``:
    ``/admit`` carries no scheme options.
    """
    import asyncio

    # Deferred: repro.serve must stay an optional layer of validate.
    from repro.partition.registry import PAPER_SCHEMES, get_partitioner
    from repro.serve import AdmitRequest, Coordinator, MicroBatcher, ServeState

    cores = case.config.cores

    async def query() -> list[dict]:
        state = ServeState(cores=cores, levels=case.taskset.levels)
        batcher = MicroBatcher(window=0.0)
        worker = asyncio.create_task(Coordinator(state, batcher).run())
        futures = [
            batcher.submit(
                "admit", AdmitRequest(case.taskset, cores, scheme)
            )
            for scheme in PAPER_SCHEMES
        ]
        bodies = await asyncio.gather(*futures)
        batcher.close()
        await worker
        return bodies

    bodies = asyncio.run(query())
    offline_results = partition_lockstep(
        [(get_partitioner(s), case.taskset, cores) for s in PAPER_SCHEMES]
    )
    failures = []
    for scheme, body, offline in zip(PAPER_SCHEMES, bodies, offline_results):
        expected = {
            "schedulable": bool(offline.schedulable),
            "assignment": offline.partition.assignment.tolist(),
            "order": list(offline.order),
            "failed_task": offline.failed_task,
            "utilizations": offline.partition.core_utilizations().tolist(),
        }
        got = {key: body[key] for key in expected}
        if got != expected:
            diff = {k: (got[k], expected[k]) for k in expected if got[k] != expected[k]}
            failures.append(
                f"{scheme}: serve /admit diverges from the offline "
                f"partitioner on (serve, offline) = {diff}"
            )
    return failures


@register_oracle(
    "explain-decision",
    "explanation margins reproduce every backend's admission decision",
)
def _check_explain_decision(case: ValidationCase) -> list[str]:
    """Differential: the introspection layer vs. the decision layer.

    For every scheme, build a :class:`ProbeExplanation` from the cached
    batch result (scalar kernel, no re-partitioning) and require

    * ``admitted`` == the partitioner's ``schedulable`` verdict;
    * every decision margin ``>= -EPS``  <=>  admitted — the sign of
      the margins *is* the decision;
    * the same document (modulo the recorded ``probe_impl``) from the
      scalar backend's partition results — explanations are
      backend-invariant because the backends are bit-identical.

    Headroom/sensitivity are skipped: they are derived views (their own
    bisection invariant is property-tested in ``tests/analysis``), and
    the campaign runs this oracle over hundreds of cases.
    """
    from repro.analysis.explain import explain_result
    from repro.types import EPS

    failures = []
    batch = case.scheme_results()
    reference = {}
    for spec in case.schemes:
        b = batch[spec.label]
        exp = explain_result(
            case.taskset,
            case.config.cores,
            b,
            probe_impl="batch",
            include_headroom=False,
            include_sensitivity=False,
        )
        reference[spec.label] = exp
        if exp.admitted != b.schedulable:
            failures.append(
                f"{spec.label}: explanation says admitted={exp.admitted} "
                f"but the partitioner says schedulable={b.schedulable}"
            )
        margins = exp.decision_margins()
        margins_admit = all(m >= -EPS for m in margins)
        if (b.schedulable or b.failed_task is not None) and (
            margins_admit != exp.admitted
        ):
            failures.append(
                f"{spec.label}: decision margins {margins} imply "
                f"admitted={margins_admit} but the decision was "
                f"admitted={exp.admitted}"
            )
    scalar = case.partition_all(get_backend("scalar"))
    for spec in case.schemes:
        exp = explain_result(
            case.taskset,
            case.config.cores,
            scalar[spec.label],
            probe_impl="scalar",
            include_headroom=False,
            include_sensitivity=False,
        )
        got = exp.to_dict()
        want = reference[spec.label].to_dict()
        got.pop("probe_impl")
        want.pop("probe_impl")
        if got != want:
            diff = sorted(k for k in want if got.get(k) != want.get(k))
            failures.append(
                f"{spec.label}: scalar/batch explanations diverge on {diff}"
            )
    return failures


def _case_event_script(case: ValidationCase, partition, horizon: float) -> list:
    """A deterministic injection script touching all four event families.

    Parameters derive from ``case.sim_seed(404)`` only, so every oracle
    that attaches events to this case sees the *same* script — the
    differential question is always "same dynamic world, two code
    paths".
    """
    from repro.model import MCTask
    from repro.sched import (
        core_failure,
        core_hotplug,
        mode_recovery,
        task_arrival,
        task_departure,
        wcet_burst,
    )

    rng = np.random.default_rng(case.sim_seed(404))
    taskset = case.taskset
    n = len(taskset)
    src = taskset[int(rng.integers(n))]
    arriving = MCTask(
        wcets=tuple(0.5 * w for w in src.wcets),
        period=src.period,
        name="fuzz-arrival",
    )
    events = [
        wcet_burst(0.25 * horizon, 0.6 * horizon, 1.0 + 2.0 * rng.random()),
        mode_recovery(0.3 * horizon, 0.7 * horizon),
        task_arrival(0.2 * horizon, arriving),
        task_departure(0.5 * horizon, int(rng.integers(n))),
    ]
    if partition.cores > 1:
        core = int(rng.integers(partition.cores))
        events.append(core_failure(0.4 * horizon, core))
        events.append(core_hotplug(0.8 * horizon, core))
    return events


@register_oracle(
    "events-job-conservation",
    "job conservation holds across injected arrival/departure/failure events",
)
def _check_events_job_conservation(case: ValidationCase) -> list[str]:
    sim = case.simulator(evented=True)
    if sim is None:
        return []
    report = sim.run(
        LevelScenario(target=case.taskset.levels), seed=case.sim_seed(505)
    )
    failures = _conservation_failures(report)
    ev = report.events.counters
    n_arrivals = sum(1 for e in sim.events if e.kind == "task_arrival")
    if ev["arrival_admitted"] + ev["arrival_rejected"] != n_arrivals:
        failures.append(
            f"arrivals leak: {ev['arrival_admitted']} admitted + "
            f"{ev['arrival_rejected']} rejected != {n_arrivals} injected"
        )
    if ev["displaced"] != ev["replaced"] + ev["repartition_lost"]:
        failures.append(
            f"re-partition leak: {ev['displaced']} displaced != "
            f"{ev['replaced']} replaced + {ev['repartition_lost']} lost"
        )
    n_windows = sum(1 for e in sim.events if e.kind == "mode_recovery")
    resolved = (
        ev["mode_recovery_applied"]
        + ev["mode_recovery_noop"]
        + ev["mode_recovery_missed"]
    )
    expected = n_windows * report.telemetry()["sim.cores_simulated"]
    if resolved != expected:
        failures.append(
            f"recovery-window leak: applied {ev['mode_recovery_applied']} + "
            f"noop {ev['mode_recovery_noop']} + missed "
            f"{ev['mode_recovery_missed']} != {expected} "
            f"(windows x simulated cores)"
        )
    return failures


@register_oracle(
    "events-telemetry",
    "telemetry reconciliation holds under every injected event kind",
)
def _check_events_telemetry(case: ValidationCase) -> list[str]:
    label, _ = case.first_schedulable()
    sim = case.simulator(evented=True)
    if sim is None:
        return []
    scenario = RandomScenario(overrun_prob=0.3)
    plain = sim.run(scenario, seed=case.sim_seed(606))
    with obs.collect() as registry:
        # A fresh compile of the same script: compilation is
        # deterministic, so recompiling under instrumentation must
        # change nothing except the spans it emits.
        instrumented = SystemSimulator(
            sim.partition, sim.horizon, allow_infeasible=True, events=sim.events
        ).run(scenario, seed=case.sim_seed(606))
        counters = registry.snapshot()["counters"]
    failures = []
    if plain.telemetry() != instrumented.telemetry():
        failures.append(
            f"{label}: enabling instrumentation changed the evented run "
            f"({plain.telemetry()} vs {instrumented.telemetry()})"
        )
    if plain.event_telemetry() != instrumented.event_telemetry():
        failures.append(
            f"{label}: enabling instrumentation changed the event outcome "
            f"({plain.event_telemetry()} vs "
            f"{instrumented.event_telemetry()})"
        )
    expected = dict(instrumented.telemetry())
    expected.update(instrumented.event_telemetry())
    for key, value in expected.items():
        recorded = counters.get(key, 0)
        if recorded != value:
            failures.append(
                f"{key}: report says {value} but the obs counter says {recorded}"
            )
    return failures
