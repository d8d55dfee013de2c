"""Declarative experiment specifications.

An experiment is a JSON-serializable *plan*, not code: a grid of
(:class:`~repro.gen.params.WorkloadConfig`, scheme list, sets, seed)
points.  The figure builders in :mod:`repro.experiments.sweeps`, the
validate and dynamic campaigns, and the CLI all produce these specs; the
:class:`~repro.engine.core.Engine` evaluates them.  Because a spec is
pure data, two different call sites that describe the same point (e.g.
Fig. 1 at NSU = 0.6 and Fig. 2 at IFC = 0.4 — both the Section IV-A
default) hash to the same shard keys and share checkpointed results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gen.params import WorkloadConfig
from repro.types import ReproError

__all__ = [
    "SchemeSpec",
    "default_schemes",
    "PointSpec",
    "ExperimentSpec",
    "plan_shards",
]

#: Evaluation modes a :class:`PointSpec` supports: ``stats`` accumulates
#: the four paper metrics per scheme and each scheme's pairwise wins over
#: the others on the common task sets; ``validate`` sweeps the task sets
#: through the :mod:`repro.validate` oracle registry; ``dynsim``
#: simulates each set under an injected-event script
#: (:mod:`repro.experiments.dynamic`).  The engine resolves each kind's
#: runner/codec through its shard-kind registry
#: (:func:`repro.engine.core.shard_kind`).
POINT_KINDS = ("stats", "validate", "dynsim")


@dataclass(frozen=True)
class SchemeSpec:
    """Picklable description of one scheme configuration.

    ``label`` is the reporting key (defaults to ``name``); ``kwargs``
    are forwarded to the registry factory.
    """

    name: str
    kwargs: tuple[tuple[str, object], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", self.name)

    @classmethod
    def make(cls, name: str, label: str = "", **kwargs) -> "SchemeSpec":
        return cls(name=name, kwargs=tuple(sorted(kwargs.items())), label=label)

    def build(self):
        from repro.partition.registry import get_partitioner

        return get_partitioner(self.name, **dict(self.kwargs))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "label": self.label,
            "kwargs": {k: v for k, v in self.kwargs},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SchemeSpec":
        return cls.make(data["name"], label=data["label"], **data["kwargs"])


def default_schemes(alpha: float = 0.7) -> list[SchemeSpec]:
    """The paper's five schemes: CA-TPA (with ``alpha``) + 4 baselines."""
    return [
        SchemeSpec.make("ca-tpa", alpha=alpha),
        SchemeSpec.make("ffd"),
        SchemeSpec.make("bfd"),
        SchemeSpec.make("wfd"),
        SchemeSpec.make("hybrid"),
    ]


@dataclass(frozen=True)
class PointSpec:
    """One data point: a workload config evaluated by a scheme list.

    ``kind`` selects the shard payload (see :data:`POINT_KINDS`).  The
    spec is hashable content for the store: everything that influences
    the numbers — config, schemes, seed, set count — is in here.
    """

    config: WorkloadConfig
    schemes: tuple[SchemeSpec, ...]
    sets: int = 200
    seed: int = 2016
    kind: str = "stats"
    #: kind-specific knobs, sorted ``(key, value)`` pairs (e.g. the
    #: ``dynsim`` burst factor).  Kept out of :meth:`to_dict` when empty
    #: so every pre-existing point keeps its shard hashes.
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.sets < 1:
            raise ReproError(f"sets must be >= 1, got {self.sets}")
        if self.seed < 0:
            raise ReproError(f"seed must be >= 0, got {self.seed}")
        if not self.schemes:
            raise ReproError("at least one scheme is required")
        labels = self.labels
        if len(set(labels)) != len(labels):
            raise ReproError(f"duplicate scheme labels: {list(labels)}")
        if self.kind not in POINT_KINDS:
            raise ReproError(
                f"unknown point kind {self.kind!r}; expected one of {POINT_KINDS}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.schemes)

    def to_dict(self) -> dict:
        data = {
            "config": self.config.to_dict(),
            "schemes": [s.to_dict() for s in self.schemes],
            "sets": self.sets,
            "seed": self.seed,
            "kind": self.kind,
        }
        if self.params:
            data["params"] = {k: v for k, v in self.params}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PointSpec":
        return cls(
            config=WorkloadConfig.from_dict(data["config"]),
            schemes=tuple(SchemeSpec.from_dict(s) for s in data["schemes"]),
            sets=int(data["sets"]),
            seed=int(data["seed"]),
            kind=data["kind"],
            params=tuple(sorted(data.get("params", {}).items())),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A whole figure: swept values and their data points, as pure data."""

    figure: str  #: e.g. "fig1"
    title: str
    parameter: str  #: axis label, e.g. "NSU"
    values: tuple
    points: tuple[PointSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.values) != len(self.points):
            raise ReproError(
                f"{len(self.values)} swept values but {len(self.points)} points"
            )
        if not self.points:
            raise ReproError("an experiment needs at least one point")

    @property
    def sets_per_point(self) -> int:
        return self.points[0].sets

    @property
    def seed(self) -> int:
        return self.points[0].seed

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "title": self.title,
            "parameter": self.parameter,
            "values": list(self.values),
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        return cls(
            figure=data["figure"],
            title=data["title"],
            parameter=data["parameter"],
            values=tuple(data["values"]),
            points=tuple(PointSpec.from_dict(p) for p in data["points"]),
        )


def plan_shards(sets: int, jobs: int) -> list[tuple[int, int]]:
    """Split ``[0, sets)`` into at most ``jobs`` contiguous shards.

    Returns ``(start, count)`` pairs with every ``count > 0``.  When
    ``jobs`` is close to ``sets``, ``np.linspace`` rounding can emit
    zero-width intervals; those are dropped, and the cover is verified
    exactly — a gap or overlap here would silently skew every figure.
    """
    if sets < 1:
        raise ReproError(f"sets must be >= 1, got {sets}")
    jobs = max(1, min(jobs, sets))
    bounds = np.linspace(0, sets, jobs + 1).astype(int)
    shards = [
        (int(lo), int(hi - lo)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    cursor = 0
    for start, count in shards:
        if start != cursor or count < 1:
            raise ReproError(
                f"shard plan does not cover [0, {sets}) exactly: {shards}"
            )
        cursor += count
    if cursor != sets:
        raise ReproError(
            f"shard plan does not cover [0, {sets}) exactly: {shards}"
        )
    return shards
