"""The Vestal mixed-criticality task model.

A mixed-criticality (MC) task :math:`\\tau_i = (C_i, p_i, l_i)` is an
implicit-deadline periodic task with

* a *criticality level* :math:`l_i \\in \\{1, \\dots, K\\}` (its own
  criticality; level 1 is the lowest),
* a *period* :math:`p_i` that doubles as its relative deadline, and
* a vector of worst-case execution times (WCETs)
  :math:`C_i = \\langle c_i(1), \\dots, c_i(l_i)\\rangle` with
  :math:`c_i(1) \\le c_i(2) \\le \\dots \\le c_i(l_i)`.

The *level-k utilization* of the task is :math:`u_i(k) = c_i(k) / p_i`
for :math:`k \\le l_i`; at levels above its own criticality a task is
dropped, and by convention this module reports utilization 0 there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.types import ModelError

__all__ = ["MCTask"]


def _real(value: object, what: str) -> float:
    """``value`` as a float: any real number (NumPy's included), but
    never a bool or a str, which ``float()`` would coerce."""
    if type(value) not in (float, int) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ModelError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ModelError(f"{what} must be finite, got {value!r}") from None


@dataclass(frozen=True)
class MCTask:
    """One implicit-deadline periodic mixed-criticality task.

    Parameters
    ----------
    wcets:
        WCET vector ``(c(1), ..., c(l))``; its length defines the task's
        criticality level ``l``.  Must be positive and non-decreasing.
    period:
        Period and relative deadline ``p > 0``.
    name:
        Optional human-readable label (e.g. ``"tau_3"``); purely cosmetic.

    A period or WCET that is not a real number (a bool or a str
    included), or a name that is not a str, raises
    :class:`~repro.types.ModelError`.

    Examples
    --------
    >>> t = MCTask(wcets=(2.0, 5.0), period=10.0)
    >>> t.criticality
    2
    >>> t.utilization(1), t.utilization(2)
    (0.2, 0.5)
    >>> t.utilization(3)          # above own criticality: dropped
    0.0
    """

    wcets: tuple[float, ...]
    period: float
    name: str = ""
    _utils: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ModelError(f"task name must be a str, got {self.name!r}")
        wcets = tuple(_real(c, f"c({k})") for k, c in enumerate(self.wcets, 1))
        object.__setattr__(self, "wcets", wcets)
        object.__setattr__(self, "period", _real(self.period, "period"))
        self._validate()
        object.__setattr__(
            self, "_utils", tuple(c / self.period for c in wcets)
        )

    def _validate(self) -> None:
        if not self.wcets:
            raise ModelError("WCET vector must not be empty")
        if not math.isfinite(self.period) or self.period <= 0:
            raise ModelError(f"period must be positive and finite, got {self.period}")
        prev = 0.0
        for k, c in enumerate(self.wcets, start=1):
            if not math.isfinite(c) or c <= 0:
                raise ModelError(f"c({k}) must be positive and finite, got {c}")
            if c < prev:
                raise ModelError(
                    f"WCETs must be non-decreasing: c({k})={c} < c({k - 1})={prev}"
                )
            prev = c

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def criticality(self) -> int:
        """The task's own criticality level :math:`l_i` (= len of WCET vector)."""
        return len(self.wcets)

    def wcet(self, level: int) -> float:
        """WCET :math:`c_i(k)` at criticality level ``level`` (1-based).

        For ``level > l_i`` the task is not executed, and 0 is returned.
        """
        if level < 1:
            raise ModelError(f"criticality level must be >= 1, got {level}")
        if level > self.criticality:
            return 0.0
        return self.wcets[level - 1]

    def utilization(self, level: int) -> float:
        """Utilization :math:`u_i(k) = c_i(k)/p_i` (0 above own criticality)."""
        if level < 1:
            raise ModelError(f"criticality level must be >= 1, got {level}")
        if level > self.criticality:
            return 0.0
        return self._utils[level - 1]

    @property
    def max_utilization(self) -> float:
        """The task's maximum utilization :math:`u_i(l_i)`.

        This is the quantity classical heuristics (FFD/BFD/WFD) sort on.
        """
        return self._utils[-1]

    def utilization_vector(self, levels: int) -> tuple[float, ...]:
        """``(u(1), ..., u(levels))`` padded with zeros above ``l_i``."""
        if levels < self.criticality:
            raise ModelError(
                f"cannot truncate task of criticality {self.criticality} to"
                f" {levels} levels"
            )
        return self._utils + (0.0,) * (levels - self.criticality)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_utilizations(
        cls,
        utilizations: Sequence[float] | Iterable[float],
        period: float,
        name: str = "",
    ) -> "MCTask":
        """Build a task from per-level utilizations instead of WCETs."""
        utils = tuple(float(u) for u in utilizations)
        return cls(wcets=tuple(u * period for u in utils), period=period, name=name)

    def scaled(self, factor: float) -> "MCTask":
        """Return a copy with all WCETs scaled by ``factor`` (> 0)."""
        if not math.isfinite(factor) or factor <= 0:
            raise ModelError(f"scale factor must be positive, got {factor}")
        return MCTask(
            wcets=tuple(c * factor for c in self.wcets),
            period=self.period,
            name=self.name,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "task"
        cs = ", ".join(f"{c:g}" for c in self.wcets)
        return f"{label}(C=<{cs}>, p={self.period:g}, l={self.criticality})"
