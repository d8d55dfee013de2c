"""Dual-criticality (``K = 2``) EDF-VD specialization.

These are the classical results of Baruah et al. (ESA'11 / ECRTS'12 /
JACM'15) that the paper's Theorem 1 generalizes.  They serve two
purposes here:

1. direct, independently-coded implementations used by the test suite to
   cross-check the reconstructed multi-level machinery in
   :mod:`repro.analysis.edfvd` (for ``K = 2`` the two must agree), and
2. the virtual-deadline factor ``x`` consumed by the runtime simulator in
   the common dual-criticality configuration.

Notation: ``U_j(k)`` with ``j`` the tasks' own criticality (1 = LO,
2 = HI) and ``k`` the level of the WCET used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.types import EPS, ModelError, fits_unit_capacity

__all__ = [
    "DualUtilizations",
    "is_feasible_dual",
    "is_feasible_classic",
    "deadline_scale_factor",
    "minimum_speed",
    "SPEEDUP_BOUND",
]

#: EDF-VD's speedup factor for dual-criticality systems (JACM'15): any
#: instance feasible on a unit-speed core is EDF-VD schedulable on a core
#: of speed 4/3.
SPEEDUP_BOUND: float = 4.0 / 3.0


@dataclass(frozen=True)
class DualUtilizations:
    """The three aggregate utilizations governing dual-criticality EDF-VD."""

    lo_lo: float  #: U_1(1): LO tasks at their own (only) level
    hi_lo: float  #: U_2(1): HI tasks under LO-mode WCETs
    hi_hi: float  #: U_2(2): HI tasks under HI-mode WCETs

    @classmethod
    def from_level_matrix(cls, level_matrix: np.ndarray) -> "DualUtilizations":
        mat = np.asarray(level_matrix, dtype=np.float64)
        if mat.shape != (2, 2):
            raise ModelError(
                f"dual-criticality analysis needs a (2, 2) level matrix, got {mat.shape}"
            )
        return cls(lo_lo=float(mat[0, 0]), hi_lo=float(mat[1, 0]), hi_hi=float(mat[1, 1]))


def is_feasible_dual(u: DualUtilizations) -> bool:
    """Eq. (7): ``U_1(1) + min(U_2(2), U_2(1)/(1 - U_2(2))) <= 1``."""
    if u.hi_hi >= 1.0 - EPS:
        min_term = u.hi_hi
    else:
        min_term = min(u.hi_hi, u.hi_lo / (1.0 - u.hi_hi))
    return bool(fits_unit_capacity(u.lo_lo + min_term))


def deadline_scale_factor(u: DualUtilizations) -> float | None:
    """The virtual-deadline factor ``x = U_2(1) / (1 - U_1(1))``.

    In LO mode every HI task's relative deadline is shrunk to ``x * p_i``.
    Returns ``None`` when no valid factor exists (``U_1(1) >= 1`` or the
    resulting ``x`` is not in ``[0, 1)``), which matches ``lambda_2`` of
    Eq. (6) being undefined.

    A factor of exactly 0 can only occur when there are no HI tasks, in
    which case no scaling is needed; callers may treat 0 as "no HI tasks".
    """
    denominator = 1.0 - u.lo_lo
    if denominator <= EPS:
        return None
    x = u.hi_lo / denominator
    if not 0.0 <= x < 1.0:
        return None
    return x


def is_feasible_classic(u: DualUtilizations) -> bool:
    """The JACM'15 sufficient test phrased via the ``x`` factor.

    Schedulable if either the plain worst-case utilization fits
    (``U_1(1) + U_2(2) <= 1``, EDF with no virtual deadlines), or the
    smallest admissible virtual-deadline factor
    ``x = U_2(1) / (1 - U_1(1))`` also satisfies the HI-mode condition
    ``x * U_1(1) + U_2(2) <= 1``.  (The LO-mode condition
    ``U_1(1) + U_2(1)/x <= 1`` holds by the choice of ``x``; in slack form,
    like every unit-capacity check, ``x = U_2(1) / (1 - U_1(1) + EPS)``,
    which stays defined at ``U_1(1) = 1``.)

    Note: this test *dominates* Eq. (7) — whenever Eq. (7) accepts, so
    does this test (if the ratio branch of Eq. (7) holds then
    ``x <= 1 - U_2(2)``, hence ``x*U_1(1) + U_2(2) <= U_1(1) +
    (1-U_1(1))*U_2(2) <= 1``), but not conversely.  It is coded
    independently and the test suite verifies the implication on random
    instances; the partitioners use the Theorem-1/Eq.-(7) family for
    faithfulness to the paper.
    """
    if fits_unit_capacity(u.lo_lo + u.hi_hi):  # plain EDF on worst-case budgets
        return True
    room = (1.0 - u.lo_lo) + EPS  # LO-mode room for U_2(1)/x, slack form
    if room <= 0.0:
        return False
    x = u.hi_lo / room
    return bool(x < 1.0 and fits_unit_capacity(x * u.lo_lo + u.hi_hi))


def minimum_speed(u: DualUtilizations, test=None) -> float:
    """The smallest processor speed at which ``test`` accepts, by bisection.

    Scaling the platform speed by ``s`` divides every utilization by
    ``s``.  ``test`` defaults to :func:`is_feasible_classic` (the JACM'15
    x-factor test), for which the classical speedup guarantee holds: any
    instance with ``max(U_1(1)+U_2(1), U_2(2)) <= 1`` (feasible on a
    unit-speed clairvoyant scheduler) needs speed at most 4/3
    (:data:`SPEEDUP_BOUND`).  Pass :func:`is_feasible_dual` to measure the
    Eq. (7) test instead — note that Eq. (7) does *not* enjoy the 4/3
    bound (e.g. ``(0.75, 0.25, 1.0)`` needs speed 1.5 under Eq. (7)).
    """
    if test is None:
        test = is_feasible_classic
    lo, hi = 0.0, 16.0
    base = (u.lo_lo, u.hi_lo, u.hi_hi)
    if not math.isfinite(sum(base)):
        raise ModelError("utilizations must be finite")
    for _ in range(100):
        mid = (lo + hi) / 2.0
        scaled = DualUtilizations(*(v / mid for v in base)) if mid > 0 else u
        if mid > 0 and test(scaled):
            hi = mid
        else:
            lo = mid
    return hi
