"""Vectorized EDF-VD analysis over stacks of level matrices.

The partitioning probes of Algorithm 1 ask the same question for every
core at once: "what would ``U^{Psi_m + tau_i}`` be on core ``m``?"
(Eqs. (14)-(15)).  The scalar functions in :mod:`repro.analysis.edfvd`
answer it one ``(K, K)`` matrix at a time, which costs one full Python
pass per core.  This module evaluates an ``(R, K, K)`` *stack* of level
matrices level by level: every step is one NumPy operation on an
``(R,)`` slice (a diagonal entry, a column entry, a running product), so
the ``K`` criticality levels cost a handful of slice operations each and
no reduction runs over an axis of length ``K``.  Per-condition arrays
are levels first, ``(K - 1, R)``.

Numerical contract: every function here performs, element for element,
the *same IEEE-754 operations in the same order* as its scalar
counterpart, so results are bit-identical at every ``K`` — the
partitioners can switch between the paths without changing a single
placement decision.  Both paths add in level order: the Eq.-(4) load
``U_1(1) + U_2(2) + ...`` and each Eq.-(6) column sum ``U_j(j-1) +
U_{j+1}(j-1) + ...`` are running sums, never a NumPy reduction (which
adds eight or more terms pairwise).  The test suite pins the property on
random, NaN-lambda and infeasible stacks up to ``K = 12``.

Shapes: inputs are ``(M, K, K)`` stacks; the public per-level outputs
are ``(M, K)`` (lambdas) or ``(M, max(K - 1, 1))`` (conditions);
reductions are ``(M,)``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.edfvd import check_eq9_rule
from repro.types import EPS, INFEASIBLE, ModelError, fits_unit_capacity

__all__ = [
    "batch_lambda_factors",
    "batch_demand_terms",
    "batch_capacity_terms",
    "batch_available_utilizations",
    "batch_core_utilization",
    "batch_worst_case_load",
    "batch_is_feasible_core",
]


#: The Eq.-(15) values of a stack with no Eq.-(15) rows (read-only).
_NO_ROWS = np.empty(0)
_NO_ROWS.flags.writeable = False


def _check_stack(level_matrices: np.ndarray) -> np.ndarray:
    arr = np.asarray(level_matrices, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] < 1:
        raise ModelError(
            f"level-matrix stack must have shape (M, K, K), got {arr.shape}"
        )
    return arr


def _level_trace(mats: np.ndarray) -> np.ndarray:
    """Eq.-(4) load ``U_1(1) + U_2(2) + ...`` per matrix, in level order."""
    load = mats[:, 0, 0].copy()
    for c in range(1, mats.shape[1]):
        load += mats[:, c, c]
    return load


def _column_below(mats: np.ndarray, c: int) -> np.ndarray:
    """``sum_{x > c} U_x(c)`` per matrix (0-based), in level order: the
    Eq.-(6) numerator of ``lambda_{c+2}`` before scaling."""
    total = mats[:, c + 1, c].copy()
    for x in range(c + 2, mats.shape[1]):
        total += mats[:, x, c]
    return total


def _eq6(mats: np.ndarray, upto: int):
    """The Eq.-(6) recurrence for ``j = 2 .. upto``, level by level.

    Yields ``(lam, ok, p)`` per level: the factor ``lambda_j`` (valid
    where ``ok``), whether it is defined, and the running product
    ``P_j = prod_{x <= j} (1 - lambda_x)`` — ``nan`` from the first
    undefined factor on, so a dead chain fails every later ``>`` test
    without a mask.  Level matrices are non-negative, so a passing
    denominator makes ``lambda_j >= 0`` automatic and the scalar lower
    bound check is skipped.  Callers wrap in ``np.errstate`` (dead rows
    divide by non-positive numbers).
    """
    p = None
    for j in range(2, upto + 1):
        c = j - 2
        lam = _column_below(mats, c)
        if p is None:
            # P_1 is exactly 1: dividing by it is an identity, skipped.
            den = 1.0 - mats[:, 0, 0]
            lam /= den
        else:
            den = 1.0 - mats[:, c, c] / p
            lam /= p
            lam /= den
        ok = (den > EPS) & (lam < 1.0)
        p = np.where(ok, 1.0 - lam if p is None else p * (1.0 - lam), np.nan)
        yield lam, ok, p


def _demand_levels(mats: np.ndarray) -> np.ndarray:
    """``mu(k)`` for ``k = 1 .. K-1``, levels first ``(K-1, R)``; ``K >= 2``.

    The suffix sums run from ``U_{K-1}(K-1)`` down, the order of the
    scalar path's reversed ``cumsum``.
    """
    k_levels = mats.shape[1]
    own, below = mats[:, -1, -1], mats[:, -1, -2]  # U_K(K), U_K(K-1)
    # The ratio is meaningless where U_K(K) >= 1; such rows fail anyway.
    top = np.where(own < 1.0 - EPS, np.minimum(own, below / (1.0 - own)), own)
    mu = np.empty((k_levels - 1, mats.shape[0]))
    suffix = mats[:, k_levels - 2, k_levels - 2].copy()
    np.add(suffix, top, out=mu[k_levels - 2])
    for c in range(k_levels - 3, -1, -1):
        suffix += mats[:, c, c]
        np.add(suffix, top, out=mu[c])
    return mu


def _avail_levels(mats: np.ndarray) -> np.ndarray:
    """``A(k) = theta(k) - mu(k)`` (Eq. 8), levels first ``(K-1, R)``
    (``(1, R)`` of ``1 - U_1(1)`` at ``K = 1``), ``nan`` where the chain
    is undefined.  ``theta(k)`` is the running product ``P_k``; the
    recurrence stops at ``lambda_{K-1}``, the deepest factor Ineq. (5)
    reads.  Callers wrap in ``np.errstate``."""
    k_levels = mats.shape[1]
    if k_levels == 1:
        return (1.0 - mats[:, 0, 0])[None]
    avail = _demand_levels(mats)
    np.subtract(1.0, avail[0], out=avail[0])  # theta(1) = 1
    for c, (_, _, p) in enumerate(_eq6(mats, k_levels - 1), start=1):
        np.subtract(p, avail[c], out=avail[c])
    return avail


def _eq9(avail: np.ndarray, ok: np.ndarray, rule: str) -> np.ndarray:
    """Eq.-(9) utilization per column of levels-first ``avail``:
    :data:`INFEASIBLE` where no condition passes (``ok`` is ``avail >=
    -EPS``; a passing ``A`` is finite, so ``1 - A`` is too)."""
    if rule == "max":
        out = np.where(ok, 1.0 - avail, -np.inf).max(axis=0)
        out[np.isneginf(out)] = INFEASIBLE
        return out
    # rule == "min": the all-failed identity element is +inf, which is
    # already the INFEASIBLE marker.
    return np.where(ok, 1.0 - avail, np.inf).min(axis=0)


def batch_lambda_factors(level_matrices: np.ndarray) -> np.ndarray:
    """Eq. (6) reduction factors for a stack: ``(M, K)`` of lambdas.

    Row semantics match :func:`repro.analysis.edfvd.lambda_factors`:
    ``lambda_1 = 0`` and entries are ``nan`` from the first undefined
    factor on.
    """
    mats = _check_stack(level_matrices)
    k_levels = mats.shape[1]
    lambdas = np.full((k_levels, mats.shape[0]), np.nan)
    lambdas[0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, (lam, ok, _) in enumerate(_eq6(mats, k_levels), start=1):
            np.copyto(lambdas[c], lam, where=ok)
    return np.ascontiguousarray(lambdas.T)


def batch_demand_terms(level_matrices: np.ndarray) -> np.ndarray:
    """``mu(k)`` for every matrix of the stack: ``(M, K-1)`` (Ineq. (5)).

    ``(M, 1)`` for ``K = 1`` (plain EDF demand), mirroring the scalar
    :func:`repro.analysis.edfvd.demand_terms`.
    """
    mats = _check_stack(level_matrices)
    if mats.shape[1] == 1:
        return mats[:, :, 0].copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.ascontiguousarray(_demand_levels(mats).T)


def batch_capacity_terms(level_matrices: np.ndarray) -> np.ndarray:
    """``theta(k)`` per matrix: ``(M, K-1)`` (``(M, 1)`` of ones for K=1)."""
    mats = _check_stack(level_matrices)
    k_levels = mats.shape[1]
    theta = np.ones((max(k_levels - 1, 1), mats.shape[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, (_, _, p) in enumerate(_eq6(mats, k_levels - 1), start=1):
            theta[c] = p
    return np.ascontiguousarray(theta.T)


def batch_available_utilizations(level_matrices: np.ndarray) -> np.ndarray:
    """``A(k) = theta(k) - mu(k)`` per matrix (Eq. 8), ``-inf`` if undefined."""
    mats = _check_stack(level_matrices)
    with np.errstate(divide="ignore", invalid="ignore"):
        avail = np.ascontiguousarray(_avail_levels(mats).T)
    avail[np.isnan(avail)] = -np.inf
    return avail


def batch_core_utilization(
    level_matrices: np.ndarray, rule: str = "max"
) -> np.ndarray:
    """Eq.-(9) core utilization for every matrix of the stack: ``(M,)``.

    Entries are :data:`repro.types.INFEASIBLE` (``inf``) where no
    Theorem-1 condition has non-negative available utilization; the
    ``rule`` knob matches :func:`repro.analysis.edfvd.core_utilization`.
    """
    check_eq9_rule(rule)
    return _core_utilization_stack(_check_stack(level_matrices), rule)


def _core_utilization_stack(mats: np.ndarray, rule: str) -> np.ndarray:
    """Unchecked core of :func:`batch_core_utilization`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        avail = _avail_levels(mats)
    return _eq9(avail, avail >= -EPS, rule)


def batch_worst_case_load(level_matrices: np.ndarray) -> np.ndarray:
    """Eq.-(4) load figure ``sum_k U_k(k)`` per matrix: ``(M,)``."""
    return _level_trace(_check_stack(level_matrices))


def batch_is_feasible_core(level_matrices: np.ndarray) -> np.ndarray:
    """Per-matrix Eq.(4)-or-Theorem-1 feasibility: ``(M,)`` bools.

    The vectorized twin of :func:`repro.analysis.is_feasible_core`,
    including its short-circuit: the Theorem-1 chain only runs on the
    rows that fail the Eq.-(4) load test (feasibility is per-row, so
    gating cannot change any answer).  During the early, lightly-loaded
    phase of a partitioning run most candidate cores pass Eq. (4), which
    makes the feasibility probes nearly free.
    """
    return _is_feasible_stack(_check_stack(level_matrices))[0]


def _is_feasible_stack(
    mats: np.ndarray, rule: str = "max", rows: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked core of :func:`batch_is_feasible_core`, and the whole
    lockstep step's one kernel call: ``(admits, utilizations)``.

    The first ``rows`` matrices are Eq.-(15) rows: ``utilizations``
    holds their core utilization under ``rule``, and they admit where it
    is finite.  The rest admit by the Eq.(4)-or-Theorem-1 test, whose
    chain runs only where the Eq.-(4) load test fails.  The chain runs
    once, over the Eq.-(15) rows and those rows together.
    """
    if rows == len(mats):  # Eq.-(15) rows only (or none): no Eq.-(4) test
        utils = _core_utilization_stack(mats, rule)
        return np.isfinite(utils), utils
    n, hard = rows, None
    feasible = fits_unit_capacity(_level_trace(mats[n:] if n else mats))
    if not feasible.all():
        hard = np.flatnonzero(~feasible)
    utils = _NO_ROWS
    if n or hard is not None:
        chain = mats[:n]
        if hard is not None:
            index = n + hard
            chain = mats.take(
                np.concatenate((np.arange(n), index)) if n else index, axis=0
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            avail = _avail_levels(chain)
        ok = avail >= -EPS
        if hard is not None:
            feasible[hard] = np.logical_or.reduce(ok[:, n:], axis=0)
        if n:
            utils = _eq9(avail[:, :n], ok[:, :n], rule)
            return np.concatenate((np.isfinite(utils), feasible)), utils
    return feasible, utils
