"""Vectorized EDF-VD analysis over stacks of level matrices.

The partitioning probes of Algorithm 1 ask the same question for every
core at once: "what would ``U^{Psi_m + tau_i}`` be on core ``m``?"
(Eqs. (14)-(15)).  The scalar functions in :mod:`repro.analysis.edfvd`
answer it one ``(K, K)`` matrix at a time, which costs one full Python
pass per core.  This module evaluates an ``(M, K, K)`` *stack* of level
matrices in a single NumPy pass: the sequential recurrence of Eq. (6)
stays a loop over the ``K`` criticality levels (it is inherently
sequential in ``j``), but every core is advanced simultaneously, so the
per-core Python overhead disappears.

Numerical contract: every function here performs, element for element,
the *same IEEE-754 operations in the same order* as its scalar
counterpart, so results are bit-identical — the partitioners can switch
between the paths without changing a single placement decision (the
test suite pins this property on random, NaN-lambda and infeasible
stacks).

Shapes: inputs are ``(M, K, K)`` stacks; per-level outputs are
``(M, K)`` (lambdas) or ``(M, max(K - 1, 1))`` (conditions); reductions
are ``(M,)``.
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


def _check_stack(level_matrices: np.ndarray) -> np.ndarray:
    arr = np.asarray(level_matrices, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] < 1:
        raise ModelError(
            f"level-matrix stack must have shape (M, K, K), got {arr.shape}"
        )
    return arr


# Strict-lower-triangle masks by K.  Summing a masked copy along the row
# axis yields every column's "criticalities above j-1" sum in one pass;
# for K < 8 NumPy reduces sequentially in row order, so the prepended
# zero rows leave each partial sum bit-identical to the scalar slice sum.
_BELOW_MASKS: dict[int, np.ndarray] = {}


def _strict_lower_mask(k_levels: int) -> np.ndarray:
    mask = _BELOW_MASKS.get(k_levels)
    if mask is None:
        mask = np.tril(np.ones((k_levels, k_levels), dtype=bool), k=-1)
        _BELOW_MASKS[k_levels] = mask
    return mask


def _lambda_factors(
    mats: np.ndarray, diag: np.ndarray, upto: int
) -> np.ndarray:
    """Unchecked core of :func:`batch_lambda_factors` (shared ``diag``).

    Runs the Eq.-(6) recurrence for ``lambda_2 .. lambda_upto`` only;
    entries past ``upto`` stay ``nan``.  Callers must wrap in
    ``np.errstate`` (division warnings are expected on dead rows).  The
    Theorem-1 chain passes ``upto = K - 1`` because ``theta(K-1)`` is
    the deepest capacity term — ``lambda_K`` never feeds a condition.
    """
    m_stack, k_levels = mats.shape[0], mats.shape[1]
    lambdas = np.full((m_stack, k_levels), np.nan, dtype=np.float64)
    lambdas[:, 0] = 0.0
    if k_levels == 1 or m_stack == 0:
        return lambdas
    if upto < 2:
        return lambdas
    below = np.where(_strict_lower_mask(k_levels), mats, 0.0).sum(axis=1)
    # j = 2: P_1 is exactly 1, so the divisions by the running product
    # are identities (x / 1.0 == x) and can be skipped bit-safely.
    denominator = 1.0 - diag[:, 0]
    lam = below[:, 0] / denominator
    # Level matrices are non-negative by construction, so whenever the
    # denominator check passes, lam >= 0 is automatic (and a NaN lam
    # fails `lam < 1.0` just like the scalar `0.0 <= lam` test); the
    # scalar path's lower-bound check is skipped here and below.
    alive = (denominator > EPS) & (lam < 1.0)
    np.copyto(lambdas[:, 1], lam, where=alive)
    if upto == 2 or not alive.any():
        return lambdas
    product = np.where(alive, 1.0 - lam, 1.0)  # P_2 per matrix
    for j in range(3, upto + 1):
        numerator = below[:, j - 2] / product
        denominator = 1.0 - diag[:, j - 2] / product
        lam = numerator / denominator
        ok = alive & (denominator > EPS) & (lam < 1.0)
        np.copyto(lambdas[:, j - 1], lam, where=ok)
        if not ok.any():
            break
        product = np.where(ok, product * (1.0 - lam), product)
        alive = ok
    return lambdas


def batch_lambda_factors(level_matrices: np.ndarray) -> np.ndarray:
    """Eq. (6) reduction factors for a stack: ``(M, K)`` of lambdas.

    Row semantics match :func:`repro.analysis.edfvd.lambda_factors`:
    ``lambda_1 = 0`` and entries are ``nan`` from the first undefined
    factor on.  The recurrence over ``j`` is sequential, but all ``M``
    matrices advance together; a row that dies is masked out of later
    steps (``alive``) exactly like the scalar early ``break``.
    """
    mats = _check_stack(level_matrices)
    diag = np.diagonal(mats, axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _lambda_factors(mats, diag, mats.shape[1])


def _demand_terms(mats: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Unchecked core of :func:`batch_demand_terms` (shared ``diag``).

    Callers must wrap in ``np.errstate`` (the ``U_K(K) >= 1`` rows
    divide by a non-positive denominator before being masked out).
    """
    if mats.shape[1] == 1:
        return diag.copy()
    u_top_own = diag[:, -1]  # U_K(K)
    u_top_below = mats[:, -1, -2]  # U_K(K-1)
    ratio = u_top_below / (1.0 - u_top_own)
    min_term = np.where(
        u_top_own < 1.0 - EPS, np.minimum(u_top_own, ratio), u_top_own
    )
    # suffix sums of the diagonal over i = k..K-1, per matrix
    partial = np.cumsum(diag[:, :-1][:, ::-1], axis=1)[:, ::-1]
    return partial + min_term[:, None]


def _available_utilizations(mats: np.ndarray) -> np.ndarray:
    """Unchecked core of :func:`batch_available_utilizations`.

    Computes the diagonal once and feeds it to both the lambda recurrence
    and the demand terms — the scalar path extracts it twice.  The
    recurrence stops at ``lambda_{K-1}``: ``theta(K-1)`` is the deepest
    capacity term of Ineq. (5), so ``lambda_K`` (which the scalar path
    computes and discards) is never evaluated here.
    """
    k_levels = mats.shape[1]
    diag = np.diagonal(mats, axis1=1, axis2=2)  # (M, K)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = _demand_terms(mats, diag)
        if k_levels == 1:
            theta = np.ones_like(mu)
        else:
            lambdas = _lambda_factors(mats, diag, k_levels - 1)
            theta = np.cumprod(1.0 - lambdas[:, : k_levels - 1], axis=1)
    avail = theta - mu
    avail[np.isnan(avail)] = -np.inf
    return avail


def batch_demand_terms(level_matrices: np.ndarray) -> np.ndarray:
    """``mu(k)`` for every matrix of the stack: ``(M, K-1)`` (Ineq. (5)).

    ``(M, 1)`` for ``K = 1`` (plain EDF demand), mirroring the scalar
    :func:`repro.analysis.edfvd.demand_terms`.
    """
    mats = _check_stack(level_matrices)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _demand_terms(mats, np.diagonal(mats, axis1=1, axis2=2))


def batch_capacity_terms(level_matrices: np.ndarray) -> np.ndarray:
    """``theta(k)`` per matrix: ``(M, K-1)`` (``(M, 1)`` of ones for K=1)."""
    mats = _check_stack(level_matrices)
    m_stack, k_levels = mats.shape[0], mats.shape[1]
    if k_levels == 1:
        return np.ones((m_stack, 1), dtype=np.float64)
    lambdas = batch_lambda_factors(mats)
    return np.cumprod(1.0 - lambdas[:, : k_levels - 1], axis=1)


def batch_available_utilizations(level_matrices: np.ndarray) -> np.ndarray:
    """``A(k) = theta(k) - mu(k)`` per matrix (Eq. 8), ``-inf`` if undefined."""
    return _available_utilizations(_check_stack(level_matrices))


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
    """Unchecked core of :func:`batch_core_utilization`.

    ``1 - A(k)`` is finite for every condition that passes ``A(k) >=
    -EPS`` (a passing ``A`` is finite), so a row with no passing
    condition is recognisable from the reduction's identity element
    alone — no separate ``ok.any()`` pass is needed.
    """
    avail = _available_utilizations(mats)
    ok = avail >= -EPS
    if rule == "max":
        out = np.where(ok, 1.0 - avail, -np.inf).max(axis=1)
        return np.where(np.isneginf(out), INFEASIBLE, out)
    # rule == "min": the all-failed identity element is +inf, which is
    # already the INFEASIBLE marker.
    return np.where(ok, 1.0 - avail, np.inf).min(axis=1)


def batch_worst_case_load(level_matrices: np.ndarray) -> np.ndarray:
    """Eq.-(4) load figure ``sum_k U_k(k)`` per matrix: ``(M,)``."""
    mats = _check_stack(level_matrices)
    return np.trace(mats, axis1=1, axis2=2)


def batch_is_feasible_core(level_matrices: np.ndarray) -> np.ndarray:
    """Per-matrix Eq.(4)-or-Theorem-1 feasibility: ``(M,)`` bools.

    The vectorized twin of :func:`repro.analysis.is_feasible_core`,
    including its short-circuit: the Theorem-1 chain only runs on the
    rows that fail the Eq.-(4) trace test (feasibility is per-row, so
    gating cannot change any answer).  During the early, lightly-loaded
    phase of a partitioning run most candidate cores pass Eq. (4), which
    makes the feasibility probes nearly free.
    """
    return _is_feasible_stack(_check_stack(level_matrices))


def _is_feasible_stack(mats: np.ndarray) -> np.ndarray:
    """Unchecked core of :func:`batch_is_feasible_core`."""
    feasible = fits_unit_capacity(np.trace(mats, axis1=1, axis2=2))
    if not feasible.all():
        hard = np.flatnonzero(~feasible)
        avail = _available_utilizations(mats[hard])
        feasible[hard] = (avail >= -EPS).any(axis=1)
    return feasible
