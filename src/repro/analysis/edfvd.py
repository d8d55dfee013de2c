"""EDF-VD schedulability analysis for one core (Theorem 1 of the paper).

All functions in this module operate on a *level matrix*: the ``(K, K)``
array ``L`` with ``L[j-1, k-1] = U_j(k)``, i.e. the summed level-``k``
utilization of the core's tasks whose own criticality is exactly ``j``
(Eq. (3)).  Level matrices come from :meth:`MCTaskSet.level_matrix` or
:meth:`Partition.level_matrix`, and can be updated incrementally by
adding a candidate task's utilization row — which is exactly what the
partitioning probes do.

Reconstructed formulas (DESIGN.md §1 documents the cross-checks):

* reduction factors, Eq. (6)::

      lambda_1 = 0
      lambda_j = (sum_{x=j}^{K} U_x(j-1) / P_{j-1})
                 / (1 - U_{j-1}(j-1) / P_{j-1}),      P_j = prod_{x<=j} (1-lambda_x)

* condition ``k`` of Ineq. (5), for ``k = 1..K-1``::

      mu(k)    = sum_{i=k}^{K-1} U_i(i)
                 + min(U_K(K), U_K(K-1) / (1 - U_K(K)))
      theta(k) = prod_{j=1}^{k} (1 - lambda_j)
      feasible at k  <=>  mu(k) <= theta(k)

* available utilization (Eq. (8)) ``A(k) = theta(k) - mu(k)`` and core
  utilization (Eq. (9)) ``U = max_{A(k) >= 0} (1 - A(k))`` (``inf`` when
  no condition holds).

For ``K = 2`` the machinery reduces exactly to the classical dual-
criticality EDF-VD results (Eq. (7) and the ``x = U_2(1)/(1-U_1(1))``
virtual-deadline factor); :mod:`repro.analysis.dual` implements those
directly and the test suite verifies agreement.

For ``K = 1`` (no mixed criticality) the conditions degenerate; we define
``A = [1 - U_1(1)]`` so that the core utilization is the plain EDF
utilization, which is the natural reduction.
"""

from __future__ import annotations

import numpy as np

from repro.types import EPS, INFEASIBLE, ModelError

__all__ = [
    "lambda_factors",
    "demand_terms",
    "capacity_terms",
    "available_utilizations",
    "check_eq9_rule",
    "core_utilization",
    "is_feasible_theorem1",
    "first_feasible_condition",
]


def _check_level_matrix(level_matrix: np.ndarray) -> np.ndarray:
    mat = np.asarray(level_matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ModelError(f"level matrix must be square (K, K), got {mat.shape}")
    return mat


def lambda_factors(level_matrix: np.ndarray) -> np.ndarray:
    """The virtual-deadline reduction factors ``lambda_1..lambda_K`` (Eq. 6).

    Returns a ``(K,)`` array.  ``lambda_1`` is always 0.  An entry is
    ``nan`` when the factor is *undefined*: its denominator is not
    positive, the factor falls outside ``[0, 1)``, or an earlier factor is
    already undefined.  Conditions that reference an undefined factor are
    treated as failed by the other functions in this module.
    """
    mat = _check_level_matrix(level_matrix)
    k_levels = mat.shape[0]
    lambdas = np.full(k_levels, np.nan, dtype=np.float64)
    lambdas[0] = 0.0
    running_product = 1.0  # P_{j-1} = prod_{x=1}^{j-1} (1 - lambda_x)
    for j in range(2, k_levels + 1):
        # numerator: sum_{x=j}^{K} U_x(j-1) in level order (as the batch
        # kernel adds it, at every K), scaled by 1/P_{j-1}
        column = mat[j - 1 :, j - 2].tolist()
        numerator = column[0]
        for u in column[1:]:
            numerator += u
        numerator /= running_product
        denominator = 1.0 - float(mat[j - 2, j - 2]) / running_product
        if denominator <= EPS:
            break  # undefined from j on
        lam = numerator / denominator
        if not 0.0 <= lam < 1.0:
            break
        lambdas[j - 1] = lam
        running_product *= 1.0 - lam
    return lambdas


def demand_terms(level_matrix: np.ndarray) -> np.ndarray:
    """``mu(k)`` for ``k = 1..K-1`` — the demand side of Ineq. (5).

    For ``K = 1`` returns the single-element array ``[U_1(1)]`` (plain EDF
    demand).
    """
    mat = _check_level_matrix(level_matrix)
    k_levels = mat.shape[0]
    diag = np.diagonal(mat)
    if k_levels == 1:
        return diag.copy()
    u_top_own = float(diag[-1])  # U_K(K)
    u_top_below = float(mat[-1, -2])  # U_K(K-1)
    if u_top_own < 1.0 - EPS:
        min_term = min(u_top_own, u_top_below / (1.0 - u_top_own))
    else:
        # The ratio is meaningless (denominator <= 0); the demand is then
        # at least U_K(K) >= 1 and every condition fails anyway.
        min_term = u_top_own
    # suffix sums of diag over i = k..K-1
    partial = np.cumsum(diag[:-1][::-1])[::-1]
    return partial + min_term


def capacity_terms(level_matrix: np.ndarray) -> np.ndarray:
    """``theta(k) = prod_{j<=k} (1 - lambda_j)`` for ``k = 1..K-1``.

    Entries whose lambda chain is undefined are ``nan``.  For ``K = 1``
    returns ``[1.0]``.
    """
    mat = _check_level_matrix(level_matrix)
    k_levels = mat.shape[0]
    if k_levels == 1:
        return np.ones(1, dtype=np.float64)
    lambdas = lambda_factors(mat)
    return np.cumprod(1.0 - lambdas[: k_levels - 1])


def available_utilizations(level_matrix: np.ndarray) -> np.ndarray:
    """``A(k) = theta(k) - mu(k)`` (Eq. 8), ``-inf`` where undefined."""
    theta = capacity_terms(level_matrix)
    mu = demand_terms(level_matrix)
    avail = theta - mu
    avail[np.isnan(avail)] = -np.inf
    return avail


def check_eq9_rule(rule: str) -> None:
    """Raise :class:`ModelError` unless ``rule`` names an Eq.-(9) aggregation.

    The one rule check behind every entry point that takes ``rule``:
    this module, :mod:`repro.analysis.batch`, the probe backends and
    :meth:`repro.model.Partition.core_utilizations`.
    """
    if rule not in ("max", "min"):
        raise ModelError(f"unknown Eq. (9) rule {rule!r}; use 'max' or 'min'")


def core_utilization(level_matrix: np.ndarray, rule: str = "max") -> float:
    """Core utilization ``U^{Psi_m}`` per Eq. (9).

    ``max_{A(k) >= 0} (1 - A(k))``; :data:`repro.types.INFEASIBLE`
    (``inf``) when no condition has non-negative available utilization.

    ``rule="min"`` evaluates the optimistic alternative
    ``min_{A(k) >= 0} (1 - A(k))`` — i.e. the utilization under the
    *most favourable* feasible condition.  The OCR of the paper reads
    "max", which we take as canonical; the min variant is exposed as a
    research knob for the ablation benches (for ``K = 2`` the two
    coincide, since there is a single condition).
    """
    check_eq9_rule(rule)
    avail = available_utilizations(level_matrix)
    ok = avail >= -EPS
    if not ok.any():
        return INFEASIBLE
    pick = np.max if rule == "max" else np.min
    return float(pick(1.0 - avail[ok]))


def is_feasible_theorem1(level_matrix: np.ndarray) -> bool:
    """True iff Ineq. (5) holds for at least one ``k`` (Proposition 2)."""
    return bool((available_utilizations(level_matrix) >= -EPS).any())


def first_feasible_condition(level_matrix: np.ndarray) -> int | None:
    """The smallest ``k`` (1-based) for which Ineq. (5) holds, else ``None``.

    The paper's run-time protocol is parameterized by exactly this ``k``
    ("suppose that the inequality (5) holds for a specific k, but does not
    hold for any smaller value"); the simulator uses it as ``k*``.
    """
    avail = available_utilizations(level_matrix)
    hits = np.flatnonzero(avail >= -EPS)
    if hits.size == 0:
        return None
    return int(hits[0]) + 1
