"""Simple utilization-based schedulability tests.

Eq. (4) of the paper: a core's tasks are EDF-VD schedulable if

.. math::

    \\sum_{k=1}^{K} U_k^{\\Psi_m}(k) \\le 1,

i.e. the core can absorb every task's *maximum* utilization at its own
criticality level simultaneously; EDF-VD then degenerates to plain EDF
with no virtual deadlines.  This is the (pessimistic) test classical
heuristics use as their first check.
"""

from __future__ import annotations

import numpy as np

from repro.types import ModelError, fits_unit_capacity

__all__ = ["worst_case_load", "is_feasible_simple", "is_feasible_plain_edf"]


def worst_case_load(level_matrix: np.ndarray) -> float:
    """``sum_k U_k(k)`` — the load figure used by Eq. (4) and by the
    classical heuristics as their bin "fill level"."""
    mat = np.asarray(level_matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ModelError(f"level matrix must be square (K, K), got {mat.shape}")
    # Level order at every K, as the batch kernel adds it (np.trace sums
    # eight or more terms pairwise).
    load = 0.0
    for u in np.diagonal(mat).tolist():
        load += u
    return load


def is_feasible_simple(level_matrix: np.ndarray) -> bool:
    """Eq. (4): sufficient utilization test for EDF-VD on one core."""
    return bool(fits_unit_capacity(worst_case_load(level_matrix)))


def is_feasible_plain_edf(utilizations: np.ndarray | list[float]) -> bool:
    """Classic Liu & Layland EDF bound for implicit deadlines: ``sum u <= 1``.

    Used for the non-MC (``K = 1``) degenerate case and in tests.
    """
    total = float(np.sum(np.asarray(utilizations, dtype=np.float64)))
    return bool(fits_unit_capacity(total))
