"""UUniFast-based generation (extension; not used by the paper's figures).

`UUniFast <https://doi.org/10.1007/s11241-005-0507-9>`_ (Bini & Buttazzo,
2005) draws an unbiased uniform point from the simplex of ``n`` task
utilizations summing to ``U``.  ``uunifast_discard`` (Davis & Burns)
rejects vectors with any component above 1, for multiprocessor-scale
total utilizations.  :func:`uunifast_mc_taskset` layers the paper's
criticality structure (random levels + IFC growth) on top, giving an
alternative workload family for robustness experiments.
"""

from __future__ import annotations

import numpy as np

from repro.gen.generator import level_wcets
from repro.model.taskset import MCTaskSet
from repro.types import GenerationError

__all__ = ["uunifast", "uunifast_discard", "uunifast_mc_taskset"]


def uunifast(n: int, total: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` utilizations summing to ``total``, uniform on the simplex."""
    if n < 1:
        raise GenerationError(f"n must be >= 1, got {n}")
    if total <= 0:
        raise GenerationError(f"total must be positive, got {total}")
    utils = np.empty(n, dtype=np.float64)
    remaining = total
    for i in range(n - 1):
        next_remaining = remaining * float(rng.random()) ** (1.0 / (n - 1 - i))
        utils[i] = remaining - next_remaining
        remaining = next_remaining
    utils[n - 1] = remaining
    return utils


def uunifast_discard(
    n: int, total: float, rng: np.random.Generator, max_tries: int = 1000
) -> np.ndarray:
    """UUniFast, rejecting vectors with any single utilization above 1."""
    if total > n:
        raise GenerationError(
            f"total utilization {total} cannot fit in {n} tasks of u <= 1"
        )
    for _ in range(max_tries):
        utils = uunifast(n, total, rng)
        if (utils <= 1.0).all():
            return utils
    raise GenerationError(
        f"uunifast_discard failed after {max_tries} tries (n={n}, total={total})"
    )


def uunifast_mc_taskset(
    n: int,
    total_level1: float,
    levels: int,
    ifc: float,
    rng: np.random.Generator,
    period_range: tuple[int, int] = (50, 2000),
) -> MCTaskSet:
    """MC task set whose level-1 utilizations come from UUniFast-discard.

    Criticalities are uniform over ``{1..levels}`` and higher-level WCETs
    grow by ``1 + ifc`` per level, as in the paper's generator.
    """
    if levels < 1:
        raise GenerationError(f"levels must be >= 1, got {levels}")
    if ifc < 0:
        raise GenerationError(f"ifc must be >= 0, got {ifc}")
    utils = uunifast_discard(n, total_level1, rng)
    plo, phi = period_range
    if not 0 < plo <= phi:
        raise GenerationError(f"invalid period range {period_range}")
    periods = rng.integers(plo, phi + 1, size=n).astype(np.float64)
    crits = rng.integers(1, levels + 1, size=n)
    # UUniFast can produce (near-)zero components; clamp them to a
    # negligible but valid execution time.
    c1 = utils * periods
    c1 = np.where(c1 <= 0.0, 1e-9 * periods, c1)
    return MCTaskSet.from_arrays(
        level_wcets(c1, crits, levels, 1.0 + ifc), periods, crits, levels=levels
    )
