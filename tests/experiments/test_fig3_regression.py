"""Regression pin for the corrected Fig.-3 (alpha sweep) numbers.

The Eq.-(16) override used to see ``Lambda = 1`` whenever any core was
still idle, so for every ``alpha < 1`` the min-utilization rule — not
Algorithm 1's min-increment rule — placed the first ``M`` tasks (and
kept firing until the least-loaded core caught up).  With idle cores
excluded from the ``min``, CA-TPA packs by minimum increment until the
*loaded* cores drift apart by more than ``alpha``.

These are the corrected CA-TPA figures at a reduced-scale Fig.-3 data
point (paper defaults, 30 task sets, seed 2016).  The schedulable-set
counts are exact integers and must never move; the quality means are
pinned tightly.  If an intentional algorithm change moves them, re-pin
*and* regenerate ``benchmarks/output/fig3_alpha.txt``.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine, PointSpec, SchemeSpec
from repro.gen.params import WorkloadConfig

# alpha -> (schedulable_sets out of 30, mean U_sys, mean Lambda)
PINNED = {
    0.1: (6, 0.9996907993479159, 0.07476411767161363),
    0.3: (6, 0.9993211507017369, 0.09458496700231966),
    0.5: (7, 0.9990612698425901, 0.0820285398006917),
}


def _catpa_stats(alpha):
    """CA-TPA's stats at the reduced Fig.-3 point (30 sets, seed 2016)."""
    schemes = (SchemeSpec.make("ca-tpa", alpha=alpha),)
    point = PointSpec(WorkloadConfig(), schemes, sets=30, seed=2016)
    return Engine().evaluate(point)["ca-tpa"]


@pytest.mark.parametrize("alpha", sorted(PINNED))
def test_fig3_catpa_numbers_pinned(alpha):
    expected_count, expected_u_sys, expected_imbalance = PINNED[alpha]
    stats = _catpa_stats(alpha)
    assert stats.schedulable_sets == expected_count
    assert stats.u_sys == pytest.approx(expected_u_sys, rel=1e-9)
    assert stats.imbalance == pytest.approx(expected_imbalance, rel=1e-9)


def test_imbalance_stays_roughly_bounded_by_alpha():
    # The override's whole point: with a tight threshold the *final*
    # imbalance over loaded cores stays small even while packing.
    stats = _catpa_stats(0.1)
    assert stats.imbalance < 0.25
