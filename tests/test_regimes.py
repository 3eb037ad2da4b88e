"""The default scene's regimes, each held to its facts in ``helpers.REGIMES``.

A regime places the default scene along x or y at a separation s, the
paper's nearly intersecting objects as s falls, and may translate both
triangles by (5, 5) after placement. Each fact is pinned once, in the
table: a change to the walk, the certificate, the pivot rule or the
projections re-pins it there, with the old and new values in CHANGES.md.
"""

import collections

import pytest

from dyop2d.baselines import gjk_distance, lin_canny_distance
from dyop2d.benchmark import MISMATCH_TOLERANCE
from dyop2d.dyop import dyop_distance
from helpers import REGIMES, _coords, boxes_apart, placed, regime_id


def _counts(result):
    return result.counters.vv_tests, result.counters.ve_tests, result.counters.ee_tests


@pytest.mark.parametrize("regime", REGIMES, ids=regime_id)
def test_regime_facts_are_pinned(regime):
    s = regime[1]
    sets = ("lincanny_fallbacks", "fallbacks_with_meeting_boxes", "dyop_misses", "overlapping_boxes", "gjk_unconverged")
    facts = {key: set() for key in sets}
    steps, solves = [], []
    for a, b, velocity in placed(*regime):
        label = f"{a.name}->{b.name}"
        walk, _ = lin_canny_distance(a, b)
        if "lincanny-fallback" in walk.flags:
            facts["lincanny_fallbacks"].add(label)
            if not boxes_apart(_coords(a), _coords(b)):
                facts["fallbacks_with_meeting_boxes"].add(label)
        dyop = dyop_distance(a, b, velocity)
        if abs(dyop.distance - s) > MISMATCH_TOLERANCE * s:
            facts["dyop_misses"].add(label)
        if "overlapping-boxes" in dyop.flags:
            facts["overlapping_boxes"].add(label)
        gjk = gjk_distance(a, b)
        if "gjk-unconverged" in gjk.flags:
            facts["gjk_unconverged"].add(label)
        steps.append(_counts(walk))
        solves.append(_counts(gjk))
    facts["lincanny_step_totals"] = tuple(map(sum, zip(*steps)))
    facts["lincanny_step_histogram"] = dict(collections.Counter(map(sum, steps)))
    facts["gjk_solve_totals"] = tuple(map(sum, zip(*solves)))
    facts["gjk_one_point"] = solves.count((1, 0, 0))
    expected = REGIMES[regime]
    assert {key: facts[key] for key in expected} == expected
