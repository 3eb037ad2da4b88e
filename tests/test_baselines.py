import math
import random

import pytest

from dyop2d.baselines import (
    FeaturePair,
    _walk_features,
    gjk_distance,
    lin_canny_distance,
    support,
)
from dyop2d.errors import DegenerateInput, Penetrating, ZeroDirection
from dyop2d.geometry import (
    Point2,
    TestCounters,
    Triangle,
    Vector2,
    brute_force_triangle_distance,
    vertex_feature,
)
from dyop2d.verify import random_separated_pair, random_triangle


def tri(a, b, c, name=None):
    return Triangle(Point2(*a), Point2(*b), Point2(*c), name)


def test_support_extremes():
    t = tri((0, 0), (1, 0), (0, 1))
    assert support(t, Vector2(1, 0)) == (1, Point2(1, 0))
    assert support(t, Vector2(0, 1)) == (2, Point2(0, 1))
    assert support(t, Vector2(-1, -1)) == (0, Point2(0, 0))


def test_support_tie_goes_to_lower_index():
    t = tri((0, 0), (1, 0), (0, 1))
    # direction (1, 1): vertices 1 and 2 both score 1; index 1 wins
    assert support(t, Vector2(1, 1))[0] == 1


def test_support_zero_direction():
    with pytest.raises(ZeroDirection):
        support(tri((0, 0), (1, 0), (0, 1)), Vector2(0, 0))


def test_gjk_disjoint_pair_matches_oracle():
    a = tri((0, 0), (1, 0), (0, 1))
    r = gjk_distance(a, a.translated(3, 0))
    assert r.distance == pytest.approx(2.0, abs=1e-9)


def test_gjk_overlapping_is_zero():
    a = tri((0, 0), (2, 0), (0, 2))
    b = tri((1, 0.2), (3, 0.2), (1, 2.2))
    r = gjk_distance(a, b)
    assert r.distance == 0.0
    assert r.point_a == r.point_b


def test_gjk_identical_is_zero():
    a = tri((0, 0), (1, 0), (0, 1))
    assert gjk_distance(a, a).distance == 0.0


def test_gjk_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        gjk_distance(tri((0, 0), (1, 0), (2, 0)), tri((5, 0), (6, 0), (5, 1)))


def test_gjk_refuses_overflowing_support_point():
    # The centroids are about 6.7e307 apart, but the first support point,
    # A's vertex at x = -1e308 minus B's vertex at x = 1e308, overflows.
    a = tri((-1e308, 0), (0, 0), (0, 1))
    b = tri((1e308, 2), (1, 2), (1, 3))
    with pytest.raises(ValueError) as info:
        gjk_distance(a, b)
    assert type(info.value) is ValueError


def test_gjk_closest_points_realize_distance():
    rng = random.Random(20)
    for _ in range(500):
        a, b, _ = random_separated_pair(rng)
        r = gjk_distance(a, b)
        gap = math.hypot(r.point_a.x - r.point_b.x, r.point_a.y - r.point_b.y)
        assert abs(gap - r.distance) <= 1e-9


def test_gjk_oracle_equivalence_random():
    rng = random.Random(21)
    for _ in range(2000):
        a, b, _ = random_separated_pair(rng)
        exact = brute_force_triangle_distance(a, b).distance
        assert abs(gjk_distance(a, b).distance - exact) <= 1e-7


def test_gjk_convergence_flag_rate():
    rng = random.Random(22)
    n = 2000
    converged = 0
    for _ in range(n):
        a, b, _ = random_separated_pair(rng)
        if "gjk-unconverged" not in gjk_distance(a, b).flags:
            converged += 1
    assert converged / n >= 0.999


def test_gjk_counts_simplex_solves():
    a = tri((0, 0), (1, 0), (0, 1))
    r = gjk_distance(a, a.translated(3, 0))
    assert r.counters.total() > 0


def test_lin_canny_disjoint_pair_matches_oracle():
    a = tri((0, 0), (1, 0), (0, 1))
    result, witness = lin_canny_distance(a, a.translated(3, 0))
    assert result.distance == pytest.approx(2.0, abs=1e-9)
    assert witness == FeaturePair(result.feature_a, result.feature_b)


def test_lin_canny_seeded_repeat_is_one_pass():
    a = tri((0, 0), (1, 0), (0, 1))
    b = a.translated(3, 0)
    first, witness = lin_canny_distance(a, b)
    second, witness2 = lin_canny_distance(a, b, seed=witness)
    assert second.distance == first.distance
    assert witness2 == witness
    assert second.counters.total() == 1


def test_lin_canny_overlap_raises():
    a = tri((0, 0), (2, 0), (0, 2))
    with pytest.raises(Penetrating):
        lin_canny_distance(a, a)
    # boundary contact also counts as penetration for the walk
    with pytest.raises(Penetrating):
        lin_canny_distance(a, tri((2, 0), (4, 0), (3, 1)))


def test_lin_canny_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        lin_canny_distance(tri((0, 0), (1, 0), (2, 0)), tri((5, 0), (6, 0), (5, 1)))


def test_lin_canny_oracle_equivalence_random():
    rng = random.Random(23)
    for _ in range(2000):
        a, b, _ = random_separated_pair(rng)
        exact = brute_force_triangle_distance(a, b).distance
        assert abs(lin_canny_distance(a, b)[0].distance - exact) <= 1e-7


def test_lin_canny_counters_populated():
    rng = random.Random(24)
    for _ in range(100):
        a, b, _ = random_separated_pair(rng)
        result, _ = lin_canny_distance(a, b)
        assert result.counters.total() >= 1


def test_walk_strictly_decreases_and_never_revisits():
    rng = random.Random(25)
    for _ in range(500):
        a, b, _ = random_separated_pair(rng)
        trace = []
        _walk_features(a, b, vertex_feature(0), vertex_feature(0), TestCounters(), trace)
        pairs = [(fa, fb) for fa, fb, _ in trace]
        assert len(pairs) == len(set(pairs))
        distances = [d for _, _, d in trace]
        # every step strictly decreases, except a final one that triggers
        # termination into the exhaustive fallback
        violations = [k for k in range(1, len(distances)) if distances[k] >= distances[k - 1]]
        assert violations in ([], [len(distances) - 1])


def test_lin_canny_fallback_is_flagged_and_answers_as_the_oracle():
    rng = random.Random(26)
    aborted = 0
    for _ in range(300):
        a, b, _ = random_separated_pair(rng)
        trace, walk_counters = [], TestCounters()
        walked = _walk_features(a, b, vertex_feature(0), vertex_feature(0), walk_counters, trace)
        result, witness = lin_canny_distance(a, b)
        if walked is not None:
            assert result.flags == ()
            continue
        if len(trace) < 2 or trace[-1][2] < trace[-2][2]:
            continue  # aborted on a revisit, which the trace does not record
        aborted += 1
        exact = brute_force_triangle_distance(a, b)
        assert result.flags == ("lincanny-fallback",)
        fields = ("distance", "point_a", "point_b", "feature_a", "feature_b")
        assert [getattr(result, f) for f in fields] == [getattr(exact, f) for f in fields]
        assert witness == FeaturePair(exact.feature_a, exact.feature_b)
        # The walk's own evaluations plus the sweep's nine edge pairs.
        walk_counters.ee_tests += 9
        assert result.counters == walk_counters
    assert aborted > 0


def test_lin_canny_seeded_repeat_after_fallback_is_one_pass_without_flag():
    rng = random.Random(27)
    fallbacks = 0
    for _ in range(300):
        a, b, _ = random_separated_pair(rng)
        first, witness = lin_canny_distance(a, b)
        fallbacks += "lincanny-fallback" in first.flags
        second, witness2 = lin_canny_distance(a, b, seed=witness)
        assert second.flags == ()
        assert second.counters.total() == 1
        assert second.distance == first.distance
        assert witness2 == witness
    assert fallbacks > 0


def test_seeded_random_pairs_are_deterministic():
    pairs1 = [random_separated_pair(random.Random(99)) for _ in range(1)]
    pairs2 = [random_separated_pair(random.Random(99)) for _ in range(1)]
    assert pairs1 == pairs2
    assert not random_triangle(random.Random(0)).is_degenerate
