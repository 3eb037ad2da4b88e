import math
import random

import pytest

from dyop2d.benchmark import default_scene, place_pair
from dyop2d.dyop import (
    MovementAxis,
    build_internal_aabb,
    compute_dyop,
    dominant_axis,
    dyop_distance,
    select_candidates,
)
from dyop2d.errors import DegenerateInput, ZeroVelocity
from dyop2d.geometry import (
    DistanceResult,
    FeatureKind,
    Point2,
    TestCounters,
    Triangle,
    Vector2,
    _classify_edge_point,
    _segment_segment,
    brute_force_triangle_distance,
    edge_index_joining,
)
from dyop2d.verify import random_separated_pair
from test_equivalence import OVERFLOW_SCALES, _grid_triangle, _value_or_error


def tri(a, b, c, name=None):
    return Triangle(Point2(*a), Point2(*b), Point2(*c), name)


def test_dominant_axis():
    assert dominant_axis(Vector2(1, 0.2)) is MovementAxis.X
    assert dominant_axis(Vector2(0.1, -5)) is MovementAxis.Y
    assert dominant_axis(Vector2(1, 1)) is MovementAxis.X  # tie goes to X
    with pytest.raises(ZeroVelocity):
        dominant_axis(Vector2(0.0, 0.0))


def test_nearest_facing_vertices_x():
    # The gap box runs between the facing vertices along the axis.
    a = tri((0, 0), (1, 2), (2, 1))
    b = tri((4, 0), (5, 2), (6, 1))
    ia = build_internal_aabb(a, b, MovementAxis.X)
    assert ia.leading == 1
    assert ia.box.min.x == 2  # trailing side: maximal x
    assert ia.box.max.x == 4  # leading side: minimal x
    assert build_internal_aabb(b, a, MovementAxis.X).leading == 0


def test_nearest_facing_vertices_y_symmetry():
    low = tri((0, 0), (1, 0), (0, 1))
    high = low.translated(0, 5)
    ia = build_internal_aabb(low, high, MovementAxis.Y)
    assert ia.leading == 1
    assert (ia.box.min.y, ia.box.max.y) == (1, 5)
    assert build_internal_aabb(high, low, MovementAxis.Y).leading == 0


def test_build_internal_aabb_leading_tie_rule():
    # Equal maxima: the greater minimum leads.
    a = tri((0, 0), (2, 0), (0, 1))
    b = tri((1, 3), (2, 3), (1, 4))
    assert build_internal_aabb(a, b, MovementAxis.X).leading == 1
    assert build_internal_aabb(b, a, MovementAxis.X).leading == 0
    # Equal extents: the second argument leads, whatever the order.
    c = a.translated(0, 5)
    assert build_internal_aabb(a, c, MovementAxis.X).leading == 1
    assert build_internal_aabb(c, a, MovementAxis.X).leading == 1


def test_build_internal_aabb_worked_example():
    # gap interval worked by hand: A trails with max x 2, B leads with min x 5;
    # B has the greater y-extent, so the y interval runs from A's max (4) to
    # B's min (0), inverted, and clamps to its midpoint 2.
    a = tri((0, 0), (2, 3), (1, 4))
    b = tri((5, 1), (7, 0), (6, 5))
    ia = build_internal_aabb(a, b, MovementAxis.X)
    assert (ia.box.min.x, ia.box.max.x) == (2, 5)
    assert (ia.box.min.y, ia.box.max.y) == (2.0, 2.0)
    assert ia.leading == 1
    assert ia.higher == 1
    assert not ia.degenerate_gap


def test_build_internal_aabb_overlapping_extents_clamps():
    a = tri((0, 0), (2, 0), (1, 1))
    b = tri((1, 3), (3, 3), (2, 4))  # x-extents overlap
    ia = build_internal_aabb(a, b, MovementAxis.X)
    assert ia.degenerate_gap
    assert ia.box.min.x == ia.box.max.x


def test_build_internal_aabb_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        build_internal_aabb(
            tri((0, 0), (1, 0), (2, 0)), tri((5, 0), (6, 0), (5, 1)), MovementAxis.X
        )


def test_build_internal_aabb_diagonal_gap_both_axes():
    # diagonal separation: both the movement and perpendicular intervals are
    # proper gaps, so the box spans the four facing extremes directly
    a = tri((0, 4), (2, 6), (1, 7))
    b = tri((5, 0), (7, 1), (6, 2))
    ia = build_internal_aabb(a, b, MovementAxis.X)
    assert (ia.box.min.x, ia.box.max.x) == (2, 5)
    assert (ia.box.min.y, ia.box.max.y) == (2, 4)
    assert not ia.degenerate_gap
    assert compute_dyop(ia).point == Point2(3.5, 3.0)


def test_compute_dyop_trivial_boxes():
    from dyop2d.dyop import InternalAabb
    from dyop2d.geometry import Aabb

    box = InternalAabb(Aabb(Point2(0, 0), Point2(2, 4)), 1, 0, False)
    assert compute_dyop(box).point == Point2(1, 2)
    flat = InternalAabb(Aabb(Point2(3, 5), Point2(3, 5)), 1, 0, True)
    assert compute_dyop(flat).point == Point2(3, 5)


def test_compute_dyop_midpoint():
    a = tri((0, 0), (1, 1), (0, 2))
    b = tri((2, 2), (4, 2), (3, 4))
    ia = build_internal_aabb(a, b, MovementAxis.X)
    p = compute_dyop(ia).point
    assert p.x == pytest.approx(0.5 * (ia.box.min.x + ia.box.max.x), abs=0)
    assert p.y == pytest.approx(0.5 * (ia.box.min.y + ia.box.max.y), abs=0)


def test_compute_dyop_midpoint_identity_bit_exact():
    rng = random.Random(10)
    for _ in range(300):
        a, b, vel = random_separated_pair(rng)
        ia = build_internal_aabb(a, b, dominant_axis(vel))
        p = compute_dyop(ia).point
        assert 2.0 * p.x == ia.box.min.x + ia.box.max.x
        assert 2.0 * p.y == ia.box.min.y + ia.box.max.y


def test_select_candidates_worked_example():
    # distances from (2, 0.5): vertex 1 is nearest, vertices 0 and 2 tie at
    # sqrt(4.25) and the tie breaks to index 0
    t = tri((0, 0), (1, 0), (0, 1))
    from dyop2d.dyop import DyopPoint

    verts, edge = select_candidates(t, DyopPoint(Point2(2, 0.5)))
    assert verts == (1, 0)
    assert edge == 0


def test_select_candidates_equidistant_tie():
    t = tri((0, 0), (2, 0), (1, math.sqrt(3)))
    from dyop2d.dyop import DyopPoint

    centroid = Point2((t.v0.x + t.v1.x + t.v2.x) / 3.0, (t.v0.y + t.v1.y + t.v2.y) / 3.0)
    verts, edge = select_candidates(t, DyopPoint(centroid))
    assert verts == (0, 1)
    assert edge == 0


def test_select_candidates_arity_random():
    rng = random.Random(11)
    from dyop2d.dyop import DyopPoint
    from dyop2d.verify import random_triangle

    for _ in range(400):
        t = random_triangle(rng)
        pivot = DyopPoint(Point2(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        verts, edge = select_candidates(t, pivot)
        assert len(set(verts)) == 2
        assert edge in (0, 1, 2)
        assert edge_index_joining(*verts) == edge


def test_dyop_distance_shifted_pair():
    a = tri((0, 0), (1, 0), (0, 1))
    b = a.translated(3, 0)
    r = dyop_distance(a, b, Vector2(1, 0))
    assert r.distance == pytest.approx(2.0, abs=1e-12)
    assert (r.counters.vv_tests, r.counters.ve_tests, r.counters.ee_tests) == (0, 0, 1)
    assert r.flags == ()


def test_dyop_distance_tie_keeps_earliest_endpoint_projection():
    # Parallel candidate edges 1 apart: A's edge 2 runs (2, 0) -> (0, 0) and
    # B's edge 0 runs (0.5, 1) -> (2.5, 1). A's first endpoint and B's first
    # endpoint both project at distance 1; A's comes first in (a, b, c, d).
    a = tri((0, 0), (2, 0), (1, -1))
    b = tri((0.5, 1), (2.5, 1), (1.5, 2))
    r = dyop_distance(a, b, Vector2(0, 1))
    assert r.distance == 1.0
    assert (r.point_a, r.point_b) == (Point2(2, 0), Point2(2, 1))
    assert (r.feature_a.kind, r.feature_a.index) == (FeatureKind.VERTEX, 2)
    assert (r.feature_b.kind, r.feature_b.index) == (FeatureKind.EDGE, 0)


def test_dyop_distance_role_symmetry():
    a = tri((0, 0), (1, 0), (0, 1))
    b = a.translated(3, 0)
    r1 = dyop_distance(a, b, Vector2(1, 0))
    r2 = dyop_distance(b, a, Vector2(-1, 0))
    assert abs(r1.distance - r2.distance) <= 1e-12


def test_dyop_distance_role_symmetry_random():
    rng = random.Random(17)
    for _ in range(300):
        a, b, vel = random_separated_pair(rng)
        r1 = dyop_distance(a, b, vel)
        r2 = dyop_distance(b, a, Vector2(-vel.dx, -vel.dy))
        assert abs(r1.distance - r2.distance) <= 1e-12


def test_dyop_distance_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        dyop_distance(
            tri((0, 0), (1, 0), (2, 0)), tri((5, 0), (6, 0), (5, 1)), Vector2(1, 0)
        )


def test_dyop_distance_refuses_overflowing_pivot():
    # The gap box runs from x = 1.65e308 to 1.7e308, so its midpoint overflows.
    a = tri((1.6e308, 0), (1.65e308, 0), (1.6e308, 1))
    b = tri((1.7e308, 0), (1.75e308, 0), (1.7e308, 1))
    with pytest.raises(ValueError) as info:
        dyop_distance(a, b, Vector2(1, 0))
    assert type(info.value) is ValueError


def test_dyop_distance_flags_overlapping_boxes():
    a = tri((0, 0), (2, 0), (1, 1))
    b = tri((1, 3), (3, 3), (2, 4))
    r = dyop_distance(a, b, Vector2(1, 0))
    assert "overlapping-boxes" in r.flags
    # still a total function with a conservative answer
    assert r.distance >= brute_force_triangle_distance(a, b).distance - 1e-12


def test_dyop_counters_always_one_ee_test():
    rng = random.Random(12)
    for _ in range(300):
        a, b, vel = random_separated_pair(rng)
        r = dyop_distance(a, b, vel)
        assert (r.counters.vv_tests, r.counters.ve_tests, r.counters.ee_tests) == (0, 0, 1)


def test_dyop_conservative_bound_random():
    rng = random.Random(13)
    for _ in range(2000):
        a, b, vel = random_separated_pair(rng)
        pruned = dyop_distance(a, b, vel).distance
        exact = brute_force_triangle_distance(a, b).distance
        assert pruned >= exact - 1e-12


def _defining_vertices(feature):
    if feature.kind is FeatureKind.VERTEX:
        return {feature.index}
    return {feature.index, (feature.index + 1) % 3}


def test_dyop_exact_when_witness_survives_pruning():
    rng = random.Random(14)
    applicable = 0
    for _ in range(1500):
        a, b, vel = random_separated_pair(rng)
        oracle = brute_force_triangle_distance(a, b)
        pivot = compute_dyop(build_internal_aabb(a, b, dominant_axis(vel)))
        cand_a, _ = select_candidates(a, pivot)
        cand_b, _ = select_candidates(b, pivot)
        if _defining_vertices(oracle.feature_a) <= set(cand_a) and _defining_vertices(
            oracle.feature_b
        ) <= set(cand_b):
            applicable += 1
            pruned = dyop_distance(a, b, vel).distance
            assert abs(pruned - oracle.distance) <= 1e-9
    assert applicable > 500  # the condition must actually trigger


def test_dyop_translation_invariance():
    rng = random.Random(15)
    for _ in range(400):
        a, b, vel = random_separated_pair(rng)
        d1 = dyop_distance(a, b, vel).distance
        dx, dy = rng.uniform(-30, 30), rng.uniform(-30, 30)
        d2 = dyop_distance(a.translated(dx, dy), b.translated(dx, dy), vel).distance
        assert abs(d1 - d2) <= 1e-9


def test_dyop_winning_features_stable_under_scaling():
    rng = random.Random(16)
    for _ in range(400):
        a, b, vel = random_separated_pair(rng)
        r = dyop_distance(a, b, vel)
        for s in (0.5, 2.0, 4.0):
            rs = dyop_distance(a.scaled(s), b.scaled(s), vel)
            assert (rs.feature_a, rs.feature_b) == (r.feature_a, r.feature_b)


def _dyop_by_stages(a, b, velocity):
    """``dyop_distance`` as the chain of its public stages."""
    iaabb = build_internal_aabb(a, b, dominant_axis(velocity))
    pivot = compute_dyop(iaabb)
    _, edge_a = select_candidates(a, pivot)
    _, edge_b = select_candidates(b, pivot)
    ea, eb = a.edge(edge_a), b.edge(edge_b)
    d, pax, pay, pbx, pby, t_a, t_b = _segment_segment(
        ea.a.x, ea.a.y, ea.b.x, ea.b.y, eb.a.x, eb.a.y, eb.b.x, eb.b.y
    )
    return DistanceResult(
        d,
        Point2(pax, pay),
        Point2(pbx, pby),
        _classify_edge_point(edge_a, t_a),
        _classify_edge_point(edge_b, t_b),
        TestCounters(0, 0, 1),
        ("overlapping-boxes",) if iaabb.degenerate_gap else (),
    )


def _stage_cases():
    scene = default_scene()
    n = len(scene.objects)
    for i in range(n):
        for j in range(n):
            if i != j:
                yield place_pair(scene, (i, j))
    rng = random.Random(17)
    for _ in range(2000):
        yield random_separated_pair(rng)
    for _ in range(2000):
        # Ties, touching, overlapping and degenerate triangles, zero velocities.
        velocity = Vector2(rng.randint(-2, 2), rng.randint(-2, 2))
        yield _grid_triangle(rng), _grid_triangle(rng), velocity
    for scale, shift in OVERFLOW_SCALES:
        for _ in range(100):
            a, b, velocity = random_separated_pair(rng)
            yield a.scaled(scale).translated(shift, 0.0), b.scaled(scale).translated(shift, 0.0), velocity


def test_dyop_distance_is_the_chain_of_its_stages():
    # Distance, witnesses, features, counters and flags bit for bit, or the
    # same exception and message. Only the refusal of a degenerate triangle
    # names the entry point that refused it.
    seen = set()
    for a, b, velocity in _stage_cases():
        query = _value_or_error(dyop_distance, a, b, velocity)
        staged = _value_or_error(_dyop_by_stages, a, b, velocity)
        if query[:2] == ("raised", DegenerateInput):
            assert query[2] == "pruned distance requires non-degenerate triangles"
            assert staged == ("raised", DegenerateInput, "internal box requires non-degenerate triangles")
        else:
            assert query == staged, (a, b, velocity)
        seen.add(query[1] if query[0] == "raised" else "overlapping-boxes" in query[1][-1])
    assert seen >= {ZeroVelocity, DegenerateInput, ValueError, True, False}
