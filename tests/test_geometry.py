import math
import random

import pytest

from dyop2d.geometry import (
    Aabb,
    FeatureId,
    FeatureKind,
    Point2,
    Segment,
    Triangle,
    _EDGE_FEATURES,
    _VERTEX_FEATURES,
    brute_force_triangle_distance,
    edge_feature,
    edge_index_joining,
    point_segment_distance,
    segment_segment_distance,
    triangles_overlap,
    vertex_feature,
)


def tri(a, b, c, name=None):
    return Triangle(Point2(*a), Point2(*b), Point2(*c), name)


def seg(a, b):
    return Segment(Point2(*a), Point2(*b))


def random_tri(rng, span=1.0):
    while True:
        t = tri(
            (rng.uniform(0, span), rng.uniform(0, span)),
            (rng.uniform(0, span), rng.uniform(0, span)),
            (rng.uniform(0, span), rng.uniform(0, span)),
        )
        if not t.is_degenerate:
            return t


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, float("inf"))


def test_triangle_normalizes_to_ccw():
    cw = tri((0, 0), (0, 1), (1, 0))
    assert cw.signed_area > 0
    assert cw.v1 == Point2(1, 0)
    assert cw.v2 == Point2(0, 1)
    ccw = tri((0, 0), (1, 0), (0, 1))
    assert ccw.v1 == Point2(1, 0)


def test_triangle_degenerate_flag():
    assert tri((0, 0), (1, 0), (2, 0)).is_degenerate
    assert tri((1, 1), (1, 1), (1, 1)).is_degenerate
    assert not tri((0, 0), (1, 0), (0, 1)).is_degenerate


def test_aabb_rejects_inverted():
    with pytest.raises(ValueError):
        Aabb(Point2(1, 0), Point2(0, 1))


def test_edge_index_joining():
    assert edge_index_joining(0, 1) == 0
    assert edge_index_joining(1, 0) == 0
    assert edge_index_joining(1, 2) == 1
    assert edge_index_joining(2, 0) == 2
    assert edge_index_joining(0, 2) == 2
    with pytest.raises(ValueError):
        edge_index_joining(1, 1)


def test_feature_index_out_of_range_is_refused():
    for i in (-1, 3):
        for make in (vertex_feature, edge_feature):
            with pytest.raises(ValueError):
                make(i)
        for kind in FeatureKind:
            with pytest.raises(ValueError):
                FeatureId(kind, i)
    assert _VERTEX_FEATURES == tuple(vertex_feature(i) for i in range(3))
    assert _EDGE_FEATURES == tuple(edge_feature(i) for i in range(3))


def test_point_segment_distance_foot_inside():
    d, closest = point_segment_distance(Point2(0, 1), seg((-1, 0), (1, 0)))
    assert d == pytest.approx(1.0, abs=1e-12)
    assert closest == Point2(0, 0)


def test_point_segment_distance_clamped():
    d, closest = point_segment_distance(Point2(3, 0), seg((0, 0), (1, 0)))
    assert d == pytest.approx(2.0, abs=1e-12)
    assert closest == Point2(1, 0)


def test_point_segment_distance_degenerate_segment():
    d, closest = point_segment_distance(Point2(2, 2), seg((0, 0), (0, 0)))
    assert d == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert closest == Point2(0, 0)


def test_segment_segment_parallel():
    d, _, _ = segment_segment_distance(seg((0, 0), (1, 0)), seg((0, 2), (1, 2)))
    assert d == pytest.approx(2.0, abs=1e-12)


def test_segment_segment_crossing_is_exactly_zero():
    d, pa, pb = segment_segment_distance(seg((0, 0), (2, 2)), seg((0, 2), (2, 0)))
    assert d == 0.0
    assert pa == pb


def test_segment_segment_endpoint_endpoint():
    # endpoint-to-endpoint case worked by hand
    d, pa, pb = segment_segment_distance(seg((0, 0), (1, 0)), seg((2, 1), (3, 1)))
    assert d == pytest.approx(math.sqrt(2), abs=1e-12)
    assert pa == Point2(1, 0)
    assert pb == Point2(2, 1)


def test_segment_segment_bounded_by_endpoint_projections():
    rng = random.Random(42)
    for _ in range(500):
        s1 = seg(
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        s2 = seg(
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        d, _, _ = segment_segment_distance(s1, s2)
        for p in (s1.a, s1.b):
            assert d <= point_segment_distance(p, s2)[0] + 1e-12
        for p in (s2.a, s2.b):
            assert d <= point_segment_distance(p, s1)[0] + 1e-12


def test_triangles_overlap_cases():
    a = tri((0, 0), (2, 0), (0, 2))
    assert not triangles_overlap(a, a.translated(10, 0))
    assert triangles_overlap(a, a)
    assert triangles_overlap(tri((0, 0), (4, 0), (0, 4)), tri((1, 1), (2, 1), (1, 2)))
    # boundary contact counts
    assert triangles_overlap(a, tri((2, 0), (4, 0), (3, 1)))


def test_overlap_degenerate_collinear_but_disjoint():
    flat = tri((0, 0), (1, 0), (2, 0))
    other = tri((10, 0), (11, 0), (10, 1))
    assert not triangles_overlap(flat, other)
    assert brute_force_triangle_distance(flat, other).distance == pytest.approx(8.0, abs=1e-12)


def test_brute_force_shifted_pair():
    a = tri((0, 0), (1, 0), (0, 1))
    b = a.translated(3, 0)
    r = brute_force_triangle_distance(a, b)
    assert r.distance == pytest.approx(2.0, abs=1e-12)
    assert r.point_a == Point2(1, 0)
    assert r.point_b == Point2(3, 0)
    assert r.feature_a.kind is FeatureKind.VERTEX and r.feature_a.index == 1
    assert r.feature_b.kind is FeatureKind.VERTEX and r.feature_b.index == 0
    assert (r.counters.vv_tests, r.counters.ve_tests, r.counters.ee_tests) == (0, 0, 9)


def test_brute_force_overlap_is_zero():
    a = tri((0, 0), (1, 0), (0, 1))
    r = brute_force_triangle_distance(a, a)
    assert r.distance == 0.0
    assert r.point_a == r.point_b


def test_brute_force_diagonal_pair():
    # frozen from an independent dense-sampling sweep over all nine edge pairs
    r = brute_force_triangle_distance(
        tri((0, 0), (1, 0), (0, 1)), tri((2, 2), (3, 2), (2, 3))
    )
    assert r.distance == pytest.approx(2.1213203435596424, abs=1e-12)
    assert r.point_a.x == pytest.approx(0.5, abs=1e-12)
    assert r.point_a.y == pytest.approx(0.5, abs=1e-12)
    assert r.point_b == Point2(2, 2)


def test_brute_force_vertex_vertex_golden():
    # frozen from an independent dense-sampling sweep
    r = brute_force_triangle_distance(
        tri((0, 0), (2, 0), (1, 1.5)), tri((4, 1), (6, 1), (5, 3))
    )
    assert r.distance == pytest.approx(math.sqrt(5), abs=1e-12)
    assert r.point_a == Point2(2, 0)
    assert r.point_b == Point2(4, 1)


def _point_on_triangle(t, p, tol=1e-9):
    if not t.is_degenerate:
        inside = all(
            (t.edge(i).b.x - t.edge(i).a.x) * (p.y - t.edge(i).a.y)
            - (t.edge(i).b.y - t.edge(i).a.y) * (p.x - t.edge(i).a.x)
            >= -tol
            for i in range(3)
        )
        if inside:
            return True
    return any(point_segment_distance(p, t.edge(i))[0] <= tol for i in range(3))


def test_brute_force_symmetry_random():
    rng = random.Random(1)
    for _ in range(800):
        a, b = random_tri(rng), random_tri(rng)
        d1 = brute_force_triangle_distance(a, b).distance
        d2 = brute_force_triangle_distance(b, a).distance
        assert abs(d1 - d2) <= 1e-12


def test_brute_force_translation_invariance_random():
    rng = random.Random(2)
    for _ in range(500):
        a, b = random_tri(rng), random_tri(rng, span=3.0)
        d1 = brute_force_triangle_distance(a, b).distance
        dx, dy = rng.uniform(-100, 100), rng.uniform(-100, 100)
        d2 = brute_force_triangle_distance(a.translated(dx, dy), b.translated(dx, dy)).distance
        assert abs(d1 - d2) <= 1e-9


def test_brute_force_scaling_covariance_random():
    rng = random.Random(3)
    for _ in range(500):
        a, b = random_tri(rng), random_tri(rng, span=3.0)
        d1 = brute_force_triangle_distance(a, b).distance
        s = rng.uniform(0.1, 50.0)
        d2 = brute_force_triangle_distance(a.scaled(s), b.scaled(s)).distance
        if d1 == 0.0:
            assert d2 == 0.0
        else:
            assert abs(d2 - s * d1) / (s * d1) <= 1e-9


def test_brute_force_zero_iff_contact_random():
    rng = random.Random(4)
    for _ in range(800):
        a, b = random_tri(rng), random_tri(rng)
        r = brute_force_triangle_distance(a, b)
        assert (r.distance == 0.0) == triangles_overlap(a, b)


def test_brute_force_closest_point_consistency_random():
    rng = random.Random(5)
    for _ in range(500):
        a, b = random_tri(rng), random_tri(rng, span=2.0)
        r = brute_force_triangle_distance(a, b)
        gap = math.hypot(r.point_a.x - r.point_b.x, r.point_a.y - r.point_b.y)
        assert abs(gap - r.distance) <= 1e-9
        assert _point_on_triangle(a, r.point_a)
        assert _point_on_triangle(b, r.point_b)
