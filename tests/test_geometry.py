import dataclasses
import math
import random

import pytest

from dyop2d.baselines import gjk_distance, lin_canny_distance
from dyop2d.dyop import dyop_distance
from dyop2d.errors import DegenerateInput
from dyop2d.geometry import (
    DEGENERATE_AREA,
    Aabb,
    DistanceResult,
    FeatureId,
    FeatureKind,
    Point2,
    Segment,
    TestCounters,
    Triangle,
    Vector2,
    _EDGE_FEATURES,
    _VERTEX_FEATURES,
    _answer,
    _intersect,
    _is_degenerate,
    _param_on,
    _project,
    _segment_segment,
    brute_force_triangle_distance,
    edge_feature,
    point_segment_distance,
    segment_segment_distance,
    triangles_overlap,
    vertex_feature,
)
from dyop2d.verify import random_separated_pair
from test_equivalence import OVERFLOW_SCALES, _value_or_error


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


def _threshold_triangles():
    # Signed area 0.5 * h: h = 2e-12 puts it exactly at DEGENERATE_AREA.
    h = 2 * DEGENERATE_AREA
    return [
        tri((0, 0), (1, 0), (0, math.nextafter(h, 0.0))),
        tri((0, 0), (1, 0), (0, h)),
        tri((0, 0), (1, 0), (0, math.nextafter(h, 1.0))),
    ]


def _degeneracy_cases():
    rng = random.Random(41)
    cases = [random_tri(rng) for _ in range(200)]
    cases += [tri((0, 0), (0, 1), (1, 0)), tri((0, 0), (1, 0), (2, 0)), tri((1, 1), (1, 1), (1, 1))]
    for t in _threshold_triangles():
        # Each at-threshold triangle clockwise too, and shifted off the origin.
        clockwise = tri((t.v0.x, t.v0.y), (t.v2.x, t.v2.y), (t.v1.x, t.v1.y))
        cases += [t, clockwise, t.translated(3.0, -5.0)]
    return cases


def test_triangle_threshold_areas():
    below, at, above = _threshold_triangles()
    assert below.signed_area < DEGENERATE_AREA == at.signed_area < above.signed_area
    assert below.is_degenerate and at.is_degenerate and not above.is_degenerate


def test_degeneracy_flag_equals_the_area_test_on_normalized_vertices():
    rng = random.Random(42)
    for t in _degeneracy_cases():
        rebuilt = [
            t,
            dataclasses.replace(t),
            dataclasses.replace(t, v1=t.v2, v2=t.v1),
            dataclasses.replace(t, v2=t.v0),
            t.translated(rng.uniform(-10, 10), rng.uniform(-10, 10)),
            t.scaled(rng.uniform(0.5, 2.0)),
            t.scaled(1e-7),
        ]
        for u in rebuilt:
            v0, v1, v2 = u.vertices
            expected = _is_degenerate(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)
            assert u.signed_area >= 0.0
            assert u.is_degenerate is expected


def test_degeneracy_flag_is_not_a_field():
    t = tri((0, 0), (1, 0), (0, 1))
    assert [f.name for f in dataclasses.fields(t)] == ["v0", "v1", "v2", "name"]
    assert t == tri((0, 0), (1, 0), (0, 1)) and hash(t) == hash(tri((0, 0), (1, 0), (0, 1)))
    assert "_degenerate" not in repr(t)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t._degenerate = True


_REFUSALS = [
    (
        lambda a, b: dyop_distance(a, b, Vector2(1, 0)),
        "pruned distance requires non-degenerate triangles",
    ),
    (gjk_distance, "gjk requires non-degenerate triangles"),
    (lin_canny_distance, "feature walk requires non-degenerate triangles"),
]


@pytest.mark.parametrize("query, message", _REFUSALS)
def test_algorithms_refuse_degenerate_triangles_by_the_cached_flag(query, message):
    good = tri((5, 0), (6, 0), (5, 1))
    below, at, above = _threshold_triangles()
    for bad in (below, at, tri((0, 0), (1, 0), (2, 0))):
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(DegenerateInput) as info:
                query(a, b)
            assert str(info.value) == message
    query(above, good)


def _constructed(d, pax, pay, pbx, pby, fa, fb, counters, flags=()):
    return DistanceResult(d, Point2(pax, pay), Point2(pbx, pby), fa, fb, counters, flags)


_ANSWER_ARGS = [
    (1.5, 0.0, -0.0, 1.5, 0.0, _VERTEX_FEATURES[0], _EDGE_FEATURES[2], TestCounters(0, 0, 1)),
    (0.0, 1, 2, 1, 2, _EDGE_FEATURES[1], _VERTEX_FEATURES[2], TestCounters(2, 3, 4), ("flag",)),
]


def _hash_outcome(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("args", _ANSWER_ARGS)
def test_answer_matches_the_constructed_result(args):
    built, expected = _answer(*args), _constructed(*args)
    assert type(built) is DistanceResult and type(built.point_a) is Point2
    assert built == expected and repr(built) == repr(expected)
    # The mutable TestCounters field makes both unhashable, with the same error.
    assert _hash_outcome(built) == _hash_outcome(expected)
    assert built.point_a == expected.point_a and hash(built.point_a) == hash(expected.point_a)
    assert built.point_b == expected.point_b and hash(built.point_b) == hash(expected.point_b)
    assert dataclasses.astuple(built) == dataclasses.astuple(expected)
    assert vars(built).keys() == vars(expected).keys()


def test_answer_is_frozen_and_replaceable():
    built = _answer(*_ANSWER_ARGS[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.distance = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.point_a.x = 2.0
    point_b = dataclasses.replace(built.point_b, y=1.0)
    moved = dataclasses.replace(built, distance=2.0, point_b=point_b)
    assert moved == _constructed(2.0, 0.0, -0.0, 1.5, 1.0, *_ANSWER_ARGS[0][5:])
    assert built.distance == 1.5 and built.point_b == Point2(1.5, 0.0)
    with pytest.raises(ValueError, match="non-finite coordinate: inf"):
        dataclasses.replace(built.point_a, x=math.inf)


def _point_error(pax, pay, pbx, pby):
    with pytest.raises(ValueError) as info:
        Point2(pax, pay)
        Point2(pbx, pby)
    return str(info.value)


@pytest.mark.parametrize(
    "coords",
    [
        (math.nan, 0.0, 1.0, 1.0),
        (0.0, math.inf, 1.0, 1.0),
        (0.0, 0.0, -math.inf, 1.0),
        (0.0, 0.0, 1.0, math.nan),
        (math.inf, math.nan, -math.inf, 1.0),
        (0.0, -math.inf, math.nan, 1.0),
        (0.0, 0.0, math.inf, math.nan),
    ],
)
def test_answer_refuses_non_finite_witnesses_as_point2_does(coords):
    message = _point_error(*coords)
    with pytest.raises(ValueError) as info:
        _answer(1.0, *coords, _VERTEX_FEATURES[0], _VERTEX_FEATURES[0], TestCounters(0, 0, 0))
    assert type(info.value) is ValueError and str(info.value) == message


def test_aabb_rejects_inverted():
    with pytest.raises(ValueError):
        Aabb(Point2(1, 0), Point2(0, 1))


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


def _segment_segment_by_definition(ax, ay, bx, by, cx, cy, dx, dy):
    """``_segment_segment`` composed from its parts: the intersection test,
    else the four endpoint projections in (a, b, c, d) order, where only a
    strictly smaller distance replaces the best so far."""
    hit = _intersect(ax, ay, bx, by, cx, cy, dx, dy)
    if hit is not None:
        hx, hy = hit
        return 0.0, hx, hy, hx, hy, _param_on(ax, ay, bx, by, hx, hy), _param_on(cx, cy, dx, dy, hx, hy)
    d, qx, qy, t = _project(ax, ay, cx, cy, dx, dy)
    candidates = [(d, ax, ay, qx, qy, 0.0, t)]
    d, qx, qy, t = _project(bx, by, cx, cy, dx, dy)
    candidates.append((d, bx, by, qx, qy, 1.0, t))
    d, qx, qy, t = _project(cx, cy, ax, ay, bx, by)
    candidates.append((d, qx, qy, cx, cy, t, 0.0))
    d, qx, qy, t = _project(dx, dy, ax, ay, bx, by)
    candidates.append((d, qx, qy, dx, dy, t, 1.0))
    best = (math.inf, ax, ay, cx, cy, 0.0, 0.0)
    for candidate in candidates:
        if candidate[0] < best[0]:
            best = candidate
    return best


def _segment_cases():
    """Seeded (ax, ay, bx, by, cx, cy, dx, dy) inputs for the segment test."""
    rng = random.Random(13)
    for _ in range(3000):
        # Integer grid: ties, collinear, touching and crossing pairs.
        yield tuple(rng.randint(0, 3) for _ in range(8))
    for k in range(2000):
        # A zero-length segment on either side, or on both.
        c = [float(rng.randint(-2, 2)) if k % 2 else rng.uniform(-2.0, 2.0) for _ in range(8)]
        for start in rng.choice(((0,), (4,), (0, 4))):
            c[start + 2], c[start + 3] = c[start], c[start + 1]
        yield tuple(c)
    for _ in range(3000):
        yield tuple(rng.uniform(-2.0, 2.0) for _ in range(8))
    # Edges of the overflow-scale pairs, and of a copy of A shifted into it.
    for scale, shift in OVERFLOW_SCALES:
        for _ in range(40):
            a, b, _ = random_separated_pair(rng)
            a = a.scaled(scale).translated(shift, 0.0)
            b = b.scaled(scale).translated(shift, 0.0)
            for other in (b, a.translated(0.3 * scale, 0.0)):
                for i in range(3):
                    for j in range(3):
                        e, f = a.edge(i), other.edge(j)
                        yield e.a.x, e.a.y, e.b.x, e.b.y, f.a.x, f.a.y, f.b.x, f.b.y


def test_segment_segment_equals_its_definition():
    # All seven values, t1 and t2 included, bit for bit (the sign of zero
    # and int against float too), or the same exception and message.
    kinds = set()
    for args in _segment_cases():
        got = _value_or_error(_segment_segment, *args)
        assert got == _value_or_error(_segment_segment_by_definition, *args), args
        kinds.add("raised" if got[0] == "raised" else "contact" if got[1][0] == "0.0" else "apart")
    assert kinds == {"raised", "contact", "apart"}


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
