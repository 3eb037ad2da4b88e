import copy
import dataclasses
import inspect
import math
import pickle
import random
import traceback
import types
from decimal import Decimal
from fractions import Fraction

import pytest

from dyop2d import dyop, geometry
from dyop2d.baselines import gjk_distance, lin_canny_distance
from dyop2d.benchmark import ALGORITHMS
from dyop2d.dyop import dyop_distance
from dyop2d.errors import DegenerateInput
from dyop2d.geometry import (
    DEGENERATE_AREA,
    DistanceResult,
    FeatureId,
    FeatureKind,
    Point2,
    Segment,
    TestCounters,
    Vector2,
    _EDGE_FEATURES,
    _VERTEX_FEATURES,
    _answer,
    _brute_force,
    _contact_witness,
    _edge_sweep,
    _orient,
    _pair,
    _point_in_triangle,
    _project,
    _segment_projections,
    _segment_segment,
    _separated,
    _winding,
    brute_force_triangle_distance,
    point_segment_distance,
    segment_segment_distance,
    triangles_overlap,
)
from dyop2d.verify import _separated_coords, random_separated_pair
from exact_reference import triangles_meet
from helpers import (
    NEAR_COLLINEAR_PAIR,
    OVERFLOW_SCALES,
    RANGE,
    RANGE_EXPONENT,
    REGIMES,
    _bits,
    _classify_edge_point,
    _contact_witness_with_flat_branch,
    _coords,
    _degeneracy_cases,
    _edge_list,
    _flat_branch_accepts,
    _grid_triangle,
    _intersect,
    _on_segment,
    _segment_branch,
    _signs_cross,
    _threshold_triangles,
    _too_wide,
    _value_or_error,
    boxes_apart,
    edge_feature,
    mover_frames,
    placed,
    random_tri,
    tri,
    vertex_feature,
)


def seg(a, b):
    return Segment(Point2(*a), Point2(*b))


def _signed_area(t):
    return 0.5 * _orient(t.v0.x, t.v0.y, t.v1.x, t.v1.y, t.v2.x, t.v2.y)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, float("inf"))


def test_triangle_normalizes_to_ccw():
    cw = tri((0, 0), (0, 1), (1, 0))
    assert _signed_area(cw) > 0
    assert cw.v1 == Point2(1, 0)
    assert cw.v2 == Point2(0, 1)
    ccw = tri((0, 0), (1, 0), (0, 1))
    assert ccw.v1 == Point2(1, 0)


def test_triangle_degenerate_flag():
    assert tri((0, 0), (1, 0), (2, 0)).is_degenerate
    assert tri((1, 1), (1, 1), (1, 1)).is_degenerate
    assert not tri((0, 0), (1, 0), (0, 1)).is_degenerate


def test_triangle_threshold_areas():
    below, at, above = _threshold_triangles()
    assert _signed_area(below) < DEGENERATE_AREA == _signed_area(at) < _signed_area(above)
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
            expected = abs(_signed_area(u)) <= DEGENERATE_AREA
            assert _signed_area(u) >= 0.0
            assert u.is_degenerate is expected
            assert _winding(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y) == (False, expected)


def test_the_smallest_clockwise_orientation_is_swapped():
    # The orientation is -5e-324, the smallest negative float, and half of
    # it rounds to -0.0; the sign is taken before halving, so v1 and v2
    # swap. The edge point (0, 0.5e-162) then lies left of every edge.
    x0, y0, x1, y1, x2, y2 = 0.0, 0.0, 0.0, 1e-162, 4.94e-162, 1e-162
    assert _orient(x0, y0, x1, y1, x2, y2) == -5e-324 and 0.5 * -5e-324 == 0.0
    assert _winding(x0, y0, x1, y1, x2, y2) == (True, True)
    t = tri((x0, y0), (x1, y1), (x2, y2))
    assert t.vertices == (Point2(x0, y0), Point2(x2, y2), Point2(x1, y1))
    assert _orient(t.v0.x, t.v0.y, t.v1.x, t.v1.y, t.v2.x, t.v2.y) == 5e-324
    assert t.is_degenerate
    assert _point_in_triangle(_coords(t), 0.0, 0.5e-162)
    # At s = 1e155 the orientation of (0, 0), (s, 2s), (s, s) is s*s - 2s*s,
    # inf - inf, on raw coordinates. Only such a NaN is decided on the
    # coordinates scaled into range, where it is negative: v1 and v2 swap,
    # and the triangle is not degenerate.
    s = 1e155
    assert math.isnan(_orient(0.0, 0.0, s, 2 * s, s, s))
    t = tri((0.0, 0.0), (s, 2 * s), (s, s))
    assert t.vertices == (Point2(0.0, 0.0), Point2(s, s), Point2(s, 2 * s))
    assert t.is_huge and not t.is_degenerate
    # Any other orientation keeps its raw sign and size. That of (1e300, 0),
    # (0, 0), (0, 1e-200) is -1e100; scaled into range, 1e-200 would
    # underflow to 0 and the triangle read as degenerate.
    t = tri((1e300, 0.0), (0.0, 0.0), (0.0, 1e-200))
    assert _orient(1e300, 0.0, 0.0, 0.0, 0.0, 1e-200) == -1e100
    assert t.vertices == (Point2(1e300, 0.0), Point2(0.0, 1e-200), Point2(0.0, 0.0))
    assert t.is_huge and not t.is_degenerate


def test_a_triangle_is_huge_only_past_2_to_the_250():
    r = 2.0**250
    past = math.nextafter(r, math.inf)
    assert not tri((0, 0), (r, 0), (0, -r)).is_huge
    assert tri((0, 0), (past, 0), (0, 1)).is_huge
    assert tri((0, 0), (1, 0), (0, -past)).is_huge


def test_degeneracy_flag_is_not_a_field():
    t = tri((0, 0), (1, 0), (0, 1))
    assert [f.name for f in dataclasses.fields(t)] == ["v0", "v1", "v2", "name"]
    assert t == tri((0, 0), (1, 0), (0, 1)) and hash(t) == hash(tri((0, 0), (1, 0), (0, 1)))
    assert "is_degenerate" not in repr(t) and "is_huge" not in repr(t)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.is_degenerate = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.is_huge = True


def _coordinate_cache_cases():
    """Seeded triangles, each as given and with its input order clockwise,
    plus int coordinates, signed zeros, and coordinates past 2^250 and
    past 2^510."""
    rng = random.Random(49)
    cases = [tri((0, 0), (1, 0), (0, 1)), tri((3, -2), (-1, 4), (5, 7)), tri((-0.0, 0.0), (1.0, -0.0), (0.0, 1.0))]
    for _ in range(40):
        t = random_tri(rng)
        for s in (1.0, -1.0, 2.0**260, 2.0**515, -1e300):
            u = t.scaled(s)
            cases += [u, tri((u.v0.x, u.v0.y), (u.v2.x, u.v2.y), (u.v1.x, u.v1.y))]
    cases += [tri((0, 0), (0, 1), (1, 0)), tri((-0.0, -0.0), (1.0, 1.0), (0.0, -0.0))]
    return cases


def test_a_triangle_caches_its_normalized_coordinates_once():
    cases = _coordinate_cache_cases()
    assert any(t.is_huge for t in cases) and any(abs(t.v0.x) > RANGE for t in cases)
    assert any(type(t.v0.x) is int for t in cases) and any(repr(v) == "-0.0" for t in cases for v in _coords(t))
    for t in cases:
        # The tuple every kernel reads, after the clockwise swap: by repr,
        # so -0.0 and int coordinates stay as they were given.
        assert type(t.coords) is tuple and repr(t.coords) == repr(_coords(t)), t
        # It survives a copy, a pickle round trip and a rebuild.
        for u in (dataclasses.replace(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert u == t and repr(u.coords) == repr(t.coords), t
        swapped = dataclasses.replace(t, v1=t.v2, v2=t.v1)
        assert repr(swapped.coords) == repr(_coords(swapped)), t
    t = cases[0]
    assert [f.name for f in dataclasses.fields(t)] == ["v0", "v1", "v2", "name"] and "coords" not in repr(t)
    # Not part of == or hash: a triangle with its cache replaced still equals t.
    other = copy.copy(t)
    object.__setattr__(other, "coords", None)
    assert other == t and hash(other) == hash(t)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.coords = (0.0,) * 6
    # In range, a query's pair is the two cached tuples themselves, not copies.
    for t, u in zip(cases, cases[1:]):
        if not (t.is_huge or u.is_huge):
            a, b, f = _pair(t, u)
            assert a is t.coords and b is u.coords and f == 1.0


def test_an_in_range_placement_pair_is_the_two_cached_tuples(monkeypatch):
    # With a length of at most 2^510 and neither triangle past 2^250, every
    # value is in range, so a placement's pair is the two cached tuples with
    # f = 1.0, and no scale is computed. A NaN length is not known to be in
    # range, so it still goes to _pair_scale.
    scales = []

    def counted(*args, function=geometry._pair_scale):
        scales.append(args[-1])
        return function(*args)

    monkeypatch.setattr(geometry, "_pair_scale", counted)
    cases = [t for t in _coordinate_cache_cases() if not t.is_huge]
    for t, u in zip(cases, cases[1:]):
        for length in (1.0, 1e-3, 5e-324, 2.0**250, RANGE):
            a, b, f = _pair(t, u, length=length)
            assert a is t.coords and b is u.coords and f == 1.0
    assert scales == []
    _pair(cases[0], cases[1], length=math.nan)
    assert len(scales) == 1 and math.isnan(scales[0])


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


def _assert_like_constructed(built, expected):
    assert type(built) is DistanceResult and type(built.point_a) is Point2 and type(built.point_b) is Point2
    assert built == expected and repr(built) == repr(expected) and _bits(built) == _bits(expected)
    # Every field is immutable, so both hash, and alike.
    assert hash(built) == hash(expected)
    assert built.point_a == expected.point_a and hash(built.point_a) == hash(expected.point_a)
    assert built.point_b == expected.point_b and hash(built.point_b) == hash(expected.point_b)
    # Tuples with no instance dict: the fields are the items, in field order.
    assert not hasattr(built, "__dict__") and not hasattr(built.point_a, "__dict__")
    assert tuple(built) == tuple(expected) and built._fields == expected._fields
    assert repr(built._asdict()) == repr(expected._asdict())
    assert pickle.dumps(built) == pickle.dumps(expected)
    for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert _bits(copied) == _bits(expected) and type(copied.point_b) is Point2


@pytest.mark.parametrize("args", _ANSWER_ARGS)
def test_answer_matches_the_constructed_result(args):
    _assert_like_constructed(_answer(*args), _constructed(*args))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_public_answers_match_the_constructed_result(name):
    mover, static, velocity = placed("x", 1.0)[0]
    built = ALGORITHMS[name](mover, static, velocity)
    pa, pb = built.point_a, built.point_b
    expected = _constructed(
        built.distance, pa.x, pa.y, pb.x, pb.y, built.feature_a, built.feature_b, built.counters, built.flags
    )
    _assert_like_constructed(built, expected)


def test_answer_is_frozen_and_replaceable():
    built = _answer(*_ANSWER_ARGS[0])
    with pytest.raises(AttributeError):
        built.distance = 2.0
    with pytest.raises(AttributeError):
        built.point_a.x = 2.0
    with pytest.raises(AttributeError):
        built.counters.ee_tests = 2
    point_b = built.point_b._replace(y=1.0)
    moved = built._replace(distance=2.0, point_b=point_b)
    assert moved == _constructed(2.0, 0.0, -0.0, 1.5, 1.0, *_ANSWER_ARGS[0][5:])
    assert built.distance == 1.5 and built.point_b == Point2(1.5, 0.0)
    assert type(point_b) is Point2 and type(moved) is DistanceResult


def test_answers_points_and_counters_are_named_tuples():
    # An answer, its points and its counters compare equal to plain
    # tuples, iterate and unpack; an answer hashes.
    built = _answer(*_ANSWER_ARGS[1])
    d, pa, pb, fa, fb, counters, flags = built
    assert (d, pa, pb, counters, flags) == (0.0, (1, 2), (1, 2), (2, 3, 4), ("flag",))
    assert built == (0.0, (1, 2), (1, 2), fa, fb, (2, 3, 4), ("flag",))
    x, y = pa
    assert (x, y) == (pa.x, pa.y) == tuple(pa) and counters.total() == sum(counters) == 9
    assert {built: 1}[_constructed(*_ANSWER_ARGS[1])] == 1
    assert DistanceResult._fields == (
        "distance", "point_a", "point_b", "feature_a", "feature_b", "counters", "flags"
    )
    assert Point2._fields == ("x", "y") and TestCounters._fields == ("vv_tests", "ve_tests", "ee_tests")
    assert built._asdict()["counters"]._asdict() == {"vv_tests": 2, "ve_tests": 3, "ee_tests": 4}
    assert DistanceResult(1.0, pa, pb, fa, fb, counters).flags == () and TestCounters() == (0, 0, 0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_point_replace_and_make_validate_as_the_constructor_does(value):
    point = Point2(1.0, 2.0)
    with pytest.raises(ValueError) as info:
        Point2(value, 2.0)
    for build in (lambda: point._replace(x=value), lambda: Point2._make((value, 2.0))):
        with pytest.raises(ValueError) as caught:
            build()
        assert type(caught.value) is ValueError and str(caught.value) == str(info.value)
    with pytest.raises(ValueError, match=f"non-finite coordinate: {value!r}"):
        point._replace(y=value)
    assert point._replace(y=3.0) == Point2._make([1.0, 3.0]) == Point2(1.0, 3.0)
    assert type(Point2._make([1.0, 3.0])) is Point2


def test_points_survive_pickle_and_deepcopy():
    # Answers are round-tripped by _assert_like_constructed.
    point = Point2(-0.0, 2.5)
    for copied in (pickle.loads(pickle.dumps(point)), copy.deepcopy(point)):
        assert type(copied) is Point2 and _bits(copied) == _bits(point)
    # Unpickling builds a point through its validating constructor.
    payload = pickle.dumps(point).replace(b"\x80\x00\x00\x00\x00\x00\x00\x00", b"\x7f\xf0\x00\x00\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="non-finite coordinate: inf"):
        pickle.loads(payload)


def test_fixed_counts_are_shared_constants():
    # DyOP's and the oracle's fixed counts are one object each, built at
    # import rather than per answer; run_verify's kernels return them too.
    one, nine, none = dyop._ONE_EE, geometry._NINE_EE, geometry._NO_TESTS
    assert (one, nine, none) == ((0, 0, 1), (0, 0, 9), (0, 0, 0))
    for mover, static, velocity in placed("x", 1.0)[:10]:
        assert dyop_distance(mover, static, velocity).counters is one
        assert brute_force_triangle_distance(mover, static).counters is nine
        a, b = _coords(mover), _coords(static)
        assert dyop._dyop(a, b, dyop.MovementAxis.X)[7] is one and _brute_force(a, b)[7] is nine
    a, b = NEAR_COLLINEAR_PAIR
    assert brute_force_triangle_distance(a, b).counters is none


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


def test_feature_index_out_of_range_is_refused():
    for i in (-1, 3, 1.0, True, "1", None):
        for kind in FeatureKind:
            with pytest.raises(ValueError):
                FeatureId(kind, i)
    # A kind's value, or any other non-member, is refused as well.
    for kind in ("vertex", "edge", None, 0):
        with pytest.raises(ValueError):
            FeatureId(kind, 0)
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


def test_point_segment_distance_scales_a_pair_past_the_range():
    # Past 2^510 a point and a segment are measured scaled into range by a
    # power of two and scaled back, as segment_segment_distance measures two
    # segments. On raw coordinates this pair's projection parameter is
    # inf / inf, NaN; scaled, the distance is past the float range and the
    # closest point finite, as for the point taken as a zero-length segment.
    p, s = Point2(1.5e308, 1e308), seg((-1.5e308, -1e308), (1.5e308, -1e308))
    d, closest = point_segment_distance(p, s)
    assert (d, closest) == (math.inf, Point2(1.5e308, -1e308))
    assert segment_segment_distance(Segment(p, p), s)[::2] == (d, closest)
    with pytest.raises(ValueError, match="does not scale into range"):
        point_segment_distance(p, seg((0.0, 0.0), (0.0, 1e-300)))
    # At every scaling, in range or past it, the answer is the one at 2^10
    # scaled, bit for bit.
    rng = random.Random(44)
    for _ in range(300):
        c = [rng.uniform(-1024.0, 1024.0) for _ in range(6)]
        d, q = point_segment_distance(Point2(*c[:2]), seg(c[2:4], c[4:6]))
        for k in (400, 600, 1000):
            f = 2.0**k
            scaled = [v * f for v in c]
            got = point_segment_distance(Point2(*scaled[:2]), seg(scaled[2:4], scaled[4:6]))
            assert got == (d * f, Point2(q.x * f, q.y * f)), (c, k)


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
    strictly smaller distance replaces the best so far. The eighth value,
    ``contact``, is whether the intersection test found a point."""
    hit = _intersect(ax, ay, bx, by, cx, cy, dx, dy)
    if hit is not None:
        hx, hy = hit
        return 0.0, hx, hy, hx, hy, _project(hx, hy, ax, ay, bx, by)[3], _project(hx, hy, cx, cy, dx, dy)[3], True
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
    return (*best, False)


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
    for k in range(1000):
        # Needles near the origin: an edge shorter than 1.5e-162, whose
        # squared length underflows to 0 though its direction is not zero,
        # on either side or on both.
        c = [rng.uniform(-2.0, 2.0) for _ in range(8)]
        for start in ((0,), (4,), (0, 4))[k % 3]:
            e, angle = rng.uniform(1e-163, 1.4e-162), rng.uniform(0.0, 2.0 * math.pi)
            x, y = rng.uniform(-1e-161, 1e-161), rng.uniform(-1e-161, 1e-161)
            c[start : start + 4] = x, y, x + e * math.cos(angle), y + e * math.sin(angle)
        yield tuple(c)
    for _ in range(3000):
        # Huge and small coordinates mixed, so that a squared length or a
        # projection's numerator overflows while others stay finite.
        yield tuple(rng.choice((-1.0, 1.0)) * rng.choice((0.1, 1e150)) * rng.uniform(1.0, 1e6) for _ in range(8))
    for k in range(400):
        # One endpoint 2e153 to 1.2e154 out, facing an edge longer than
        # 1.4e154 from near the origin: that edge's squared length and this
        # endpoint's projection on it overflow, the others' stay finite.
        c = [rng.uniform(-2.0, 2.0) for _ in range(8)]
        far, long = 2 * (k % 4), 4 if k % 4 < 2 else 0
        angle, length = rng.uniform(0.0, 2.0 * math.pi), 10.0 ** rng.uniform(154.2, 155.5)
        c[long + 2], c[long + 3] = c[long] + length * math.cos(angle), c[long + 1] + length * math.sin(angle)
        angle, length = rng.uniform(0.0, 2.0 * math.pi), 10.0 ** rng.uniform(153.3, 154.1)
        c[far], c[far + 1] = length * math.cos(angle), length * math.sin(angle)
        yield tuple(c)
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


def _in_range(values):
    return max(abs(v) for v in values) <= RANGE


def _refusal(xs, ys):
    """The ValueError with which an entry refuses to scale a pair past 2^510
    with these x and y coordinates into range, or None."""
    size = max(abs(v) for v in (*xs, *ys))
    return _too_wide(xs, ys, (), RANGE_EXPONENT - math.frexp(size)[1], RANGE_EXPONENT)


def _scale_exponent(values):
    """A power-of-two exponent that brings the largest |value| into [2^199,
    2^200): another target than the entries' own, so a test that scales by
    it checks that the answers scale, not how the entries pick the power."""
    return 200 - math.frexp(max(abs(v) for v in values))[1]


def test_segment_segment_equals_its_definition():
    # In range, the kernel's precondition: all eight values, t1, t2 and
    # the contact flag included, bit for bit (the sign of zero and int against float too),
    # and neither raises. Past the range, 2^510, the public entry answers
    # as the definition does on the segments scaled into range by a power
    # of two, scaled back, or refuses segments too wide to scale.
    seen = set()
    for args in _segment_cases():
        if _in_range(args):
            assert _bits(_segment_segment(*args)) == _bits(_segment_segment_by_definition(*args)), args
            seen.add(_segment_branch(args))
            continue
        seen.add("past the range")
        got = _value_or_error(segment_segment_distance, seg(args[0:2], args[2:4]), seg(args[4:6], args[6:8]))
        refusal = _refusal(args[0::2], args[1::2])
        if refusal is not None:
            assert got == ("raised", ValueError, str(refusal)), args
            seen.add("too wide")
            continue
        k = _scale_exponent(args)
        d, pax, pay, pbx, pby, _, _, _ = _segment_segment_by_definition(*(v * 2.0**k for v in args))
        expected = tuple(v * 2.0**-k for v in (d, pax, pay, pbx, pby))
        assert got == ("ok", _bits((expected[0], Point2(*expected[1:3]), Point2(*expected[3:5])))), args
    # Every branch is reached. Records of c and d count at interior points
    # only: at t = 0 or t = 1 the earlier record of a or b ties with them,
    # up to rounding, and keeps the tie.
    assert seen >= {"crossing", "touching c", "touching d", "touching a", "touching b"}
    assert seen >= {"zero-length edges", "past the range", "too wide"}
    names = ("t = 0", "t = 1", "interior")
    assert seen >= {(record, name) for record in ("record a", "record b") for name in names}
    assert seen >= {("record c", "interior"), ("record d", "interior")}


def _near_collinear_segments(rng, n):
    """Seeded (ax, ay, bx, by, cx, cy, dx, dy): ab in the box [-1, 1]^2,
    and c and d at parameters 0.1 to 0.4 and 0.6 to 0.9 along it, each
    coordinate nudged by 1e-17 either way. cd then lies along ab, and where
    the two cross, their orientations are rounding noise."""
    for _ in range(n):
        ax, ay, bx, by = (rng.uniform(-1.0, 1.0) for _ in range(4))
        ends = [ax, ay, bx, by]
        for lo in (0.1, 0.6):
            t = rng.uniform(lo, lo + 0.3)
            for u, v in ((ax, bx), (ay, by)):
                ends.append(u + t * (v - u) + rng.choice((-1e-17, 1e-17)))
        yield tuple(ends)


def test_near_collinear_crossings_lie_on_the_first_segment():
    # The crossing point is a + t (b - a) with t = o3 / (o3 - o4), from the
    # orientations of a and b against cd. The branch runs only when o3 and
    # o4 are nonzero and of opposite sign, so 0 <= t <= 1 and no division
    # can fail: on segments nearly along one line, where the product
    # difference r x s rounds to 0 or near it, neither test raises, both
    # give one contact point, and that point lies on ab up to rounding.
    # The diagonals of the square of side 2^511 cross with |o3 - o4| =
    # 2^1023, the largest value in range.
    m = 2.0**510
    cases = [*_near_collinear_segments(random.Random(5), 20000), (-m, -m, m, m, -m, m, m, -m)]
    crossings = 0
    for ends in cases:
        d, pax, pay, pbx, pby, _, _, _ = _segment_segment(*ends)
        hit = _intersect(*ends)
        if hit is None:
            continue
        assert (d, pax, pay, pbx, pby) == (0.0, *hit, *hit), ends
        assert _on_segment(*hit, *ends[:4]), ends
        crossings += hit not in (ends[0:2], ends[2:4], ends[4:6], ends[6:8])
    assert _intersect(*cases[-1]) == (0.0, 0.0)
    assert crossings > 4000


def _orientation_signs_cross(ends):
    """Whether the segment test's four orientations on (ax, ay, bx, by, cx,
    cy, dx, dy) have a crossing's signs, as computed in floats."""
    ax, ay, bx, by, cx, cy, dx, dy = ends
    rx, ry, sx, sy = bx - ax, by - ay, dx - cx, dy - cy
    return _signs_cross(
        rx * (cy - ay) - ry * (cx - ax),
        rx * (dy - ay) - ry * (dx - ax),
        sx * (ay - cy) - sy * (ax - cx),
        sx * (by - cy) - sy * (bx - cx),
    )


def _boxes_apart(ends):
    """Whether the bounding boxes of ab and cd lie strictly apart on an axis."""
    ax, ay, bx, by, cx, cy, dx, dy = ends
    return (
        max(ax, bx) < min(cx, dx)
        or max(cx, dx) < min(ax, bx)
        or max(ay, by) < min(cy, dy)
        or max(cy, dy) < min(ay, by)
    )


def _apart_segment_cases(rng, n):
    """Seeded (kind, ends) segment pairs, n of each kind, each segment's ends
    in either order:
    - "random": ends uniform in [-2, 2]^2;
    - "near-collinear": ab in [-1, 1]^2, and cd along its line past b, 1e-15
      to 1e-1 after it, with c and d nudged sideways by 1e-18 to 1e-8;
    - "collinear": four points of the line y = k x + m, at x from 1e-2 to
      1e2 either side of 0, ab before cd, 4 n of them; their orientations
      are rounding noise, and about one pair in 500 has a crossing's
      signs."""
    for _ in range(n):
        yield "random", tuple(rng.uniform(-2.0, 2.0) for _ in range(8))
    for _ in range(n):
        ax, ay, bx, by = (rng.uniform(-1.0, 1.0) for _ in range(4))
        length = math.hypot(bx - ax, by - ay)
        ux, uy = (bx - ax) / length, (by - ay) / length
        along = length + 10.0 ** rng.uniform(-15.0, -1.0)
        ends = [ax, ay, bx, by]
        for t in (along, along + rng.uniform(0.01, 2.0)):
            side = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-18.0, -8.0)
            ends += [ax + t * ux - side * uy, ay + t * uy + side * ux]
        yield "near-collinear", _shuffled_ends(rng, ends)
    for _ in range(4 * n):
        k, m = rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)
        ends = []
        for x in sorted(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 2.0) for _ in range(4)):
            ends += [x, k * x + m]
        yield "collinear", _shuffled_ends(rng, ends)


def _shuffled_ends(rng, ends):
    """``ends`` with each segment's two ends swapped or not, at random."""
    for start in (0, 4):
        if rng.random() < 0.5:
            ends[start : start + 4] = ends[start + 2 : start + 4] + ends[start : start + 2]
    return tuple(ends)


def test_segment_projections_answer_wherever_the_boxes_are_apart():
    # Segments whose bounding boxes lie strictly apart on an axis share no
    # point, and no contact branch of the segment test applies to them: the
    # projection half answers alone. All eight values bit for bit, the sign
    # of zero included, with contact False, in both argument orders. On
    # nearly collinear pairs the four orientations are rounding noise, and
    # some have a crossing's signs; the box check keeps those from reading
    # as contact.
    apart = {"random": 0, "near-collinear": 0, "collinear": 0}
    noisy = dict.fromkeys(apart, 0)
    for kind, ends in _apart_segment_cases(random.Random(29), 3000):
        for args in (ends, ends[4:] + ends[:4]):
            if not _boxes_apart(args):
                continue
            apart[kind] += 1
            projected = _segment_projections(*args)
            assert projected[7] is False, args
            assert _bits(projected) == _bits(_segment_segment(*args)), args
            noisy[kind] += _orientation_signs_cross(args)
    assert min(apart.values()) > 2000, apart
    assert noisy["collinear"] > 40, noisy


def test_segments_apart_along_their_line_do_not_cross():
    # Both segments lie along one line and 26.7 apart in x. Their rounded
    # orientations have a crossing's signs; read as a crossing, the test
    # answered 0.0 at a point on neither segment. The nearest ends are b
    # and d, 33.0 apart.
    ends = (
        91.71789270079184,
        -19.13971215116056,
        49.20678219613082,
        11.816777075176956,
        3.3900880461498755,
        45.180384424008224,
        22.53488978147436,
        31.239185485087066,
    )
    assert _orientation_signs_cross(ends) and _boxes_apart(ends)
    assert _intersect(*ends) is None
    answer = _segment_segment(*ends)
    assert answer[7] is False and _bits(answer) == _bits(_segment_projections(*ends))
    d, pa, pb = segment_segment_distance(seg(ends[0:2], ends[2:4]), seg(ends[4:6], ends[6:8]))
    assert (d, pa, pb) == (answer[0], Point2(*answer[1:3]), Point2(*answer[3:5]))
    assert pa == Point2(*ends[2:4]) and math.isclose(d, math.hypot(ends[2] - ends[6], ends[3] - ends[7]), rel_tol=1e-15)


def test_contact_is_decided_by_orientations_not_by_a_zero_distance():
    # A's vertex 0 is 1e-20 left of B's vertex 0. Projected on B's edge 2,
    # from (1, 1) to (1e-20, 0), it clamps to the end, which is taken as
    # the vertex (1e-20, 0) itself: computed as 1 + 1 * (1e-20 - 1) it
    # would round to 0.0 and measure distance 0.0. So A's edges 0 and 2
    # measure the true gap to it. No orientation is zero and nothing
    # crosses, so the segment test reports no contact, the overlap test
    # finds none, and Lin-Canny answers the true gap too.
    a = tri((0, 0), (-1, 0.5), (-1, -0.5))
    b = tri((1e-20, 0), (1, -1), (1, 1))
    edges_a, edges_b = _edge_list(_coords(a)), _edge_list(_coords(b))
    for i in (0, 2):
        d, *_, contact = _segment_segment(*edges_a[i], *edges_b[2])
        assert (d, contact) == (1e-20, False), i
    assert triangles_overlap(a, b) is False
    result, _ = lin_canny_distance(a, b)
    assert (result.distance, result.flags) == (1e-20, ())


def _edge_sweep_by_definition(a, b):
    """``_edge_sweep`` composed from ``_project``: the 18 vertex-edge
    projections, each in the first edge pair that holds it, in row-major
    edge-pair order and then (a, b, c, d) order, where only a strictly
    smaller distance replaces the best so far."""
    edges_a, edges_b = _edge_list(a), _edge_list(b)
    best_d, best = math.inf, (*edges_a[0][:2], *edges_b[0][:2], 0.0, 0.0, 0, 0)
    for i, (ax, ay, bx, by) in enumerate(edges_a):
        for j, (cx, cy, dx, dy) in enumerate(edges_b):
            if i == 0:
                d, qx, qy, t = _project(ax, ay, cx, cy, dx, dy)
                if d < best_d:
                    best_d, best = d, (ax, ay, qx, qy, 0.0, t, i, j)
            if i < 2:
                d, qx, qy, t = _project(bx, by, cx, cy, dx, dy)
                if d < best_d:
                    best_d, best = d, (bx, by, qx, qy, 1.0, t, i, j)
            if j == 0:
                d, qx, qy, t = _project(cx, cy, ax, ay, bx, by)
                if d < best_d:
                    best_d, best = d, (qx, qy, cx, cy, t, 0.0, i, j)
            if j < 2:
                d, qx, qy, t = _project(dx, dy, ax, ay, bx, by)
                if d < best_d:
                    best_d, best = d, (qx, qy, dx, dy, t, 1.0, i, j)
    pax, pay, pbx, pby, t1, t2, bi, bj = best
    return best_d, pax, pay, pbx, pby, _classify_edge_point(bi, t1), _classify_edge_point(bj, t2)


def _sweep_cases():
    """Seeded (a, b) coordinate inputs for the nine-edge sweep, vertices
    taken as given: no winding swap."""
    for axis, s in (("x", 1.0), ("y", 1e-3), ("y", 1e-6)):
        # Along y near contact, the witnesses of several projections nearly tie.
        for a, b, _ in placed(axis, s):
            yield _coords(a), _coords(b)
    rng = random.Random(17)
    for _ in range(1000):
        a, b, _ = random_separated_pair(rng)
        yield _coords(a), _coords(b)
        yield _coords(b), _coords(a)
    for k in range(2000):
        # Integer grid: ties, touching, collinear and overlapping pairs, on
        # int coordinates, or on floats for B.
        cast = float if k % 2 else int
        yield tuple(rng.randint(0, 4) for _ in range(6)), tuple(cast(rng.randint(0, 4)) for _ in range(6))
    for _ in range(3000):
        # Repeated vertices, so zero-length edges on either side or both, on
        # coordinates where -0.0, 0.0 and 0 are common and compare equal.
        v = [[rng.choice((-0.0, 0.0, 0, -1.0, 1, 2.0, rng.uniform(-2.0, 2.0))) for _ in "xy"] for _ in range(6)]
        for k in rng.sample(range(6), rng.randint(1, 4)):
            v[k] = v[k // 3 * 3 + (k + 1) % 3]
        yield (*v[0], *v[1], *v[2]), (*v[3], *v[4], *v[5])
    for _ in range(6000):
        # Huge and small coordinates mixed: edges whose direction or squared
        # length overflows, so projections raise in different places.
        huge = rng.choice((1e154, 1e308, 1.7e308))
        c = [rng.choice((-huge, huge)) if rng.random() < 0.2 else rng.uniform(-2.0, 2.0) for _ in range(12)]
        yield tuple(c[:6]), tuple(c[6:])
    for x, y in ((1e308, 0.0), (0.0, -1.7e308), (9e307, 9e307)):
        # Two points farther apart than the float range: every distance is
        # inf, so the sweep keeps its first record.
        yield (-x, -y) * 3, (x, y) * 3
    # Two vertical segments on x = -1e308 and x = 1e308: every squared length
    # is finite, and every t is NaN (inf * 0).
    yield (-1e308, 0.0, -1e308, 1.0, -1e308, 2.0), (1e308, 0.0, 1e308, 1.0, 1e308, 3.0)
    for scale, shift in OVERFLOW_SCALES:
        for _ in range(40):
            a, b, _ = random_separated_pair(rng)
            a = a.scaled(scale).translated(shift, 0.0)
            b = b.scaled(scale).translated(shift, 0.0)
            for other in (b, a.translated(0.3 * scale, 0.0)):
                yield _coords(a), _coords(other)
                yield _coords(other), _coords(a)
    # There 7 of the 18 projections land inside an edge on average, against
    # 2 on the placed pairs.
    for a, static, _ in mover_frames(rng, 400):
        yield a, static


def test_edge_sweep_equals_its_definition():
    # In range, the kernel's precondition: all seven values bit for bit
    # (the sign of zero and int against float too, and the feature names).
    # Past the range, 2^510, the oracle's public entry on the pair as
    # triangles answers as the oracle does on them scaled into range by a
    # power of two, scaled back, or refuses a pair too wide to scale.
    kinds = set()
    for a, b in _sweep_cases():
        coordinates = [*a, *b]
        if _in_range(coordinates):
            got = _value_or_error(_edge_sweep, a, b)
            assert got == _value_or_error(_edge_sweep_by_definition, a, b), (a, b)
            kinds.add("zero" if got[1][0] == "0.0" else "apart")
            kinds.update(f"{kind.value}-{index}" for _, kind, index in got[1][5:])
            continue
        ta, tb = (tri(*zip(c[0::2], c[1::2])) for c in (a, b))
        refusal = _refusal(coordinates[0::2], coordinates[1::2])
        if refusal is not None:
            got = _value_or_error(brute_force_triangle_distance, ta, tb)
            assert got == ("raised", ValueError, str(refusal)), (a, b)
            kinds.add("too wide")
            continue
        k = _scale_exponent(coordinates)
        scaled = [tuple(v * 2.0**k for v in _coords(t)) for t in (ta, tb)]
        d, pax, pay, pbx, pby, fa, fb, counters, flags = _brute_force(*scaled)
        expected = _answer(*(v * 2.0**-k for v in (d, pax, pay, pbx, pby)), fa, fb, counters, flags)
        assert _bits(brute_force_triangle_distance(ta, tb)) == _bits(expected), (a, b)
        kinds.add("past the range")
    assert {"zero", "apart", "past the range", "too wide"} <= kinds
    assert {f"{k}-{i}" for k in ("vertex", "edge") for i in range(3)} <= kinds


def test_the_generated_sweep_shows_its_text_to_inspect_and_tracebacks():
    # geometry compiles the sweep at import from generated text, under a file
    # name that names the module, and registers that text with linecache.
    code = _edge_sweep.__code__
    assert code.co_filename == "<generated dyop2d.geometry._edge_sweep>"
    assert (_edge_sweep.__module__, _edge_sweep.__qualname__) == ("dyop2d.geometry", "_edge_sweep")
    source = inspect.getsource(_edge_sweep)
    assert source == geometry._edge_sweep_text()
    assert source.startswith("def _edge_sweep(a: _Coords, b: _Coords) -> ")
    # The text shown is the text compiled: compiled again, it gives the same code.
    again = next(c for c in compile(source, "again", "exec").co_consts if isinstance(c, types.CodeType))
    assert (again.co_code, again.co_consts, again.co_names) == (code.co_code, code.co_consts, code.co_names)
    assert again.co_consts[0] == _edge_sweep.__doc__
    # Each of the 18 projections once: A's vertex v on B's edge e by t, B's
    # vertex v on A's edge e by s, from the table entry of A's i and B's j.
    by_t = [line for line in source.splitlines() if line.startswith("    t = (wx")]
    by_s = [line for line in source.splitlines() if line.startswith("    s = (wx")]
    assert sorted(line[11:13] for line in by_t) == sorted(line[11:13] for line in by_s) == [
        f"{i}{j}" for i in range(3) for j in range(3)
    ]
    # B's edge 0 has zero length, so its divisor is inf, and a Decimal t
    # divided by a float raises TypeError in the first projection's line.
    a, b = (tuple(map(Decimal, c)) for c in ((0, 0, 1, 0, 0, 1), (3, 0, 3, 0, 3, 1)))
    with pytest.raises(TypeError) as info:
        _edge_sweep(a, b)
    frame = traceback.extract_tb(info.tb)[-1]
    assert (frame.filename, frame.name) == (code.co_filename, "_edge_sweep")
    assert frame.line == source.splitlines()[frame.lineno - 1].strip() == "t = (wx00 * vx0 + wy00 * vy0) / vv0"
    assert f'"{code.co_filename}", line {frame.lineno}, in _edge_sweep\n    {frame.line}\n' in "".join(
        traceback.format_exception(info.value)
    )


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


def test_overlap_finds_a_triangle_inside_a_sliver():
    # A's area, 5e-13, is under DEGENERATE_AREA, so A is flagged degenerate,
    # yet it is not flat: B lies strictly inside it. Judged exactly, each of
    # B's vertices is left of all three of A's edges. Only a triangle of
    # exactly zero orientation has no inside.
    a = tri((0.0, 0.0), (1.0, 0.0), (0.5, 1e-12))
    b = tri((0.5, 1e-14), (0.5001, 1e-14), (0.5, 2e-14))
    assert a.is_degenerate
    for v in b.vertices:
        for e in range(3):
            p, q = a.edge(e).a, a.edge(e).b
            px, py, qx, qy, vx, vy = map(Fraction, (p.x, p.y, q.x, q.y, v.x, v.y))
            assert (qx - px) * (vy - py) - (qy - py) * (vx - px) > 0
    for s, t in ((a, b), (b, a)):
        assert triangles_overlap(s, t)
        assert brute_force_triangle_distance(s, t).distance == 0.0


def _flat_pair(rng):
    # A collinear float triangle A, and B with its vertex 0 on A's line:
    # at one of A's vertices, half way along, or anywhere on the line.
    px, py, dx, dy = (rng.uniform(-1.0, 1.0) for _ in range(4))
    ts = [rng.choice((0.0, 1.0, 0.5, rng.uniform(-1.0, 2.0))) for _ in range(4)]
    a = tri(*((px + t * dx, py + t * dy) for t in ts[:3]))
    b = tri((px + ts[3] * dx, py + ts[3] * dy), *((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(2)))
    return _coords(a), _coords(b)


def test_a_flat_triangle_contains_no_point_the_edge_pairs_did_not_find():
    # _point_in_triangle takes a triangle of exactly zero orientation to
    # contain no point. Wherever its old branch for such a triangle would
    # accept a point, that point starts an edge of the other triangle that
    # _segment_segment has found touching, from the same floats, so the
    # overlap test has already answered with an edge contact and answers
    # as it did with the branch. Each pair is tested both ways round.
    # Measured: 889 of 5000 grid pairs and 3409 of 5000 float pairs have a
    # flat A, and the branch would accept a point 404 and 3716 times.
    rng = random.Random(5)
    grid = [(_coords(_grid_triangle(rng)), _coords(_grid_triangle(rng))) for _ in range(5000)]
    floats = [_flat_pair(rng) for _ in range(5000)]
    counts = {}
    for name, pairs in (("grid", grid), ("float", floats)):
        flat = accepted = 0
        for a, b in pairs:
            flat += _orient(*a) == 0.0
            for s, t in ((a, b), (b, a)):
                witness = _contact_witness(s, t)
                assert _bits(witness) == _bits(_contact_witness_with_flat_branch(s, t)), (s, t)
                # B's vertex 0 in A starts B's edge 0, and A's vertex 0 in
                # B starts A's edge 0; the edge pairs are (A's, B's).
                edges_s, edges_t = _edge_list(s), _edge_list(t)
                for container, point, touched in (
                    (s, t[:2], any(_segment_segment(*ea, *edges_t[0])[7] for ea in edges_s)),
                    (t, s[:2], any(_segment_segment(*edges_s[0], *eb)[7] for eb in edges_t)),
                ):
                    if _flat_branch_accepts(container, *point):
                        accepted += 1
                        assert touched and witness[2].kind is witness[3].kind is FeatureKind.EDGE, (s, t)
        counts[name] = flat, accepted
    assert counts == {"grid": (889, 404), "float": (3409, 3716)}


def _brute_force_by_its_former_rule(a, b):
    """``_brute_force`` without its box test: the sweep, then the
    certificate on its witnesses, then, only when that fails, the overlap
    test."""
    swept = _edge_sweep(a, b)
    if not _separated(a, b, *swept[1:5]):
        contact = _contact_witness(a, b)
        if contact is not None:
            px, py, fa, fb = contact
            return 0.0, px, py, px, py, fa, fb, TestCounters(0, 0, 0), ()
    return *swept, TestCounters(0, 0, 9), ()


def _count_proof_calls(monkeypatch):
    """The calls that the oracle's kernel makes to the certificate and the
    overlap test, by name, in order."""
    calls = []
    for name in ("_separated", "_contact_witness"):

        def counted(*args, name=name, function=getattr(geometry, name)):
            calls.append(name)
            return function(*args)

        monkeypatch.setattr(geometry, name, counted)
    return calls


def _box_test_inputs():
    """(label, a, b) triangle pairs: the default scene in every regime of
    REGIMES, 1000 seed-7 random pairs each way round, the frames of 200
    mover trajectories (seed 17), whose boxes all meet, and 3000 seed-11
    grid pairs of non-degenerate triangles."""
    for regime in REGIMES:
        for a, b, _ in placed(*regime):
            yield "placed", a, b
    rng = random.Random(7)
    for _ in range(1000):
        a, b, _ = random_separated_pair(rng)
        yield "random", a, b
        yield "random", b, a
    for a, static, _ in mover_frames(random.Random(17), 200):
        yield "mover", *(tri(*zip(c[0::2], c[1::2])) for c in (a, static))
    rng = random.Random(11)
    for _ in range(3000):
        a, b = _grid_triangle(rng), _grid_triangle(rng)
        if not (a.is_degenerate or b.is_degenerate):
            yield "grid", a, b


def test_a_box_gap_is_exact_and_is_the_oracles_only_shortcut(monkeypatch):
    # A strict gap between the two bounding boxes along x or y proves a pair
    # disjoint, so the oracle's kernel answers it by the sweep alone, with
    # neither the certificate nor the overlap test. Every other pair still
    # pays the certificate, and where it fails the overlap test, and every
    # answer is the former rule's, bit for bit.
    calls = _count_proof_calls(monkeypatch)
    seen = {}
    for label, a, b in _box_test_inputs():
        ca, cb = _coords(a), _coords(b)
        calls.clear()
        got = _brute_force(ca, cb)
        assert repr(got) == repr(_brute_force_by_its_former_rule(ca, cb)), (a, b)
        apart = boxes_apart(ca, cb)
        if apart:
            assert not triangles_meet(a, b), (a, b)
            assert calls == [], (a, b)
        else:
            assert calls[0] == "_separated" and calls[1:] in ([], ["_contact_witness"]), (a, b)
        seen.setdefault(label, set()).add((apart, tuple(calls)))
    assert seen == {
        "placed": {(True, ()), (False, ("_separated",)), (False, ("_separated", "_contact_witness"))},
        "random": {(True, ())},
        "mover": {(False, ("_separated",))},
        "grid": {(True, ()), (False, ("_separated",)), (False, ("_separated", "_contact_witness"))},
    }


@pytest.mark.parametrize(
    "a, b, contact",
    [
        # A shared vertex, where the boxes touch at x = 1.
        (((0, 0), (1, 0), (0, 1)), ((1, 0), (2, 0), (1, 1)), (1, 0)),
        # A's vertex on B's edge on the line x = 1, the boxes' shared x extent.
        (((0, 0), (1, 0), (0, 1)), ((1, -1), (2, 0), (1, 1)), (1, 0)),
        # A's vertex on B's edge on the line y = 1, the boxes' shared y extent.
        (((0, 0), (1, 0), (0, 1)), ((-1, 1), (1, 1), (0, 2)), (0, 1)),
        # Two edges along one line, whose boxes share the segment between.
        (((0, 0), (2, 0), (0, 1)), ((1, 0), (3, 0), (3, -1)), (1, 0)),
    ],
)
def test_pairs_whose_boxes_touch_reach_the_overlap_test(monkeypatch, a, b, contact):
    # A box gap must be strict: boxes that only touch can hold a contact.
    calls = _count_proof_calls(monkeypatch)
    for a, b in ((tri(*a), tri(*b)), (tri(*b), tri(*a))):
        assert not boxes_apart(_coords(a), _coords(b)) and triangles_meet(a, b)
        calls.clear()
        r = brute_force_triangle_distance(a, b)
        assert calls == ["_separated", "_contact_witness"]
        assert (r.distance, r.point_a, r.point_b, r.counters) == (0.0, Point2(*contact), Point2(*contact), TestCounters())


def test_verify_draws_are_answered_by_the_sweep_alone():
    # Every draw is strictly separated along its axis, so its boxes have a
    # gap, and the oracle's kernel answers it by the sweep alone: the
    # sweep's answer, which run_verify takes as the exact distance, is the
    # oracle's, bit for bit.
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(500):
            a, b, _, _ = _separated_coords(rng)
            assert boxes_apart(a, b), (a, b)
            assert repr(_brute_force(a, b)[:7]) == repr(_edge_sweep(a, b)), (a, b)


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
