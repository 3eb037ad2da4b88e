"""Every algorithm judged by the exact reference, on inputs that exercise its rules.

``exact_reference`` decides without rounding whether two triangles meet
and, where they do not, their squared distance. On a disjoint pair the
oracle, GJK and Lin-Canny answer within a pinned number of ulps of the
correctly rounded exact distance, and DyOP, which prunes feature pairs
and so may overestimate by any amount, falls below it by no more than a
pinned number. Each witness lies on the feature it names, to within
2^-50 of the pair's largest coordinate, and the two witnesses lie the
answered distance apart. On a pair that meets, the oracle and GJK answer
0.0 at one point, and Lin-Canny refuses the pair as Penetrating.
Refusals, counters and flags follow their rules. Each bound is the worst
error measured on its input set, pinned with the number of answers that
are correctly rounded. The bits of today's answers are pinned elsewhere:
by the answer digest, by the chain tests that hold each kernel to its
definition, and by the verify document.
"""

import collections
import math
import random
from fractions import Fraction

import pytest

from dyop2d.baselines import gjk_distance, lin_canny_distance
from dyop2d.benchmark import ALGORITHMS
from dyop2d.dyop import MovementAxis, build_internal_aabb, compute_dyop, dominant_axis, dyop_distance, select_candidates
from dyop2d.errors import DegenerateInput, Penetrating, ZeroVelocity
from dyop2d.geometry import (
    FeatureKind,
    Point2,
    Segment,
    TestCounters,
    Triangle,
    Vector2,
    _orient,
    _point_in_triangle,
    _segment_segment,
    brute_force_triangle_distance,
    point_segment_distance,
    segment_segment_distance,
    triangles_overlap,
)
from dyop2d.verify import random_separated_pair
from exact_reference import (
    exact_segments_meet,
    exact_squared_distance,
    point_in_triangle,
    squared_distance_to_segment,
    triangles_meet,
    ulp_error,
)
from helpers import (
    GJK_RANGE_EXPONENT,
    OVERFLOW_SCALES,
    RANGE_EXPONENT,
    _bits,
    _cold_start,
    _coords,
    _edge_list,
    _grid_triangle,
    _into_range,
    _not_below,
    _pair_size,
    _value_or_error,
    _walk_by_definition,
    placed,
    regime_id,
    tri,
)

# (worst ulp error, answers correctly rounded) of each algorithm on the
# disjoint pairs of each input set, as measured; for DyOP the worst error
# below the exact distance, 0 or negative. Past the kernels' range the
# error in ulps of the distance grows with the pair's size over its
# distance, which the unit box shifted by 0.3 or by 8e307 makes large.
BOUNDS = {
    "placed": {"oracle": (0, 90), "gjk": (0, 90), "dyop": (0, 89), "lincanny": (0, 90)},
    "random 2024": {"oracle": (14, 3811), "gjk": (18, 3684), "dyop": (-7, 3591)},
    "random 2025": {"lincanny": (21, 3777)},
    "grid 7": {"oracle": (6, 984), "gjk": (9, 427), "dyop": (-5, 264)},
    "grid 8": {"point": (6, 4089), "segment": (6, 6990)},
    "grid 11": {"lincanny": (6, 460)},
    "hair apart": {"oracle": (0, 402), "dyop": (0, 402), "lincanny": (0, 402)},
    (1e150, 0.0): {"oracle": (115, 274), "gjk": (30, 213), "dyop": (-30, 207), "lincanny": (115, 47)},
    (1e154, 0.0): {"oracle": (61, 260), "gjk": (63, 212), "dyop": (-1, 200), "lincanny": (61, 43)},
    (1e155, 0.0): {"oracle": (85, 270), "gjk": (32, 211), "dyop": (-32, 211), "lincanny": (85, 43)},
    (1e300, 0.0): {"oracle": (146, 275), "gjk": (11, 229), "dyop": (-1, 213), "lincanny": (146, 42)},
    (1.0, 1.7e308): {},
    (1e307, 8e307): {"oracle": (840, 211), "gjk": (138, 196), "dyop": (-10, 196), "lincanny": (840, 7)},
}
# A witness may lie off its feature by this fraction of the pair's largest coordinate.
WITNESS_SLACK = Fraction(2.0**-50)


def _assert_bounds(errors, bounds):
    for name, measured in errors.items():
        worst, exact = bounds[name]
        if name == "dyop":
            assert min(measured) >= worst, name
        else:
            assert max(map(abs, measured)) <= worst, name
        assert measured.count(0) >= exact, name


def _on_feature(p, t, feature, size):
    """Whether p lies on the named feature of ``t``, taken exactly, to
    within WITNESS_SLACK of ``size``."""
    a = t.vertex(feature.index)
    b = a if feature.kind is FeatureKind.VERTEX else t.vertex((feature.index + 1) % 3)
    return squared_distance_to_segment(p.x, p.y, a.x, a.y, b.x, b.y) <= (WITNESS_SLACK * Fraction(size)) ** 2


def _assert_witnesses(r, a, b):
    """Each witness on its named feature, the two the answered distance apart."""
    size = _pair_size(a, b)
    assert _on_feature(r.point_a, a, r.feature_a, size), (a, b, r)
    assert _on_feature(r.point_b, b, r.feature_b, size), (a, b, r)
    assert math.hypot(r.point_a.x - r.point_b.x, r.point_a.y - r.point_b.y) == r.distance, (a, b, r)


def _extents_overlap(a, b, axis):
    """Whether the two triangles' extents along ``axis`` share more than a point."""
    coord = (lambda p: p.x) if axis is MovementAxis.X else (lambda p: p.y)
    ca, cb = [coord(p) for p in a.vertices], [coord(p) for p in b.vertices]
    return min(max(ca), max(cb)) > max(min(ca), min(cb))


def _oracle_rules(r, a, b, meet):
    # Nine ee tests, or none where the overlap test finds contact first.
    assert (r.counters, r.flags) == (TestCounters(0, 0, 0 if meet else 9), ()), (a, b, r)
    if not meet:
        return
    if r.feature_a.kind is r.feature_b.kind is FeatureKind.EDGE:
        # Edge contact: the crossing point, on both named edges.
        size = _pair_size(a, b)
        assert _on_feature(r.point_a, a, r.feature_a, size), (a, b, r)
        assert _on_feature(r.point_b, b, r.feature_b, size), (a, b, r)
    elif r.feature_b.kind is FeatureKind.VERTEX:
        assert r.point_b == b.v0 and point_in_triangle(b.v0.x, b.v0.y, a), (a, b, r)
    else:
        assert r.point_a == a.v0 and point_in_triangle(a.v0.x, a.v0.y, b), (a, b, r)


def _dyop_rules(r, a, b, velocity):
    flags = ("overlapping-boxes",) if _extents_overlap(a, b, dominant_axis(velocity)) else ()
    assert (r.counters, r.flags) == (TestCounters(0, 0, 1), flags), (a, b, velocity, r)


def _lin_canny_rules(r, pair, a, b):
    assert pair == (r.feature_a, r.feature_b)
    # The cold walk's own evaluations, from the facing vertex pair, on the
    # pair in range.
    a_in, b_in = _into_range(a, b)[:2]
    a_in, b_in = _coords(a_in), _coords(b_in)
    counters = TestCounters(*_walk_by_definition(a_in, b_in, *_cold_start(a_in, b_in))[7:])
    if r.flags == ():
        assert r.counters == counters, (a, b)
        return
    # A fallback takes the oracle's steps, so it is the oracle's answer.
    assert r.flags == ("lincanny-fallback",), (a, b)
    counters.ee_tests += 9
    assert r.counters == counters, (a, b)
    oracle = brute_force_triangle_distance(a, b)
    assert _bits((r.distance, r.point_a, r.point_b, r.feature_a, r.feature_b)) == _bits(
        (oracle.distance, oracle.point_a, oracle.point_b, oracle.feature_a, oracle.feature_b)
    ), (a, b)


def _judge(names, a, b, velocity, errors):
    """Hold each named algorithm's answer on (a, b) to its rules, and add its
    ulp error on a disjoint pair to ``errors[name]``. DyOP refuses a zero
    velocity before it looks at the triangles; DyOP, GJK and Lin-Canny
    refuse exactly the pairs with a degenerate triangle, and Lin-Canny the
    pairs that meet."""
    meet = triangles_meet(a, b)
    squared = None if meet else exact_squared_distance(a, b)
    degenerate = a.is_degenerate or b.is_degenerate
    for name in names:
        query = ALGORITHMS[name]
        if name == "dyop" and velocity.dx == velocity.dy == 0:
            with pytest.raises(ZeroVelocity):
                query(a, b, velocity)
            continue
        if name != "oracle" and degenerate:
            with pytest.raises(DegenerateInput):
                query(a, b, velocity)
            continue
        if name == "lincanny":
            if meet:
                with pytest.raises(Penetrating):
                    lin_canny_distance(a, b)
                continue
            r, pair = lin_canny_distance(a, b)
            _lin_canny_rules(r, pair, a, b)
        else:
            r = query(a, b, velocity)
        if name == "oracle":
            _oracle_rules(r, a, b, meet)
        elif name == "dyop":
            _dyop_rules(r, a, b, velocity)
        if not meet or name == "dyop":
            _assert_witnesses(r, a, b)
        if not meet:
            errors[name].append(ulp_error(r.distance, squared))
        elif name != "dyop":
            assert r.distance == 0.0 and r.point_a == r.point_b, (name, a, b, r)
    return meet


def test_default_scene_placed_pairs_match_reference():
    errors = collections.defaultdict(list)
    for a, b, velocity in placed("x", 1.0):
        _judge(("oracle", "gjk", "dyop"), a, b, velocity, errors)
    _assert_bounds(errors, BOUNDS["placed"])


def test_lin_canny_matches_reference_on_placed_pairs():
    errors = collections.defaultdict(list)
    for a, b, velocity in placed("x", 1.0):
        _judge(("lincanny",), a, b, velocity, errors)
    _assert_bounds(errors, BOUNDS["placed"])


def test_random_separated_pairs_match_reference():
    # Random pairs are disjoint by construction.
    rng = random.Random(2024)
    errors = collections.defaultdict(list)
    for _ in range(5000):
        assert not _judge(("oracle", "gjk", "dyop"), *random_separated_pair(rng), errors)
    _assert_bounds(errors, BOUNDS["random 2024"])


def test_lin_canny_matches_reference_on_random_pairs():
    rng = random.Random(2025)
    errors = collections.defaultdict(list)
    for _ in range(5000):
        assert not _judge(("lincanny",), *random_separated_pair(rng), errors)
    _assert_bounds(errors, BOUNDS["random 2025"])


def test_integer_grid_pairs_match_reference():
    # Small integer coordinates make ties, touching, collinear, degenerate
    # and overlapping triangles common; zero velocities occur too. The
    # overlap test agrees with the exact one on every pair.
    rng = random.Random(7)
    errors = collections.defaultdict(list)
    for _ in range(5000):
        a, b = _grid_triangle(rng), _grid_triangle(rng)
        velocity = Vector2(rng.randint(-2, 2), rng.randint(-2, 2))
        assert triangles_overlap(a, b) is _judge(("oracle", "gjk", "dyop"), a, b, velocity, errors), (a, b)
    _assert_bounds(errors, BOUNDS["grid 7"])


def test_lin_canny_matches_reference_on_grid():
    rng = random.Random(11)
    errors = collections.defaultdict(list)
    for _ in range(5000):
        a, b = _grid_triangle(rng), _grid_triangle(rng)
        assert triangles_overlap(a, b) is _judge(("lincanny",), a, b, None, errors), (a, b)
    _assert_bounds(errors, BOUNDS["grid 11"])


def _hair_apart_pairs():
    """A = (0, 0), (-1, 0.5), (-1, -0.5) against B = (eps, 0), (1, -1), (1, 1),
    both ways round: the vertices (0, 0) and (eps, 0) are closest, eps
    apart, at eps = 1e-20 and then at 200 seeded eps from 1e-30 to 1e-8."""
    rng = random.Random(36)
    a = tri((0, 0), (-1, 0.5), (-1, -0.5))
    for eps in [1e-20] + [10.0 ** rng.uniform(-30.0, -8.0) for _ in range(200)]:
        b = tri((eps, 0), (1, -1), (1, 1))
        yield a, b, Vector2(1.0, 0.0)
        yield b, a, Vector2(-1.0, 0.0)


def test_triangles_a_hair_apart_are_measured_with_their_vertices_as_witnesses():
    # A projection clamped to the end of an edge must take the end vertex
    # itself: computed as e + 1.0 * (f - e), the end (eps, 0) of B's edge 2
    # from (1, 1) rounds to (1 + (eps - 1), 0.0), which is (0.0, 0.0) for
    # eps up to 1e-17, where A's vertex (0, 0) would measure 0.0 to it.
    # Here every answer is exact, and a witness named as a vertex is that
    # vertex, int coordinates included. GJK is left out: it calls these
    # pairs intersecting by an absolute tolerance (ROADMAP item 14).
    names = ("oracle", "dyop", "lincanny")
    errors = collections.defaultdict(list)
    for a, b, velocity in _hair_apart_pairs():
        _judge(names, a, b, velocity, errors)
        for name in names:
            r = ALGORITHMS[name](a, b, velocity)
            for t, p, feature in ((a, r.point_a, r.feature_a), (b, r.point_b, r.feature_b)):
                if feature.kind is FeatureKind.VERTEX:
                    v = t.vertex(feature.index)
                    assert repr((p.x, p.y)) == repr((v.x, v.y)), (name, a, b, r)
    _assert_bounds(errors, BOUNDS["hair apart"])


def test_primitives_match_reference_on_grid():
    # Orientations are exact on small integers, so the segment test's
    # contact and the overlap test agree with the exact ones on every pair,
    # and the point-in-triangle test on every triangle of nonzero
    # orientation: one of zero orientation contains no point, since the
    # overlap test reaches it only after no edge pair touched. A point's or
    # a segment's distance is 0 exactly where the exact one is, and else
    # within its measured ulps.
    rng = random.Random(8)
    errors = collections.defaultdict(list)
    for _ in range(1500):
        a, b = _grid_triangle(rng), _grid_triangle(rng)
        assert triangles_overlap(a, b) is triangles_meet(a, b), (a, b)
        if _orient(*_coords(a)) != 0.0:
            assert _point_in_triangle(_coords(a), b.v0.x, b.v0.y) is point_in_triangle(b.v0.x, b.v0.y, a), (a, b)
        for ea, p in zip(_edge_list(_coords(a)), b.vertices):
            squared = squared_distance_to_segment(p.x, p.y, *ea)
            d = point_segment_distance(p, Segment(Point2(*ea[:2]), Point2(*ea[2:])))[0]
            errors["point"].append(ulp_error(d, squared) if squared else d)
            for eb in _edge_list(_coords(b)):
                meet = exact_segments_meet(*ea, *eb)
                assert _segment_segment(*ea, *eb)[7] is meet, (ea, eb)
                d = segment_segment_distance(*(Segment(Point2(*e[:2]), Point2(*e[2:])) for e in (ea, eb)))[0]
                if meet:
                    assert d == 0.0, (ea, eb)
                    continue
                ends = ((ea[:2], eb), (ea[2:], eb), (eb[:2], ea), (eb[2:], ea))
                squared = min(squared_distance_to_segment(*p, *e) for p, e in ends)
                errors["segment"].append(ulp_error(d, squared))
    _assert_bounds(errors, BOUNDS["grid 8"])


@pytest.mark.parametrize(
    "regime",
    [(axis, s, shift) for axis in "xy" for s in (1.0, 1e-2, 1e-3, 1e-6) for shift in (0.0, 5.0)],
    ids=regime_id,
)
def test_near_contact_answers_are_within_an_ulp_of_the_scale(regime):
    # The paper's regime: the default scene placed at s along x and along
    # y, and translated by (5, 5) after placement, away from the statics'
    # vertices at the origin. Every answer is within one ulp of the pair's
    # scale (2^-52 of its largest coordinate) of the exact distance, DyOP
    # from above; the worst is 0.69 of that, GJK's along y at s = 1e-3
    # shifted, and unshifted 0.38, along y at s = 1. In ulps of the
    # distance the same answers are up to 622,025 off (GJK along y at 1e-6;
    # 4,361,440 shifted), and the oracle 135,205 along x at 1e-6, where
    # DyOP is as far below the exact distance: near contact no bound in ulps
    # of the distance can judge, and the float oracle is no ground truth to
    # its last ulp.
    for a, b, velocity in placed(*regime):
        squared = exact_squared_distance(a, b)
        unit = Fraction(2.0**-52) * Fraction(_pair_size(a, b))
        for name, query in ALGORITHMS.items():
            d = Fraction(query(a, b, velocity).distance)
            assert squared <= (d + unit) ** 2, (name, a.name, b.name)
            assert name == "dyop" or d <= unit or (d - unit) ** 2 <= squared, (name, a.name, b.name)


def _midpoint(u, v):
    """The float nearest the exact midpoint of u and v."""
    return float((Fraction(u) + Fraction(v)) / 2)


def _assert_gap_box(box, a, b, axis):
    """The gap box's rule: on each axis the triangle ahead has the greater
    maximum, then the greater minimum, and a full tie puts B (1) ahead; the
    box spans from the trailing maximum to the ahead minimum, an inverted
    interval clamped to its midpoint, and ``degenerate_gap`` marks an
    inverted interval on the movement axis."""
    leading, higher, x_lo, y_lo, x_hi, y_hi, degenerate_gap = box
    aheads = (leading, higher) if axis is MovementAxis.X else (higher, leading)
    for name, ahead, lo, hi in (("x", aheads[0], x_lo, x_hi), ("y", aheads[1], y_lo, y_hi)):
        ca, cb = ([getattr(p, name) for p in t.vertices] for t in (a, b))
        front, back = (max(ca), min(ca)), (max(cb), min(cb))
        if ahead == 1:
            front, back = back, front
        assert front > back or (ahead == 1 and front == back), (a, b, axis)
        start, end = back[0], front[1]
        assert (lo, hi) == ((start, end) if start <= end else (_midpoint(start, end),) * 2), (a, b, axis)
        if name == axis.value:
            assert degenerate_gap is (start > end), (a, b, axis)


def _assert_candidates(t, pivot, chosen):
    """(i, j, edge): the two vertices nearest the pivot, nearer first, taken
    exactly, ties to the lower index, and the edge that joins them."""
    i, j, edge = chosen
    far = 3 - i - j
    assert sorted((i, j, far)) == [0, 1, 2] and {edge, (edge + 1) % 3} == {i, j}, (t, pivot)
    px, py = map(Fraction, pivot)
    squares = [(Fraction(p.x) - px) ** 2 + (Fraction(p.y) - py) ** 2 for p in t.vertices]
    assert (squares[i], i) < (squares[j], j) < (squares[far], far), (t, pivot)


def _box_cases(a, b):
    """The branches of the gap box's rule that (a, b) takes on each coordinate
    axis: which triangle is ahead and by what, and whether the interval
    between them is a gap or inverted."""
    cases = set()
    for name in ("x", "y"):
        coords_a, coords_b = [getattr(v, name) for v in a.vertices], [getattr(v, name) for v in b.vertices]
        lo_a, hi_a, lo_b, hi_b = min(coords_a), max(coords_a), min(coords_b), max(coords_b)
        if hi_a != hi_b:
            ahead = ("A" if hi_a > hi_b else "B") + " ahead by the maximum"
        elif lo_a != lo_b:
            ahead = ("A" if lo_a > lo_b else "B") + " ahead by the minimum"
        else:
            ahead = "full tie"
        trailing_hi, ahead_lo = (hi_b, lo_a) if ahead.startswith("A") else (hi_a, lo_b)
        cases |= {(name, ahead), (name, "gap" if trailing_hi <= ahead_lo else "inverted")}
    return cases


def test_stage_functions_match_reference():
    # Each DyOP stage on its own, against the rule it states.
    rng = random.Random(10)
    seen = set()
    for k in range(2000):
        if k % 2:
            a, b = _grid_triangle(rng), _grid_triangle(rng)
        else:
            a, b, _ = random_separated_pair(rng)
        for axis in MovementAxis:
            if a.is_degenerate or b.is_degenerate:
                with pytest.raises(DegenerateInput):
                    build_internal_aabb(a, b, axis)
                continue
            box = build_internal_aabb(a, b, axis)
            _assert_gap_box(box, a, b, axis)
            seen |= _box_cases(a, b)
            pivot = compute_dyop(box)
            assert pivot == (_midpoint(box[2], box[4]), _midpoint(box[3], box[5])), box
            for t in (a, b):
                chosen = select_candidates(t, pivot)
                _assert_candidates(t, pivot, chosen)
                seen.add(chosen)
    for name in ("x", "y"):
        for case in ("ahead by the maximum", "ahead by the minimum"):
            assert {(name, "A " + case), (name, "B " + case)} <= seen
        assert {(name, "full tie"), (name, "gap"), (name, "inverted")} <= seen
    assert {(0, 1, 0), (1, 0, 0), (0, 2, 2), (2, 0, 2), (1, 2, 1), (2, 1, 1)} <= seen


@pytest.mark.parametrize("scale, shift", OVERFLOW_SCALES)
def test_overflowing_coordinates_match_reference(scale, shift):
    # Near the float range intermediate values overflow on raw coordinates.
    # Every query runs on the pair scaled into its kernel's range by a power
    # of two, so each is judged as on any other pair: DyOP, GJK and the
    # oracle on B drawn apart from A, the oracle and Lin-Canny on a copy C
    # of A shifted by 0.3 of the unit box, which often overlaps A. The
    # overlap test agrees with the exact one, and calls every B apart from
    # A where it is not shifted. Shifted by 1.7e308, the unit-size pairs
    # round to one vertical line, and their y coordinates, under 16384
    # apart, cannot be scaled into range with squares that stay normal:
    # every query refuses every pair, DyOP, GJK and Lin-Canny as degenerate
    # first, as no pair is refused at the other scales.
    rng = random.Random(9)
    refused = set()
    errors = collections.defaultdict(list)
    for _ in range(300):
        a, b, velocity = random_separated_pair(rng)
        a = a.scaled(scale).translated(shift, 0.0)
        b = b.scaled(scale).translated(shift, 0.0)
        c = a.translated(0.3 * scale, 0.0)
        for other, names in ((b, ("oracle", "gjk", "dyop")), (c, ("oracle", "lincanny"))):
            refusal = _into_range(a, other)[3]
            refused.add(refusal is not None)
            if refusal is None:
                meet = _judge(names, a, other, velocity, errors)
                assert triangles_overlap(a, other) is meet, (a, other)
                assert not (meet and shift == 0.0 and other is b), (a, b)
                continue
            refusal = ("raised", ValueError, str(refusal))
            assert _value_or_error(triangles_overlap, a, other) == refusal
            for name in names:
                answer = _value_or_error(ALGORITHMS[name], a, other, velocity)
                if name != "oracle" and (a.is_degenerate or other.is_degenerate):
                    assert answer[:2] == ("raised", DegenerateInput), (name, a, other)
                else:
                    assert answer == refusal, (name, a, other)
    assert refused == {shift == 1.7e308}
    _assert_bounds(errors, BOUNDS[scale, shift])


def _near(distance, squared, rel=1e-12):
    """Whether ``distance`` is within ``rel`` of itself of the exact root of
    ``squared``: 0 only where ``squared`` is 0."""
    d = Fraction(distance)
    return (d * (1 - Fraction(rel))) ** 2 <= squared <= (d * (1 + Fraction(rel))) ** 2


def _sliver_pairs():
    """(a, b, gap): a sliver A of length L and half-width w whose tip is the
    origin, and a triangle B of size gap whose nearest vertex lies gap
    beyond that tip, at distance gap; along x either way and along y.
    Every edge from a far vertex ends at the origin, and every edge of B
    at a vertex that a projection clamped to that end reaches exactly, so
    the kernels answer these in range. (B is no smaller than 1e-5, so
    that it is not degenerate.)"""
    for length in (1e150, 1e154, 1e155, 1e200, 1e300, 1.7e308):
        for width in (1e-90, 1e-10, 1.0, 1e100, 1e140):
            for gap in (1e-5, 1.0, 1e60, 1e145):
                a = ((0.0, 0.0), (-length, -width), (-length, width))
                b = ((gap, 0.0), (2 * gap, -gap), (2 * gap, gap))
                for sx, swap in ((1.0, False), (-1.0, False), (1.0, True)):
                    pair = [[(sx * y, x) if swap else (sx * x, y) for x, y in t] for t in (a, b)]
                    yield *(Triangle(*(Point2(*p) for p in t)) for t in pair), gap


def test_wide_pairs_at_the_float_range_answer_or_refuse():
    # A long sliver and a small triangle near its tip: the pair spans up to
    # about 2^1322. Each query answers within 1e-12 of the distance of the
    # exact distance, or, where the pair cannot be scaled into its
    # kernel's range with its small differences kept clear of underflow,
    # refuses it with that ValueError; DyOP's answer is not below the exact
    # distance. Nothing answered calls the pair overlapping.
    velocity = Vector2(1.0, 0.0)
    outcomes = set()
    for a, b, gap in _sliver_pairs():
        squared = exact_squared_distance(a, b)
        assert Fraction(gap) ** 2 == squared, (a, b)
        for name, query, exponent in (
            ("oracle", brute_force_triangle_distance, RANGE_EXPONENT),
            ("overlap", triangles_overlap, RANGE_EXPONENT),
            ("dyop", lambda t, u: dyop_distance(t, u, velocity), RANGE_EXPONENT),
            ("lincanny", lambda t, u: lin_canny_distance(t, u)[0], RANGE_EXPONENT),
            ("gjk", gjk_distance, GJK_RANGE_EXPONENT),
        ):
            refusal = _into_range(a, b, exponent)[3]
            got = _value_or_error(query, a, b)
            if refusal is not None:
                assert got == ("raised", ValueError, str(refusal)), (name, a, b)
                outcomes.add((name, "refused"))
                continue
            assert got[0] == "ok", (name, a, b, got)
            result = query(a, b)
            if name == "overlap":
                assert result is False, (a, b)
            elif name == "dyop":
                assert _not_below(result.distance, squared), (a, b)
            else:
                assert _near(result.distance, squared), (name, a, b, result.distance)
            outcomes.add((name, "answered"))
    names = ("oracle", "overlap", "dyop", "lincanny", "gjk")
    assert outcomes == {(name, outcome) for name in names for outcome in ("answered", "refused")}


@pytest.mark.parametrize("k", [0, 20, 300, 520])
def test_two_slivers_1e_minus_90_apart(k):
    # Two slivers 1e150 long whose nearest features are 2e-90 and 1e-90
    # wide, 1e-90 apart, scaled by 2**k: in range at 2**0 and 2**20 for
    # all but GJK, and past it, without a difference small enough to
    # refuse, at 2**300 and 2**520. The oracle and Lin-Canny answer the
    # distance and the overlap test calls them apart at every scale. GJK's
    # range is 2^250, into which this pair does not scale with its small
    # differences above 2^-240, so GJK refuses it.
    s = 2.0**k
    a = Triangle(Point2(-1e150 * s, 0.0), Point2(0.0, -1e-90 * s), Point2(0.0, 1e-90 * s))
    b = Triangle(Point2(1e-90 * s, 0.0), Point2(1e150 * s, -1e-90 * s), Point2(1e150 * s, 1e-90 * s))
    assert brute_force_triangle_distance(a, b).distance == 1e-90 * s
    assert lin_canny_distance(a, b)[0].distance == 1e-90 * s
    assert triangles_overlap(a, b) is False
    with pytest.raises(ValueError, match="does not scale into range"):
        gjk_distance(a, b)
