"""The float-coordinate core against a frozen copy of the original object-based code.

Every answer must be bit-identical: distance, witness coordinates
(including the sign of zero), features, counters and flags, or the same
exception type. GJK is held to this too, against a frozen copy that
re-validates its Simplex (size 1 to 3, no duplicate support point) on
every iteration. Lin-Canny raises the frozen copy's exception type, but
its answers are held to the oracle, not to the frozen walk: a certified
walk realizes its distance and equals the oracle's to within 4 ulp, and
a fallback is the oracle's nine-edge sweep bit for bit. DyOP runs only the edge-edge test of the frozen copy's nine candidate
tests, so its distance, flags and exceptions are bit-identical but its
witnesses and features may differ on ties.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

import seed_reference as ref
from dyop2d.baselines import FeaturePair, gjk_distance, lin_canny_distance
from dyop2d.benchmark import ALGORITHM_ERRORS, default_scene, place_pair
from dyop2d.dyop import (
    MovementAxis,
    build_internal_aabb,
    compute_dyop,
    dominant_axis,
    dyop_distance,
    select_candidates,
)
from dyop2d.errors import DegenerateInput
from dyop2d.geometry import (
    Point2,
    Segment,
    TestCounters,
    Triangle,
    Vector2,
    _edges,
    _intersect,
    _point_in_triangle,
    brute_force_triangle_distance,
    point_segment_distance,
    segment_segment_distance,
    triangles_overlap,
)
from dyop2d.verify import random_separated_pair
from exact_reference import exact_squared_distance


def _bits(value):
    """A comparable form of an answer that tells -0.0 from 0.0 and 3 from 3.0."""
    if isinstance(value, (int, float)):
        return repr(value)
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value).__name__,) + tuple(_bits(getattr(value, f.name)) for f in fields)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _outcome(fn, *args):
    try:
        return "ok", _bits(fn(*args))
    except Exception as exc:  # the exception type is part of the answer
        return "raised", type(exc)


def _value_or_error(fn, *args):
    """Like ``_outcome``, with the exception's message as part of the answer."""
    try:
        return "ok", _bits(fn(*args))
    except Exception as exc:
        return "raised", type(exc), str(exc)


def _assert_same(new, old, *args):
    assert _outcome(new, *args) == _outcome(old, *args), args


def _realizes_distance(r):
    return math.hypot(r.point_a.x - r.point_b.x, r.point_a.y - r.point_b.y) == r.distance


def _witness_bits(r):
    return _bits((r.point_a, r.point_b, r.feature_a, r.feature_b))


def _assert_dyop_matches_reference(a, b, velocity):
    try:
        old = ref.dyop_distance(a, b, velocity)
    except Exception as exc:
        assert _outcome(dyop_distance, a, b, velocity) == ("raised", type(exc)), (a, b)
        return
    new = dyop_distance(a, b, velocity)
    assert repr(new.distance) == repr(old.distance), (a, b, velocity)
    assert new.flags == old.flags
    # The frozen copy counts 4 vv, 4 ve and 1 ee test; only the ee test runs now.
    assert (new.counters.vv_tests, new.counters.ve_tests, new.counters.ee_tests) == (0, 0, 1)
    if _witness_bits(new) != _witness_bits(old):
        # A tie between equal distances: each answer realizes the distance.
        assert _realizes_distance(new) and _realizes_distance(old), (a, b, velocity)


def _assert_pair_same(a, b, velocity):
    _assert_dyop_matches_reference(a, b, velocity)
    _assert_same(brute_force_triangle_distance, ref.brute_force_triangle_distance, a, b)
    _assert_same(gjk_distance, ref.gjk_distance, a, b)


def test_default_scene_placed_pairs_match_reference():
    scene = default_scene()
    n = len(scene.objects)
    for i in range(n):
        for j in range(n):
            if i != j:
                _assert_pair_same(*place_pair(scene, (i, j)))


def test_random_separated_pairs_match_reference():
    rng = random.Random(2024)
    for _ in range(5000):
        _assert_pair_same(*random_separated_pair(rng))


def _grid_triangle(rng):
    return Triangle(*(Point2(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)))


def test_integer_grid_pairs_match_reference():
    # Small integer coordinates make ties, touching, collinear, degenerate
    # and overlapping triangles common; zero velocities occur too.
    rng = random.Random(7)
    for _ in range(5000):
        a, b = _grid_triangle(rng), _grid_triangle(rng)
        velocity = Vector2(rng.randint(-2, 2), rng.randint(-2, 2))
        _assert_pair_same(a, b, velocity)


def _intersection(s1, s2):
    return _intersect(s1.a.x, s1.a.y, s1.b.x, s1.b.y, s2.a.x, s2.a.y, s2.b.x, s2.b.y)


def _reference_intersection(s1, s2):
    # The frozen test returns a point; the kernel returns its (x, y).
    hit = ref._segment_intersection(s1, s2)
    return None if hit is None else (hit.x, hit.y)


def test_primitives_match_reference_on_grid():
    rng = random.Random(8)
    for _ in range(1500):
        a, b = _grid_triangle(rng), _grid_triangle(rng)
        _assert_same(triangles_overlap, ref.triangles_overlap, a, b)
        _assert_same(
            lambda t, p: _point_in_triangle(_edges(t), p.x, p.y), ref.point_in_triangle, a, b.v0
        )
        for i in range(3):
            ea = Segment(a.vertex(i), a.vertex((i + 1) % 3))
            for j in range(3):
                eb = Segment(b.vertex(j), b.vertex((j + 1) % 3))
                _assert_same(segment_segment_distance, ref.segment_segment_distance, ea, eb)
                _assert_same(_intersection, _reference_intersection, ea, eb)
            _assert_same(point_segment_distance, ref.point_segment_distance, b.vertex(i), ea)


# The reference's stages on the package's tuples: its InternalAabb, DyopPoint
# and candidate pair, read as the tuples the package's stages return.
def _ref_gap_box(a, b, axis):
    ia = ref.build_internal_aabb(a, b, axis)
    lo, hi = ia.box.min, ia.box.max
    return ia.leading, ia.higher, lo.x, lo.y, hi.x, hi.y, ia.degenerate_gap


def _ref_pivot(box):
    leading, higher, x_lo, y_lo, x_hi, y_hi, degenerate_gap = box
    ia = ref.InternalAabb(ref.Aabb(Point2(x_lo, y_lo), Point2(x_hi, y_hi)), leading, higher, degenerate_gap)
    p = ref.compute_dyop(ia).point
    return p.x, p.y


def _ref_candidates(tri, pivot):
    (i, j), edge = ref.select_candidates(tri, ref.DyopPoint(Point2(*pivot)))
    return i, j, edge


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
    rng = random.Random(10)
    seen = set()
    for k in range(2000):
        if k % 2:
            a, b = _grid_triangle(rng), _grid_triangle(rng)
        else:
            a, b, _ = random_separated_pair(rng)
        for axis in MovementAxis:
            _assert_same(build_internal_aabb, _ref_gap_box, a, b, axis)
            try:
                box = build_internal_aabb(a, b, axis)
            except DegenerateInput:
                continue
            seen |= _box_cases(a, b)
            _assert_same(compute_dyop, _ref_pivot, box)
            pivot = compute_dyop(box)
            _assert_same(select_candidates, _ref_candidates, a, pivot)
            _assert_same(select_candidates, _ref_candidates, b, pivot)
            seen |= {select_candidates(a, pivot), select_candidates(b, pivot)}
    for name in ("x", "y"):
        for case in ("ahead by the maximum", "ahead by the minimum"):
            assert {(name, "A " + case), (name, "B " + case)} <= seen
        assert {(name, "full tie"), (name, "gap"), (name, "inverted")} <= seen
    assert {(0, 1, 0), (1, 0, 0), (0, 2, 2), (2, 0, 2), (1, 2, 1), (2, 1, 1)} <= seen


# (scale, shift) of pairs whose intermediate values overflow near the float range.
OVERFLOW_SCALES = [(1e150, 0.0), (1e154, 0.0), (1e155, 0.0), (1e300, 0.0), (1.0, 1.7e308), (1e307, 8e307)]


def _infinite_squares(a, b, velocity):
    """The most squared distances to the pivot, as products, that overflow
    to inf in one triangle; None when the gap box refuses the pair. An
    overflowed pivot is not refused: all three squares to it are inf."""
    try:
        px, py = compute_dyop(build_internal_aabb(a, b, dominant_axis(velocity)))
    except ValueError:
        return None
    return max(
        sum((p.x - px) * (p.x - px) + (p.y - py) * (p.y - py) == math.inf for p in t.vertices) for t in (a, b)
    )


def _not_below(distance, squared, slack=1e-12):
    """Whether ``distance`` is at least the exact root of ``squared``, less a
    relative ``slack``."""
    return Fraction(distance) ** 2 >= squared * Fraction(1.0 - slack) ** 2


def _assert_dyop_at_float_range(a, b, velocity):
    # The frozen copy squared with ``** 2`` and refused wherever libm's pow
    # overflowed. DyOP refuses only where its candidate choice is undecided,
    # two or more infinite squares in one triangle; one infinite square is
    # the farthest vertex. Where the frozen copy answered otherwise, DyOP
    # keeps its bits; where it refused, DyOP may refuse or answer, but never
    # below the exact distance.
    infinite = _infinite_squares(a, b, velocity)
    if infinite is not None and infinite > 1:
        assert _outcome(dyop_distance, a, b, velocity) == ("raised", OverflowError), (a, b)
    elif _outcome(ref.dyop_distance, a, b, velocity)[0] == "ok":
        _assert_dyop_matches_reference(a, b, velocity)
    else:
        try:
            new = dyop_distance(a, b, velocity)
        except ALGORITHM_ERRORS:
            return
        assert _not_below(new.distance, exact_squared_distance(a, b)), (a, b)


@pytest.mark.parametrize("scale, shift", OVERFLOW_SCALES)
def test_overflowing_coordinates_match_reference(scale, shift):
    # Near the float range intermediate points overflow; the original code
    # refused them with ValueError wherever it built a Point2. A copy of
    # the first triangle shifted by 0.3 of the unit box often overlaps it:
    # the oracle's sweep and certificate may overflow there, and the
    # overlap test must still answer as it did when it ran first.
    rng = random.Random(9)
    for _ in range(300):
        a, b, velocity = random_separated_pair(rng)
        a = a.scaled(scale).translated(shift, 0.0)
        b = b.scaled(scale).translated(shift, 0.0)
        _assert_dyop_at_float_range(a, b, velocity)
        _assert_same(brute_force_triangle_distance, ref.brute_force_triangle_distance, a, b)
        _assert_same(gjk_distance, ref.gjk_distance, a, b)
        _assert_same(triangles_overlap, ref.triangles_overlap, a, b)
        c = a.translated(0.3 * scale, 0.0)
        _assert_same(brute_force_triangle_distance, ref.brute_force_triangle_distance, a, c)
        if _outcome(ref.lin_canny_distance, a, c)[0] == "raised":
            _assert_same(lin_canny_distance, ref.lin_canny_distance, a, c)


def _assert_lin_canny_matches_reference(a, b):
    try:
        ref.lin_canny_distance(a, b)
    except Exception as exc:
        with pytest.raises(type(exc)):
            lin_canny_distance(a, b)
        return
    new, new_pair = lin_canny_distance(a, b)
    exact = brute_force_triangle_distance(a, b)
    assert new_pair == FeaturePair(new.feature_a, new.feature_b)
    # The cold walk's own evaluations, from the vertex pair (0, 0). The
    # walk's definition lives in test_baselines, which imports this module,
    # so it is imported here, once both modules are loaded.
    from test_baselines import _walk_by_definition

    walk_counters = TestCounters(*_walk_by_definition(_edges(a), _edges(b), 0, 0)[7:])
    if new.flags == ():
        # A certified walk reports its own witnesses; a tie realized by
        # another feature pair may round differently from the oracle's.
        assert _realizes_distance(new), (a, b)
        assert abs(new.distance - exact.distance) <= 4 * math.ulp(exact.distance), (a, b)
        assert new.counters == walk_counters
        return
    assert new.flags == ("lincanny-fallback",)
    assert _witness_bits(new) == _witness_bits(exact), (a, b)
    assert repr(new.distance) == repr(exact.distance), (a, b)
    walk_counters.ee_tests += 9
    assert new.counters == walk_counters


def test_lin_canny_matches_reference_on_placed_pairs():
    scene = default_scene()
    n = len(scene.objects)
    for i in range(n):
        for j in range(n):
            if i != j:
                a, b, _ = place_pair(scene, (i, j))
                _assert_lin_canny_matches_reference(a, b)


def test_lin_canny_matches_reference_on_random_pairs():
    rng = random.Random(2025)
    for _ in range(5000):
        a, b, _ = random_separated_pair(rng)
        _assert_lin_canny_matches_reference(a, b)


def test_lin_canny_matches_reference_on_grid():
    rng = random.Random(11)
    for _ in range(5000):
        _assert_lin_canny_matches_reference(_grid_triangle(rng), _grid_triangle(rng))
