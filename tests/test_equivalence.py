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
import itertools
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
from dyop2d.errors import DegenerateInput, Penetrating, ZeroVelocity
from dyop2d.geometry import (
    Point2,
    Segment,
    TestCounters,
    Triangle,
    Vector2,
    _point_in_triangle,
    _segment_segment,
    brute_force_triangle_distance,
    point_segment_distance,
    segment_segment_distance,
    triangles_overlap,
)
from dyop2d.verify import random_separated_pair
from exact_reference import _point_segment_squared, exact_squared_distance


def _coords(t):
    """The triangle's six coordinates (x0, y0, x1, y1, x2, y2), the layout every kernel reads."""
    return tuple(v for p in t.vertices for v in (p.x, p.y))


def _edge_list(c):
    """The three edges (ax, ay, bx, by) of the coordinates ``c``, edge i from vertex i to (i + 1) % 3."""
    return tuple((c + c)[2 * i : 2 * i + 4] for i in range(3))


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


# The kernels' ranges, as exponents of two: 2^510 for the oracle, DyOP,
# Lin-Canny, the overlap test and placement, 2^250 for GJK. Each public entry
# scales a pair past its kernel's range into it by one power of two.
RANGE_EXPONENT, GJK_RANGE_EXPONENT = 510, 250
RANGE = 2.0**RANGE_EXPONENT


def _pair_size(a, b):
    return max(abs(v) for t in (a, b) for p in t.vertices for v in (p.x, p.y))


def _too_wide(xs, ys, values, k, exponent):
    """The ValueError with which an entry refuses to scale by 2**k, into the
    range 2^exponent, a pair with x coordinates ``xs``, y coordinates ``ys``
    and lengths ``values`` when some two coordinates along one axis, or a
    value, are nonzero and less than 2^(10 - exponent) apart once scaled;
    else None. Taken exactly, over every two coordinates."""
    floor = Fraction(2) ** (10 - exponent - k)
    gaps = [Fraction(u) - Fraction(v) for axis in (xs, ys) for u, v in itertools.combinations(axis, 2)]
    if any(0 < abs(g) < floor for g in gaps + [Fraction(v) for v in values]):
        return ValueError(f"a difference or length below {float(floor)!r} does not scale into range")
    return None


def _into_range(a, b, exponent=RANGE_EXPONENT):
    """(a, b, up, refusal): the pair scaled by the power of two that brings
    its largest coordinate into [2^(exponent - 1), 2^exponent), the power
    that scales back, and ``_too_wide``'s ValueError for it; a pair in
    range as it is, with up = 1.0 and no refusal. DEGENERATE_AREA bounds
    the area in the pair's own units, so the scaled triangles keep the
    flags of the pair."""
    size = _pair_size(a, b)
    if size <= 2.0**exponent:
        return a, b, 1.0, None
    k = exponent - math.frexp(size)[1]
    points = [p for t in (a, b) for p in t.vertices]
    refusal = _too_wide([p.x for p in points], [p.y for p in points], (), k, exponent)
    scaled = a.scaled(2.0**k), b.scaled(2.0**k)
    for t, original in zip(scaled, (a, b)):
        object.__setattr__(t, "is_degenerate", original.is_degenerate)
    return *scaled, 2.0**-k, refusal


def _scaled_into_range(fn, exponent=RANGE_EXPONENT):
    """``fn`` on a pair run on it ``_into_range``, with the distance and
    witnesses of its answer scaled back. An answer may come first in a
    tuple. A pair too wide to scale raises its refusal, unless ``fn``
    refuses it first as degenerate or for a zero velocity, as the entries
    do before they scale."""

    def run(a, b, *args):
        a, b, up, refusal = _into_range(a, b, exponent)
        try:
            answer = fn(a, b, *args)
        except (DegenerateInput, ZeroVelocity):
            raise
        except Exception:
            if refusal is None:
                raise
        if refusal is not None:
            raise refusal
        if up == 1.0:
            return answer
        r = answer[0] if isinstance(answer, tuple) else answer
        r = dataclasses.replace(
            r,
            distance=r.distance * up,
            point_a=Point2(r.point_a.x * up, r.point_a.y * up),
            point_b=Point2(r.point_b.x * up, r.point_b.y * up),
        )
        return (r, *answer[1:]) if isinstance(answer, tuple) else r

    return run


def _realizes_distance(r):
    return math.hypot(r.point_a.x - r.point_b.x, r.point_a.y - r.point_b.y) == r.distance


def _witness_bits(r):
    return _bits((r.point_a, r.point_b, r.feature_a, r.feature_b))


def _assert_dyop_matches_reference(a, b, velocity, reference=ref.dyop_distance):
    try:
        old = reference(a, b, velocity)
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
    _, hx, hy, _, _, _, _, contact = _segment_segment(s1.a.x, s1.a.y, s1.b.x, s1.b.y, s2.a.x, s2.a.y, s2.b.x, s2.b.y)
    return (hx, hy) if contact else None


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
            lambda t, p: _point_in_triangle(_coords(t), p.x, p.y), ref.point_in_triangle, a, b.v0
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


def _near(distance, squared, rel=1e-12):
    """Whether ``distance`` is within ``rel`` of itself of the exact root of
    ``squared``: 0 only where ``squared`` is 0."""
    d = Fraction(distance)
    return (d * (1 - Fraction(rel))) ** 2 <= squared <= (d * (1 + Fraction(rel))) ** 2


def _on_segment(px, py, ax, ay, bx, by, rel=2.0**-50):
    """Whether point p lies on the closed segment ab up to rounding: taken
    exactly, no farther from it than ``rel`` of ab's largest coordinate."""
    p, a, b = (Fraction(px), Fraction(py)), (Fraction(ax), Fraction(ay)), (Fraction(bx), Fraction(by))
    return _point_segment_squared(p, a, b) <= (Fraction(rel) * max(map(abs, (*a, *b)))) ** 2


def _on_edge(p, tri, i):
    """Whether point p lies on edge i of ``tri`` up to rounding."""
    a, b = tri.vertex(i), tri.vertex((i + 1) % 3)
    return _on_segment(p.x, p.y, a.x, a.y, b.x, b.y)


@pytest.mark.parametrize("scale, shift", OVERFLOW_SCALES)
def test_overflowing_coordinates_match_reference(scale, shift):
    # Near the float range intermediate values overflow on raw coordinates:
    # the original code refused some pairs with ValueError wherever it
    # built a Point2, and answered others off the mark where an overflow
    # went unchecked. Every query now runs on the pair scaled into its
    # kernel's range by a power of two, so each answers as the frozen copy
    # answers that pair, scaled back: bit for bit (GJK's tolerances, which
    # it scales with the pair and the frozen copy does not, decide nothing
    # on these pairs), and DyOP as _assert_dyop_matches_reference holds
    # it. At 1e150, past GJK's range
    # of 2^250 but not past the others', GJK also answers as the frozen
    # copy does on the raw pair wherever that answers: its tolerances,
    # scaled with the pair, decide as there. The oracle, GJK and
    # Lin-Canny answer within 1e-12 of the distance of the exact distance,
    # 0 where the overlap test finds contact, where Lin-Canny refuses the
    # pair as Penetrating. Unshifted, the overlap test calls every pair B
    # drawn apart from A disjoint, where the frozen copy called some
    # overlapping. A copy C of A shifted by 0.3 of the unit box often
    # overlaps A. Shifted by 1.7e308, the unit-size pairs round to one
    # vertical line, and their y coordinates, under 16384 apart, cannot be
    # scaled into range with squares that stay normal: every query refuses
    # every pair, as no pair is refused at the other scales. On a contact
    # answer the oracle's witness is the exception: it is the crossing point
    # taken from the orientations, which the frozen copy divides out another
    # way, so it is held to A's named edge up to rounding, and the distance,
    # features, counters and flags to the frozen copy's bits.
    # (exact_squared_distance is the distance of disjoint triangles only.)
    rng = random.Random(9)
    refused = set()
    oracle = _scaled_into_range(ref.brute_force_triangle_distance)
    for _ in range(300):
        a, b, velocity = random_separated_pair(rng)
        a = a.scaled(scale).translated(shift, 0.0)
        b = b.scaled(scale).translated(shift, 0.0)
        c = a.translated(0.3 * scale, 0.0)
        _assert_dyop_matches_reference(a, b, velocity, _scaled_into_range(ref.dyop_distance))
        _assert_same(gjk_distance, _scaled_into_range(ref.gjk_distance, GJK_RANGE_EXPONENT), a, b)
        raw = _outcome(ref.gjk_distance, a, b)
        if scale == 1e150 and raw[0] == "ok":
            assert _outcome(gjk_distance, a, b) == raw, (a, b)
        for other in (b, c):
            answer = _value_or_error(brute_force_triangle_distance, a, other)
            expected = _value_or_error(oracle, a, other)
            if answer[0] == expected[0] == "ok" and expected[1][1] == "0.0":
                assert answer[1][:2] + answer[1][4:] == expected[1][:2] + expected[1][4:], (a, other)
                r = brute_force_triangle_distance(a, other)
                assert r.point_a == r.point_b and _on_edge(r.point_a, a, r.feature_a.index), (a, other)
            else:
                assert answer == expected, (a, other)
            refusal = _into_range(a, other)[3]
            refused.add(refusal is not None)
            if refusal is not None:
                assert answer == ("raised", ValueError, str(refusal))
                assert _value_or_error(triangles_overlap, a, other) == answer
                continue
            contact = triangles_overlap(a, other)
            assert contact is ref.triangles_overlap(*_into_range(a, other)[:2]), (a, other)
            if shift == 0.0 and other is b:
                assert contact is False, (a, b)
            squared = 0 if contact else exact_squared_distance(a, other)
            assert _near(brute_force_triangle_distance(a, other).distance, squared), (a, other)
            if a.is_degenerate or other.is_degenerate:
                continue
            if other is b:
                assert _near(gjk_distance(a, b).distance, squared), (a, b)
            elif contact:
                with pytest.raises(Penetrating):
                    lin_canny_distance(a, c)
            else:
                assert _near(lin_canny_distance(a, c)[0].distance, squared), (a, c)
    assert refused == {shift == 1.7e308}


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

    walk_counters = TestCounters(*_walk_by_definition(_coords(a), _coords(b), 0, 0)[7:])
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
