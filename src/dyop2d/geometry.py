"""2D primitives, the answer types and the brute-force oracle.

The float core that every algorithm in the package runs on. Where each
rule is stated:

- a triangle's winding and degeneracy: ``_winding``; what a ``Triangle``
  keeps from construction (``coords``, ``is_degenerate``, ``is_huge``):
  ``Triangle``;
- the overflow rule, on the one path from a query to its kernel:
  ``_pair``, which scales by ``_pair_scale``, and ``_points_in_range``
  for the point and segment queries;
- how every answer is built and scaled back: ``_answer``;
- a clamped projection: ``_project``;
- whether two segments touch: ``_segment_segment``; its answer without
  the contact half: ``_segment_projections``;
- the overlap test: ``_contact_witness``, with ``_point_in_triangle``;
- the oracle: ``brute_force_triangle_distance`` states its contract and
  ``_brute_force`` its steps: the box test, the nine-edge sweep
  ``_edge_sweep``, the certificate ``_separated`` and the overlap test;
- how the sweep's text is generated and shown: ``_edge_sweep_text`` and
  ``_define_edge_sweep``.
"""

from __future__ import annotations

import linecache
import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

# Triangles with |signed area| at or below this are treated as degenerate.
DEGENERATE_AREA = 1e-12
# The kernels' ranges, as exponents of two (``_pair`` states the rule). A
# triangle records whether it has a coordinate past the smaller one.
_RANGE_EXPONENT = 510
_GJK_RANGE_EXPONENT = 250
_HUGE = math.ldexp(1.0, _GJK_RANGE_EXPONENT)


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite coordinate: {v!r}")


class _Point2(NamedTuple):
    x: float
    y: float


class Point2(_Point2):
    """A point in scene units: a tuple (x, y) of finite coordinates.

    ``NamedTuple`` refuses a ``__new__`` of its own, so the validating
    constructor sits on this subclass. ``_make``, which ``_replace`` calls,
    would skip it, so it calls the constructor too.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> Point2:
        if not (math.isfinite(x) and math.isfinite(y)):
            _require_finite(x, y)
        return tuple.__new__(cls, (x, y))

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> Point2:
        return cls(*iterable)

    def translated(self, dx: float, dy: float) -> Point2:
        x, y = self
        return Point2(x + dx, y + dy)

    def scaled(self, s: float) -> Point2:
        x, y = self
        return Point2(x * s, y * s)


@dataclass(frozen=True)
class Vector2:
    """A displacement, e.g. a relative velocity between two objects."""

    dx: float
    dy: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)):
            _require_finite(self.dx, self.dy)


@dataclass(frozen=True)
class Segment:
    """A closed segment; a == b is a valid degenerate point-segment."""

    a: Point2
    b: Point2


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Twice the signed area of abc: >0 when c is left of a->b."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _winding(
    x0: float, y0: float, x1: float, y1: float, x2: float, y2: float, area: float = DEGENERATE_AREA
) -> tuple[bool, bool]:
    """(clockwise, degenerate) of the triangle (x0, y0), (x1, y1), (x2, y2).

    The one input rule for triangles: its orientation, twice its signed
    area, computed once, says by its sign whether v1 and v2 must swap to
    make it counter-clockwise, and by its half whether it is degenerate
    (|area| <= ``area``, DEGENERATE_AREA unless the coordinates were
    scaled). The sign is taken before halving, since half of the smallest
    negative orientation, -5e-324, rounds to -0.0. Swapping v1 and v2
    negates the orientation exactly, so both answers hold for the
    normalized vertices.
    """
    orientation = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    return orientation < 0.0, abs(0.5 * orientation) <= area


def _pair_scale(exponent: int, xs: list[float], ys: list[float], *values: float) -> float:
    """1.0 when the x coordinates ``xs``, the y coordinates ``ys`` and the
    lengths ``values`` of a pair are at most 2^exponent in magnitude, else
    the power of two f that scales the largest into [2^(exponent - 1),
    2^exponent). Scaling by f, and back by dividing by it, is exact
    wherever it does not underflow, so past the range it raises
    ValueError when it would take a nonzero difference of two coordinates
    along one axis, or a nonzero value, below 2^(10 - exponent). The
    kernels square and multiply these, and the floor keeps a product of
    two at least 2^-1000 in the 2^510 range, and GJK's products of four at
    least 2^-960 in the 2^250 range: normal, so rounded as in range."""
    size = max(map(abs, (*xs, *ys, *values)))
    if size <= math.ldexp(1.0, exponent):
        return 1.0
    f = math.ldexp(1.0, exponent - math.frexp(size)[1])
    floor = math.ldexp(1.0, 10 - exponent) / f
    gaps = [hi - lo for vs in (sorted(xs), sorted(ys)) for lo, hi in zip(vs, vs[1:])]
    if any(0.0 < v < floor for v in (*gaps, *map(abs, values))):
        raise ValueError(f"a difference or length below {floor!r} does not scale into range")
    return f


# A triangle's six coordinates (x0, y0, x1, y1, x2, y2): vertex i at 2i and
# 2i + 1, and edge i from vertex i to vertex (i + 1) % 3.
_Coords = tuple[float, float, float, float, float, float]


@dataclass(frozen=True)
class Triangle:
    """Three vertices, normalized to counter-clockwise order on construction.

    Normalization (swapping v1/v2 when the input winds clockwise) makes
    vertex and edge indexing orientation-independent. One ``_winding``
    call decides the swap and ``is_degenerate``: a degenerate triangle is
    representable, and the algorithms that cannot handle one refuse it by
    that flag. ``is_huge`` records a coordinate past 2^250 in magnitude,
    for ``_pair``. Past 2^510 both products of the orientation can
    overflow, and inf - inf is NaN, which reads as neither clockwise nor
    degenerate: only then are winding and degeneracy decided on the
    coordinates scaled into range by one power of two, with the area
    bound scaled alike. Every other orientation, an infinite one too,
    has its sign on raw coordinates. After the swap the six coordinates
    are kept as ``coords`` (``_Coords``), the tuple every kernel reads,
    so that no query flattens the triangle. The two flags and ``coords``
    are non-field attributes, so they stay out of ``fields()``, ``repr``,
    ``==`` and ``hash``; like the fields, they cannot be assigned.
    """

    v0: Point2
    v1: Point2
    v2: Point2
    name: str | None = None

    def __post_init__(self) -> None:
        v0, v1, v2 = self.v0, self.v1, self.v2
        # Concatenated, the points are the coordinates as a plain tuple, which
        # unpacks faster than a tuple subclass does, and which a
        # counter-clockwise triangle keeps.
        coords = v0 + v1 + v2
        x0, y0, x1, y1, x2, y2 = coords
        r = _HUGE
        huge = not (
            abs(x0) <= r and abs(y0) <= r and abs(x1) <= r and abs(y1) <= r and abs(x2) <= r and abs(y2) <= r
        )
        if huge and math.isnan(_orient(x0, y0, x1, y1, x2, y2)):
            # Only a coordinate past 2^511 overflows a product: f < 1.
            f = math.ldexp(1.0, _RANGE_EXPONENT - math.frexp(max(map(abs, (x0, y0, x1, y1, x2, y2))))[1])
            clockwise, degenerate = _winding(*(v * f for v in (x0, y0, x1, y1, x2, y2)), DEGENERATE_AREA * f * f)
        else:
            clockwise, degenerate = _winding(x0, y0, x1, y1, x2, y2)
        if clockwise:
            object.__setattr__(self, "v1", v2)
            object.__setattr__(self, "v2", v1)
            coords = (x0, y0, x2, y2, x1, y1)
        object.__setattr__(self, "is_degenerate", degenerate)
        object.__setattr__(self, "is_huge", huge)
        object.__setattr__(self, "coords", coords)

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        return (self.v0, self.v1, self.v2)

    def vertex(self, i: int) -> Point2:
        return (self.v0, self.v1, self.v2)[i]

    def edge(self, i: int) -> Segment:
        """Edge i runs from vertex i to vertex (i + 1) % 3."""
        vs = self.vertices
        return Segment(vs[i], vs[(i + 1) % 3])

    def translated(self, dx: float, dy: float) -> Triangle:
        return Triangle(
            self.v0.translated(dx, dy),
            self.v1.translated(dx, dy),
            self.v2.translated(dx, dy),
            self.name,
        )

    def scaled(self, s: float) -> Triangle:
        """Uniform scaling about the origin."""
        return Triangle(self.v0.scaled(s), self.v1.scaled(s), self.v2.scaled(s), self.name)


class FeatureKind(Enum):
    VERTEX = "vertex"
    EDGE = "edge"


@dataclass(frozen=True)
class FeatureId:
    """Names a triangle feature: vertex i, or edge from vertex i to vertex (i+1) % 3."""

    kind: FeatureKind
    index: int

    def __post_init__(self) -> None:
        # isinstance, since from Python 3.12 on "vertex" in FeatureKind is True;
        # a plain int only, since 1.0 equals index 1 but breaks the walk's bit shifts.
        if not isinstance(self.kind, FeatureKind):
            raise ValueError(f"unknown feature kind: {self.kind!r}")
        if type(self.index) is not int or self.index not in (0, 1, 2):
            raise ValueError(f"feature index out of range: {self.index!r}")


# Every feature name an answer can carry, built once rather than per answer.
_VERTEX_FEATURES = tuple(FeatureId(FeatureKind.VERTEX, i) for i in range(3))
_EDGE_FEATURES = tuple(FeatureId(FeatureKind.EDGE, i) for i in range(3))


class TestCounters(NamedTuple):
    """Counts of primitive distance evaluations, the portable cost metric."""

    __test__ = False  # keep pytest from collecting this as a test class

    vv_tests: int = 0
    ve_tests: int = 0
    ee_tests: int = 0

    def total(self) -> int:
        return self.vv_tests + self.ve_tests + self.ee_tests


# The oracle's two fixed counts, shared by all its answers: nine ee tests
# for the sweep, none for a contact.
_NINE_EE = TestCounters(0, 0, 9)
_NO_TESTS = TestCounters(0, 0, 0)


class DistanceResult(NamedTuple):
    """A distance query answer with its witness points and feature pair.

    ``flags`` carries advisory signals, each stated by the query that sets
    it; an empty tuple means a clean result.
    """

    distance: float
    point_a: Point2
    point_b: Point2
    feature_a: FeatureId
    feature_b: FeatureId
    counters: TestCounters
    flags: tuple[str, ...] = ()


def _answer(
    d: float,
    pax: float,
    pay: float,
    pbx: float,
    pby: float,
    fa: FeatureId,
    fb: FeatureId,
    counters: TestCounters,
    flags: tuple[str, ...] = (),
    f: float = 1.0,
) -> DistanceResult:
    """The ``DistanceResult`` of witnesses pa = (pax, pay) on A and pb = (pbx, pby) on B,
    with the distance and witnesses divided by ``_pair``'s power of two f.

    The division is skipped at f = 1.0, where it would change nothing but
    an int witness into a float. The
    witnesses are then checked for finiteness in the order in which
    ``Point2(pax, pay)`` and then ``Point2(pbx, pby)`` check them, and
    raise the same ``ValueError``; the three tuples are then built with
    ``tuple.__new__``, which skips the checks that already ran.
    """
    if f != 1.0:
        d, pax, pay, pbx, pby = d / f, pax / f, pay / f, pbx / f, pby / f
    isfinite = math.isfinite
    if not (isfinite(pax) and isfinite(pay) and isfinite(pbx) and isfinite(pby)):
        _require_finite(pax, pay, pbx, pby)
    new = tuple.__new__
    return new(DistanceResult, (d, new(Point2, (pax, pay)), new(Point2, (pbx, pby)), fa, fb, counters, flags))


def _pair(
    tA: Triangle, tB: Triangle, exponent: int = _RANGE_EXPONENT, length: float = 0.0
) -> tuple[_Coords, _Coords, float]:
    """(a, b, f): each triangle's six coordinates (``_Coords``) in the
    kernel's range 2^exponent, and the power of two f that put them there.

    The package's one overflow rule: every query reaches its kernel
    through here. In range no coordinate difference, square or product
    that a kernel forms can overflow, so no kernel guards against it: at
    most 2^510 in magnitude for the oracle, DyOP, Lin-Canny, the overlap
    test and placement, which form differences, their squares and sums of
    two products, and at most 2^250 for GJK, which also multiplies two dot
    products. A pair without a coordinate past 2^250 (``is_huge``) and
    without a ``length`` past 2^exponent is in range, and the two tuples
    cached at construction (``Triangle.coords``) come as they are, with
    f = 1.0. Any other pair gets ``_pair_scale``'s f for its coordinates
    and the length, and is scaled by it into new tuples, or refused with
    ValueError as too wide to scale. Past the range the answers are then
    the in-range ones scaled (``_pair_scale``): ``_answer`` divides them
    by f, and so does a caller with a length the kernel returns. It takes
    no variable arguments, which would keep CPython off its fast call
    path.
    """
    a, b = tA.coords, tB.coords
    if not (length or tA.is_huge or tB.is_huge):
        return a, b, 1.0
    if not (tA.is_huge or tB.is_huge) and abs(length) <= math.ldexp(1.0, exponent):
        return a, b, 1.0
    f = _pair_scale(exponent, [*a[0::2], *b[0::2]], [*a[1::2], *b[1::2]], length)
    if f == 1.0:
        return a, b, f
    return tuple([v * f for v in a]), tuple([v * f for v in b]), f


def _project(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> tuple[float, float, float, float]:
    """Distance, closest point (x, y) and clamped parameter t of p against segment ab.

    The one clamp rule, which ``_segment_projections``, ``_edge_sweep``
    and the Lin-Canny walk write out inline: a t at or below 0 takes a
    itself and one at or above 1 takes b itself, with t set to 0.0 or
    1.0; only a t strictly between computes a + t (b - a), which at t = 1
    could round off b and lose its small coordinates beside a large a
    (Ericson, Real-Time Collision Detection, 2004, 5.1.2). So a witness
    named as a vertex is that vertex, bit for bit. The squared length
    divides as ``len2 or inf``: a zero-length segment gives t = +-0.0 and
    takes a, with no branch of its own.
    """
    abx, aby = bx - ax, by - ay
    t = ((px - ax) * abx + (py - ay) * aby) / (abx * abx + aby * aby or math.inf)
    if t <= 0.0:
        cx, cy, t = ax, ay, 0.0
    elif t >= 1.0:
        cx, cy, t = bx, by, 1.0
    else:
        cx, cy = ax + t * abx, ay + t * aby
    return math.hypot(px - cx, py - cy), cx, cy, t


def _within_extent(ax: float, ay: float, bx: float, by: float, px: float, py: float) -> bool:
    return (ax <= px <= bx or bx <= px <= ax) and (ay <= py <= by or by <= py <= ay)


def _boxes_meet(ax: float, ay: float, bx: float, by: float, cx: float, cy: float, dx: float, dy: float) -> bool:
    """True when the bounding boxes of segments ab and cd share a point."""
    return (
        min(ax, bx) <= max(cx, dx)
        and min(cx, dx) <= max(ax, bx)
        and min(ay, by) <= max(cy, dy)
        and min(cy, dy) <= max(ay, by)
    )


def _segment_segment(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float, dx: float, dy: float
) -> tuple[float, float, float, float, float, float, float, bool]:
    """(distance, pa.x, pa.y, pb.x, pb.y, t1, t2, contact) of closed segments ab and cd.

    The four orientations, ``_orient``'s expressions on the directions
    r = b - a and s = d - c, decide contact first. A proper crossing lies
    at t = o3 / (o3 - o4) along ab, from the signed areas of a and b
    against cd (Ericson, Real-Time Collision Detection, 2004, 5.1.9.1).
    That branch runs only when o1 and o2, and o3 and o4, are nonzero and
    of opposite sign, and the segments' bounding boxes meet
    (``_boxes_meet``), as they do wherever two segments share a point; on
    nearly collinear segments the signs are rounding noise, and the box
    check keeps segments apart along their line from reading as a
    crossing. So the rounded |o3 - o4| is at least |o3| > 0 and
    0 <= t <= 1; in range (``_pair``) it stays at or below about 2^1023,
    and the point is finite and on ab up to one rounding. Otherwise an
    endpoint with a zero orientation within the other segment's extent
    touches it; endpoint contact and collinear overlap take the first
    such endpoint in (c, d, a, b) order. Contact reports distance 0 with
    coincident witnesses at that point, ``_project``'s parameters for it,
    and ``contact`` True. Without contact ``_segment_projections``
    answers, with ``contact`` False even where its distance rounds to 0.
    Segments whose boxes are apart on an axis reach neither contact
    branch, so there this test and ``_segment_projections`` answer alike,
    bit for bit.
    """
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    o1 = rx * (cy - ay) - ry * (cx - ax)
    o2 = rx * (dy - ay) - ry * (dx - ax)
    o3 = sx * (ay - cy) - sy * (ax - cx)
    o4 = sx * (by - cy) - sy * (bx - cx)
    if ((o1 > 0.0) != (o2 > 0.0)) and o1 != 0.0 and o2 != 0.0 and (
        (o3 > 0.0) != (o4 > 0.0)
    ) and o3 != 0.0 and o4 != 0.0 and _boxes_meet(ax, ay, bx, by, cx, cy, dx, dy):
        t = o3 / (o3 - o4)
        hx, hy = ax + t * rx, ay + t * ry
    elif o1 == 0.0 and _within_extent(ax, ay, bx, by, cx, cy):
        hx, hy = cx, cy
    elif o2 == 0.0 and _within_extent(ax, ay, bx, by, dx, dy):
        hx, hy = dx, dy
    elif o3 == 0.0 and _within_extent(cx, cy, dx, dy, ax, ay):
        hx, hy = ax, ay
    elif o4 == 0.0 and _within_extent(cx, cy, dx, dy, bx, by):
        hx, hy = bx, by
    else:
        return _segment_projections(ax, ay, bx, by, cx, cy, dx, dy)
    return 0.0, hx, hy, hx, hy, _project(hx, hy, ax, ay, bx, by)[3], _project(hx, hy, cx, cy, dx, dy)[3], True


def _segment_projections(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float, dx: float, dy: float
) -> tuple[float, float, float, float, float, float, float, bool]:
    """``_segment_segment``'s answer for closed segments ab and cd that do
    not touch: (distance, pa.x, pa.y, pb.x, pb.y, t1, t2, False).

    Without contact the minimum over the four clamped endpoint
    projections is exact (Ericson, 5.1.9); ties keep the earliest in
    (a, b, c, d) order. Each projection is ``_project``'s, written out on
    the directions r = b - a and s = d - c, with their squared lengths as
    divisors, computed once for all four. It decides no contact: a caller
    that has not proved the segments apart calls ``_segment_segment``.
    """
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    hypot, inf = math.hypot, math.inf
    # a and b projected on cd.
    s2 = sx * sx + sy * sy or inf
    ta = ((ax - cx) * sx + (ay - cy) * sy) / s2
    if ta <= 0.0:
        qax, qay, ta = cx, cy, 0.0
    elif ta >= 1.0:
        qax, qay, ta = dx, dy, 1.0
    else:
        qax, qay = cx + ta * sx, cy + ta * sy
    tb = ((bx - cx) * sx + (by - cy) * sy) / s2
    if tb <= 0.0:
        qbx, qby, tb = cx, cy, 0.0
    elif tb >= 1.0:
        qbx, qby, tb = dx, dy, 1.0
    else:
        qbx, qby = cx + tb * sx, cy + tb * sy
    # c and d projected on ab.
    r2 = rx * rx + ry * ry or inf
    tc = ((cx - ax) * rx + (cy - ay) * ry) / r2
    if tc <= 0.0:
        qcx, qcy, tc = ax, ay, 0.0
    elif tc >= 1.0:
        qcx, qcy, tc = bx, by, 1.0
    else:
        qcx, qcy = ax + tc * rx, ay + tc * ry
    td = ((dx - ax) * rx + (dy - ay) * ry) / r2
    if td <= 0.0:
        qdx, qdy, td = ax, ay, 0.0
    elif td >= 1.0:
        qdx, qdy, td = bx, by, 1.0
    else:
        qdx, qdy = ax + td * rx, ay + td * ry
    best_d = hypot(ax - qax, ay - qay)
    best = (best_d, ax, ay, qax, qay, 0.0, ta, False)
    d = hypot(bx - qbx, by - qby)
    if d < best_d:
        best_d, best = d, (d, bx, by, qbx, qby, 1.0, tb, False)
    d = hypot(cx - qcx, cy - qcy)
    if d < best_d:
        best_d, best = d, (d, qcx, qcy, cx, cy, tc, 0.0, False)
    d = hypot(dx - qdx, dy - qdy)
    if d < best_d:
        best = (d, qdx, qdy, dx, dy, td, 1.0, False)
    return best


def _point_in_triangle(a: _Coords, px: float, py: float) -> bool:
    """True when the point lies in the counter-clockwise triangle a; a
    triangle of exactly zero orientation contains no point.

    A sliver flagged degenerate but of positive area is counter-clockwise
    too, so the orientation test decides it as any other triangle. Only
    ``_contact_witness`` calls it, after no edge pair touched, and
    on a vertex that starts an edge of the other triangle. A point on an
    edge of a zero-orientation triangle, with a zero orientation against
    that edge and within its extent, made ``_segment_segment`` report
    contact on those two edges from the same floats, so no such point
    reaches this test.
    """
    x0, y0, x1, y1, x2, y2 = a
    if _orient(x0, y0, x1, y1, x2, y2) == 0.0:
        return False
    # CCW-normalized, so inside means left of (or on) every edge.
    return not (
        _orient(x0, y0, x1, y1, px, py) < 0.0
        or _orient(x1, y1, x2, y2, px, py) < 0.0
        or _orient(x2, y2, x0, y0, px, py) < 0.0
    )


def _points_in_range(*coords: float) -> tuple[list[float] | tuple[float, ...], float]:
    """The points' coordinates (x, y, x, y, ...) in the 2^510 range and the
    power of two f that put them there (``_pair_scale``, 1.0 in range)."""
    f = _pair_scale(_RANGE_EXPONENT, list(coords[0::2]), list(coords[1::2]))
    return (coords if f == 1.0 else [v * f for v in coords]), f


def point_segment_distance(p: Point2, s: Segment) -> tuple[float, Point2]:
    """Shortest distance from a point to a closed segment, with the closest
    point: ``_project`` on the points in range (``_points_in_range``)."""
    coords, f = _points_in_range(p.x, p.y, s.a.x, s.a.y, s.b.x, s.b.y)
    d, cx, cy, _ = _project(*coords)
    if f != 1.0:
        d, cx, cy = d / f, cx / f, cy / f
    return d, Point2(cx, cy)


def segment_segment_distance(s1: Segment, s2: Segment) -> tuple[float, Point2, Point2]:
    """Shortest distance between two closed segments, with witness points:
    ``_segment_segment`` on the points in range (``_points_in_range``)."""
    coords, f = _points_in_range(s1.a.x, s1.a.y, s1.b.x, s1.b.y, s2.a.x, s2.a.y, s2.b.x, s2.b.y)
    d, pax, pay, pbx, pby, _, _, _ = _segment_segment(*coords)
    if f != 1.0:
        d, pax, pay, pbx, pby = d / f, pax / f, pay / f, pbx / f, pby / f
    return d, Point2(pax, pay), Point2(pbx, pby)


def triangles_overlap(tA: Triangle, tB: Triangle) -> bool:
    """True when the triangles share any point (``_contact_witness``)."""
    a, b, _ = _pair(tA, tB)
    return _contact_witness(a, b) is not None


def _nearest_edge_feature(a: _Coords, px: float, py: float) -> FeatureId:
    ring = a + a
    return _EDGE_FEATURES[min(range(3), key=lambda i: _project(px, py, *ring[2 * i : 2 * i + 4])[0])]


def _contact_witness(a: _Coords, b: _Coords) -> tuple[float, float, FeatureId, FeatureId] | None:
    """Contact point (x, y) and features of overlapping triangles, or None when
    they share no point; boundary contact counts.

    This is the one overlap test. It runs ``_segment_segment`` on the
    nine edge pairs, then B's vertex 0 in A, then A's vertex 0 in B:
    without edge contact, one triangle overlaps the other only by
    containing it, and then every vertex of the contained one lies inside
    the other, so one vertex decides each way. An edge pair touches only
    when the segment test reports ``contact``, never by a distance that
    rounds to 0. The witness is the first contact point in edge-pair
    order, with the two edges as its features, else B's vertex 0, else
    A's vertex 0; a contained vertex's feature on the container is the
    container's nearest edge (``_nearest_edge_feature``). A pair without
    edge contact also pays each edge pair's four projections; the oracle
    runs this test only where ``_brute_force`` says.
    """
    x0, y0, x1, y1, x2, y2 = a
    u0, v0, u1, v1, u2, v2 = b
    edges_b = ((u0, v0, u1, v1), (u1, v1, u2, v2), (u2, v2, u0, v0))
    for i, ea in enumerate(((x0, y0, x1, y1), (x1, y1, x2, y2), (x2, y2, x0, y0))):
        for j, eb in enumerate(edges_b):
            _, hx, hy, _, _, _, _, contact = _segment_segment(*ea, *eb)
            if contact:
                return hx, hy, _EDGE_FEATURES[i], _EDGE_FEATURES[j]
    if _point_in_triangle(a, u0, v0):
        return u0, v0, _nearest_edge_feature(a, u0, v0), _VERTEX_FEATURES[0]
    if _point_in_triangle(b, x0, y0):
        return x0, y0, _VERTEX_FEATURES[0], _nearest_edge_feature(b, x0, y0)
    return None


# The sweep stays straight-line code: a loop over the projections at run
# time gave the same answers but took 4.0 to 4.3 times the sweep's time.
_EDGE_SWEEP_HEAD = '''\
def _edge_sweep(a: _Coords, b: _Coords) -> tuple[float, float, float, float, float, FeatureId, FeatureId]:
    """(distance, pa.x, pa.y, pb.x, pb.y, feature_a, feature_b) of disjoint triangles
    over their nine edge pairs.

    The minimum over the 18 vertex-edge projections, each computed once,
    in the first edge pair that holds it: vertex i + 1 ends edge i and
    starts edge i + 1. It is exact only for disjoint triangles, which the
    caller proves (``_brute_force``). Ties keep the earliest projection in
    row-major edge-pair order, then (a, b, c, d) order, so the reported
    feature indices stay as low as possible.

    Straight-line code with no call per projection: each is ``_project``'s,
    written out on the six edge directions and squared lengths, computed
    once (6, not 18). Edge i of A runs from A's vertex i along (uxi, uyi),
    and edge j of B from B's vertex j along (vxj, vyj). Each record names
    its two features as it is built, a clamped end its vertex and a point
    strictly inside its edge, so the best record is the answer. The nine
    vertex pairs are measured once, in a table: (wxij, wyij) is A's vertex
    i minus B's vertex j, and dij its length. A's vertex i on B's edge j
    takes its t from (wxij, wyij). B's vertex j on A's edge i takes s from
    the same differences, and s is exactly -t: rounding is symmetric in
    sign (a zero may keep its sign, and either zero clamps to the start).
    So s >= 0 clamps to the edge's start and s <= -1 to its end, and a t
    strictly between is -s. A clamped projection's distance is its vertex
    pair's table entry (``hypot`` ignores signs), so only a t strictly
    between computes a point and its distance.
    """
    ax0, ay0, ax1, ay1, ax2, ay2 = a
    bx0, by0, bx1, by1, bx2, by2 = b
    ux0, uy0, ux1, uy1, ux2, uy2 = ax1 - ax0, ay1 - ay0, ax2 - ax1, ay2 - ay1, ax0 - ax2, ay0 - ay2
    vx0, vy0, vx1, vy1, vx2, vy2 = bx1 - bx0, by1 - by0, bx2 - bx1, by2 - by1, bx0 - bx2, by0 - by2
    inf, hypot = math.inf, math.hypot
    # The features a record names: vertex i of either triangle, or edge i.
    fv0, fv1, fv2 = _VERTEX_FEATURES
    fe0, fe1, fe2 = _EDGE_FEATURES
    # The squared lengths as divisors: a zero-length edge divides by inf, so
    # its t is +-0.0 and the projection takes its start vertex.
    uu0, uu1, uu2 = ux0 * ux0 + uy0 * uy0 or inf, ux1 * ux1 + uy1 * uy1 or inf, ux2 * ux2 + uy2 * uy2 or inf
    vv0, vv1, vv2 = vx0 * vx0 + vy0 * vy0 or inf, vx1 * vx1 + vy1 * vy1 or inf, vx2 * vx2 + vy2 * vy2 or inf
    # The vertex-pair table: A's vertex i minus B's vertex j, and its length.
    wx00, wy00 = ax0 - bx0, ay0 - by0
    wx01, wy01 = ax0 - bx1, ay0 - by1
    wx02, wy02 = ax0 - bx2, ay0 - by2
    wx10, wy10 = ax1 - bx0, ay1 - by0
    wx11, wy11 = ax1 - bx1, ay1 - by1
    wx12, wy12 = ax1 - bx2, ay1 - by2
    wx20, wy20 = ax2 - bx0, ay2 - by0
    wx21, wy21 = ax2 - bx1, ay2 - by1
    wx22, wy22 = ax2 - bx2, ay2 - by2
    d00, d01, d02 = hypot(wx00, wy00), hypot(wx01, wy01), hypot(wx02, wy02)
    d10, d11, d12 = hypot(wx10, wy10), hypot(wx11, wy11), hypot(wx12, wy12)
    d20, d21, d22 = hypot(wx20, wy20), hypot(wx21, wy21), hypot(wx22, wy22)
    # (pa.x, pa.y, pb.x, pb.y, feature of A, feature of B)
    best_d, best = inf, (ax0, ay0, bx0, by0, fv0, fv0)
'''
# A's vertex v on B's edge e, from B's vertex e to vertex n, by t.
_A_ON_B = '''\
    t = (wx{v}{e} * vx{e} + wy{v}{e} * vy{e}) / vv{e}
    if t <= 0.0:
        if d{v}{e} < best_d:
            best_d, best = d{v}{e}, (ax{v}, ay{v}, bx{e}, by{e}, fv{v}, fv{e})
    elif t >= 1.0:
        if d{v}{n} < best_d:
            best_d, best = d{v}{n}, (ax{v}, ay{v}, bx{n}, by{n}, fv{v}, fv{n})
    else:
        qx, qy = bx{e} + t * vx{e}, by{e} + t * vy{e}
        d = hypot(ax{v} - qx, ay{v} - qy)
        if d < best_d:
            best_d, best = d, (ax{v}, ay{v}, qx, qy, fv{v}, fe{e})
'''
# B's vertex v on A's edge e, from A's vertex e to vertex n, by s = -t.
_B_ON_A = '''\
    s = (wx{e}{v} * ux{e} + wy{e}{v} * uy{e}) / uu{e}
    if s >= 0.0:
        if d{e}{v} < best_d:
            best_d, best = d{e}{v}, (ax{e}, ay{e}, bx{v}, by{v}, fv{e}, fv{v})
    elif s <= -1.0:
        if d{n}{v} < best_d:
            best_d, best = d{n}{v}, (ax{n}, ay{n}, bx{v}, by{v}, fv{n}, fv{v})
    else:
        t = -s
        qx, qy = ax{e} + t * ux{e}, ay{e} + t * uy{e}
        d = hypot(bx{v} - qx, by{v} - qy)
        if d < best_d:
            best_d, best = d, (qx, qy, bx{v}, by{v}, fe{e}, fv{v})
'''


def _edge_sweep_text() -> str:
    """The text of ``_edge_sweep``: the head, then each edge pair (i, j) in
    row-major order: A's vertices i and i + 1 on B's edge j, then B's
    vertices j and j + 1 on A's edge i, each projection only in the first
    pair that holds it (the order the sweep's docstring states;
    ``dict.fromkeys`` keeps the first of equal texts), then the return.
    """
    return _EDGE_SWEEP_HEAD + "".join(dict.fromkeys(
        template.format(v=v % 3, e=e, n=(e + 1) % 3)
        for i in range(3)
        for j in range(3)
        for template, v, e in ((_A_ON_B, i, j), (_A_ON_B, i + 1, j), (_B_ON_A, j, i), (_B_ON_A, j + 1, i))
    )) + "    return best_d, *best\n"


def _define_edge_sweep(source: str) -> None:
    """Define ``_edge_sweep`` in this module's globals from its text,
    compiled once under a file name that names this module (so that a
    second copy of the package gets its own) and registered with linecache
    there, so that ``inspect.getsource`` and tracebacks show the generated
    lines. They show them only while linecache holds them:
    ``linecache.clearcache()`` drops the entry and cannot reload a name in
    angle brackets, and ``inspect.getsource`` then raises ``OSError``.
    """
    filename = f"<generated {__name__}._edge_sweep>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), globals())


_define_edge_sweep(_edge_sweep_text())


def _separated(a: _Coords, b: _Coords, pax: float, pay: float, pbx: float, pby: float) -> bool:
    """True when the witnesses pa on A and pb on B prove the triangles disjoint.

    With n = pb - pa, sa = pa.n and sb = pb.n, every vertex of A must
    have v.n <= sa + tol and every vertex of B u.n >= sb - tol, with
    sb - sa > 2 tol: the two slabs then leave a gap, so the witnesses
    realize the distance (the duality gap that ends GJK, and Lin and
    Canny's closest-feature condition). The slack, 1e-12 times
    |pax nx| + |pay ny| + |pbx nx| + |pby ny|, is relative to the
    coordinates, so the test has no absolute slack, and touching or
    overlapping shapes fail it since sb - sa = |n|^2. It sums the
    products' sizes, not the dot products': sa and sb cancel to about
    zero when the separating line passes near the origin, while the
    witnesses' rounding, which the slack must cover, does not. Every
    comparison is written to fail on NaN. It is the Lin-Canny walk's end
    certificate and the oracle's proof for a pair whose bounding boxes
    meet, so the comparisons are straight-line code.
    """
    ax0, ay0, ax1, ay1, ax2, ay2 = a
    bx0, by0, bx1, by1, bx2, by2 = b
    nx, ny = pbx - pax, pby - pay
    sa, sb = pax * nx + pay * ny, pbx * nx + pby * ny
    tol = 1e-12 * (abs(pax * nx) + abs(pay * ny) + abs(pbx * nx) + abs(pby * ny))
    hi, lo = sa + tol, sb - tol
    return (
        sb - sa > 2.0 * tol
        and ax0 * nx + ay0 * ny <= hi
        and ax1 * nx + ay1 * ny <= hi
        and ax2 * nx + ay2 * ny <= hi
        and bx0 * nx + by0 * ny >= lo
        and bx1 * nx + by1 * ny >= lo
        and bx2 * nx + by2 * ny >= lo
    )


def _brute_force(
    a: _Coords, b: _Coords
) -> tuple[float, float, float, float, float, FeatureId, FeatureId, TestCounters, tuple[str, ...]]:
    """The oracle on two triangles' coordinates in range: the arguments of its ``_answer``.

    First the bounding boxes: when A's largest x is below B's least x, or
    B's largest x below A's least x, or the same along y, the triangles
    cannot meet (Ericson, Real-Time Collision Detection, 2004, 4.2). The
    four comparisons are exact and run lazily, each extent a conditional
    expression as in DyOP's kernel, so a gap on the first axis tested
    decides. Then the sweep, which answers alone on a pair with a box
    gap. On any other pair the certificate runs on the sweep's witnesses,
    and only where that fails the overlap test, whose contact, if any, is
    the answer. The Lin-Canny fallback calls it, and reads a contact off
    the count of no tests.
    """
    x0, y0, x1, y1, x2, y2 = a
    u0, v0, u1, v1, u2, v2 = b
    apart = (
        (x0 if x0 >= x1 and x0 >= x2 else (x1 if x1 >= x2 else x2))
        < (u0 if u0 <= u1 and u0 <= u2 else (u1 if u1 <= u2 else u2))
        or (u0 if u0 >= u1 and u0 >= u2 else (u1 if u1 >= u2 else u2))
        < (x0 if x0 <= x1 and x0 <= x2 else (x1 if x1 <= x2 else x2))
        or (y0 if y0 >= y1 and y0 >= y2 else (y1 if y1 >= y2 else y2))
        < (v0 if v0 <= v1 and v0 <= v2 else (v1 if v1 <= v2 else v2))
        or (v0 if v0 >= v1 and v0 >= v2 else (v1 if v1 >= v2 else v2))
        < (y0 if y0 <= y1 and y0 <= y2 else (y1 if y1 <= y2 else y2))
    )
    swept = _edge_sweep(a, b)
    if not apart and not _separated(a, b, swept[1], swept[2], swept[3], swept[4]):
        contact = _contact_witness(a, b)
        if contact is not None:
            px, py, fa, fb = contact
            return 0.0, px, py, px, py, fa, fb, _NO_TESTS, ()
    return *swept, _NINE_EE, ()


def brute_force_triangle_distance(tA: Triangle, tB: Triangle) -> DistanceResult:
    """Exact separation distance by exhausting all nine edge pairs.

    Disjoint triangles get the nine-edge sweep's answer, counted as nine
    ee_tests. Touching or overlapping ones get distance 0 with coincident
    witnesses at a contact point (``_contact_witness``), counted as no
    tests. Degenerate triangles are answered too. The steps are
    ``_brute_force``'s.
    """
    a, b, f = _pair(tA, tB)
    return _answer(*_brute_force(a, b), f)
