"""Exact 2D primitives and the brute-force triangle distance oracle.

Everything here is a pure function of its inputs; the brute-force
distance is the reference that every faster algorithm in the package is
validated against.

The primitives work on plain float coordinates, in one flat form: every
kernel and the verify sweep take a triangle as its six coordinates
``(x0, y0, x1, y1, x2, y2)`` in one tuple (``_Coords``), vertex i at 2i
and 2i + 1, and edge i from vertex i to vertex (i + 1) % 3. A function
that walks the edges builds them locally. DyOP's stages pass plain
tuples, so there is no box or pivot type here. Every query has one path:
``_pair`` hands its kernel the two triangles' coordinates in range, the
kernel returns the nine arguments of ``_answer``, and ``_answer`` builds
the answer once: it scales the distance and witnesses back, checks the
four witness coordinates for finiteness and fills the ``Point2`` and
``DistanceResult`` fields directly, without re-running their
constructors. ``_winding`` is the one rule for a
triangle's winding and degeneracy: a ``Triangle`` calls it once, at
construction, and keeps the flag as ``is_degenerate``, which the
algorithms read instead of recomputing the area per query; the verify
sweep's draws call it on flat coordinates. The point-in-triangle test
takes its on-edge branch only for an exactly zero orientation: a sliver
flagged degenerate but with positive area is counter-clockwise, so the
orientation test decides it like any other triangle. The public point
and segment functions are thin wrappers over the same core.

``_segment_segment`` is the one segment-segment test: DyOP's query, the
Lin-Canny walk's edge-edge steps and ``segment_segment_distance`` all
call it. It is straight-line code: ``_intersect``'s four orientations
and ``_project``'s four endpoint projections are written out in it, on
the two segments' directions, so a test without contact makes no
further Python call; its bits equal those of the definition composed
from those helpers. ``_intersect`` stays the edge-pair primitive of the
overlap test, ``_contact_witness``.

``_edge_sweep``, the oracle's nine-edge sweep, is straight-line code in
the same way: it unpacks the six vertices once, computes the six edge
directions and squared lengths once (6, not one per projection, 18),
and writes its 18 vertex-edge projections out as ``_project`` defines
them, with no Python call per projection.

There is one overflow rule, at the edge. The kernels take coordinates in
range, where no difference, square or product they form can overflow,
so they carry no overflow guard: at most 2^510 in magnitude for the
oracle, DyOP, Lin-Canny, the overlap test and placement, which form
differences, their squares and sums of two products, and at most 2^250
for GJK, which also multiplies two dot products. A ``Triangle`` records
at construction whether it has a coordinate past 2^250 (``is_huge``).
``_pair`` alone reads it: a pair past its kernel's range is scaled into
range by one power of two f, the unchanged kernel runs, and ``_answer``
divides the distance and witnesses by f. The point and segment queries
scale their points the same way (``_points_in_range``). Scaling by a
power of two is exact wherever it does not underflow, so in range
nothing changes and past it the answers are the in-range ones scaled. A
pair whose small differences the scaling would take below
2^(10 - range exponent), where their squares or GJK's products of four
would underflow, is refused with ValueError instead (``_pair_scale``).
The finiteness checks that stay guard the input points and
``_answer``'s witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

# Triangles with |signed area| at or below this are treated as degenerate.
DEGENERATE_AREA = 1e-12
# The kernels' ranges, as exponents of two. At or below 2^510 in magnitude no
# coordinate difference, square or sum of two products overflows, which is all
# the oracle, DyOP, Lin-Canny, the overlap test and placement form; GJK also
# multiplies two dot products, which stays under about 2^1010 at or below
# 2^250. A triangle records whether it has a coordinate past the smaller one.
_RANGE_EXPONENT = 510
_GJK_RANGE_EXPONENT = 250
_HUGE = math.ldexp(1.0, _GJK_RANGE_EXPONENT)


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite coordinate: {v!r}")


@dataclass(frozen=True)
class Point2:
    """A point in scene units."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            _require_finite(self.x, self.y)

    def translated(self, dx: float, dy: float) -> Point2:
        return Point2(self.x + dx, self.y + dy)

    def scaled(self, s: float) -> Point2:
        return Point2(self.x * s, self.y * s)


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
    vertex and edge indexing orientation-independent. Degenerate inputs
    (|area| <= DEGENERATE_AREA) are representable but flagged via
    ``is_degenerate``; algorithms that cannot handle them refuse them
    explicitly. Both decisions come from one ``_winding`` call at
    construction. A triangle with a coordinate past 2^250 in magnitude is
    flagged ``is_huge``. Past 2^510 both products of its orientation can
    overflow, and inf - inf is NaN, which reads as neither clockwise nor
    degenerate: only then are its winding and degeneracy decided on its
    coordinates scaled into range by one power of two, with the area
    bound scaled alike. Every other orientation, an infinite one too,
    has its sign on raw coordinates. Both flags are non-field attributes,
    so they stay out of ``fields()``, ``repr``, ``==`` and ``hash``.
    """

    v0: Point2
    v1: Point2
    v2: Point2
    name: str | None = None

    def __post_init__(self) -> None:
        v0, v1, v2 = self.v0, self.v1, self.v2
        x0, y0, x1, y1, x2, y2 = v0.x, v0.y, v1.x, v1.y, v2.x, v2.y
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
        object.__setattr__(self, "is_degenerate", degenerate)
        object.__setattr__(self, "is_huge", huge)

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


@dataclass
class TestCounters:
    """Counts of primitive distance evaluations, the portable cost metric."""

    __test__ = False  # keep pytest from collecting this as a test class

    vv_tests: int = 0
    ve_tests: int = 0
    ee_tests: int = 0

    def total(self) -> int:
        return self.vv_tests + self.ve_tests + self.ee_tests


@dataclass(frozen=True)
class DistanceResult:
    """A distance query answer with its witness points and feature pair.

    ``flags`` carries advisory signals such as "overlapping-boxes"
    (pruning assumptions violated), "gjk-unconverged", or
    "lincanny-fallback" (the feature walk aborted or was not certified,
    and the oracle's nine-edge sweep answered); an empty tuple means a
    clean result.
    """

    distance: float
    point_a: Point2
    point_b: Point2
    feature_a: FeatureId
    feature_b: FeatureId
    counters: TestCounters
    flags: tuple[str, ...] = field(default=())


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

    Dividing by a power of two is exact, and it is skipped at f = 1.0,
    where it would change nothing but an int witness into a float. The
    witnesses are then checked for finiteness in the order in which
    ``Point2(pax, pay)`` and then ``Point2(pbx, pby)`` check them, and
    raise the same ``ValueError``. The two points and the result are then
    made with ``object.__new__`` and their fields stored in place, in
    field order, into each new object's own ``__dict__``. That skips the
    generated frozen ``__init__`` (one ``object.__setattr__`` call per
    field) and ``Point2.__post_init__``. Storing in place is cheaper than
    assigning a whole new ``__dict__``: the instance's own dict shares its
    keys with the class (and on CPython 3.11+ starts as inline values), so
    no separate dict is built and then swapped in. The objects compare,
    hash, print, pickle, deep-copy and ``dataclasses.replace`` as
    constructed ones do.
    """
    if f != 1.0:
        d, pax, pay, pbx, pby = d / f, pax / f, pay / f, pbx / f, pby / f
    isfinite = math.isfinite
    if not (isfinite(pax) and isfinite(pay) and isfinite(pbx) and isfinite(pby)):
        _require_finite(pax, pay, pbx, pby)
    new = object.__new__
    pa = new(Point2)
    attrs = pa.__dict__
    attrs["x"] = pax
    attrs["y"] = pay
    pb = new(Point2)
    attrs = pb.__dict__
    attrs["x"] = pbx
    attrs["y"] = pby
    result = new(DistanceResult)
    attrs = result.__dict__
    attrs["distance"] = d
    attrs["point_a"] = pa
    attrs["point_b"] = pb
    attrs["feature_a"] = fa
    attrs["feature_b"] = fb
    attrs["counters"] = counters
    attrs["flags"] = flags
    return result


def _pair(
    tA: Triangle, tB: Triangle, exponent: int = _RANGE_EXPONENT, length: float = 0.0
) -> tuple[_Coords, _Coords, float]:
    """(a, b, f): each triangle's six coordinates (``_Coords``) in the
    kernel's range 2^exponent, and the power of two f that put them there.

    Every query reaches its kernel through here, and only here is the
    overflow rule applied. A pair without a coordinate past 2^250
    (``is_huge``) and without a ``length`` is in every kernel's range, and
    comes as it is, with f = 1.0. Any other pair gets ``_pair_scale``'s f
    for its coordinates and the length, and is scaled by it, or refused
    with ValueError as too wide to scale. A length the kernel returns is
    scaled back by dividing it by f, as ``_answer`` does. It takes no
    variable arguments, which would keep CPython off its fast call path.
    """
    v0, v1, v2 = tA.v0, tA.v1, tA.v2
    a = (v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)
    v0, v1, v2 = tB.v0, tB.v1, tB.v2
    b = (v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)
    if not (length or tA.is_huge or tB.is_huge):
        return a, b, 1.0
    f = _pair_scale(exponent, [*a[0::2], *b[0::2]], [*a[1::2], *b[1::2]], length)
    if f == 1.0:
        return a, b, f
    return tuple([v * f for v in a]), tuple([v * f for v in b]), f


def _project(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> tuple[float, float, float, float]:
    """Distance, closest point (x, y) and clamped parameter t of p against segment ab."""
    abx, aby = bx - ax, by - ay
    ab2 = abx * abx + aby * aby
    if ab2 == 0.0:
        return math.hypot(px - ax, py - ay), ax, ay, 0.0
    t = ((px - ax) * abx + (py - ay) * aby) / ab2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    cx, cy = ax + t * abx, ay + t * aby
    return math.hypot(px - cx, py - cy), cx, cy, t


def _within_extent(ax: float, ay: float, bx: float, by: float, px: float, py: float) -> bool:
    return (ax <= px <= bx or bx <= px <= ax) and (ay <= py <= by or by <= py <= ay)


def _intersect(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float, dx: float, dy: float
) -> tuple[float, float] | None:
    """Intersection point of closed segments ab and cd, or None if disjoint.

    Endpoint contact and collinear overlap count as intersecting; the
    returned witness for those cases is the first touching endpoint in
    (c, d, a, b) order. The four orientations are ``_orient``'s
    expressions written out on the directions r = b - a and s = d - c.
    A strict crossing lies at t = o3 / (o3 - o4) along ab, from the
    signed areas of a and b against cd (Ericson, Real-Time Collision
    Detection, 2004, 5.1.9.1). The branch runs only when o3 and o4 are
    nonzero and of opposite sign, so the rounded |o3 - o4| is at least
    |o3| > 0 and 0 <= t <= 1; in range (at most 2^510) it stays at or
    below about 2^1023. The point is finite and on ab up to one rounding.
    """
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    o1 = rx * (cy - ay) - ry * (cx - ax)
    o2 = rx * (dy - ay) - ry * (dx - ax)
    o3 = sx * (ay - cy) - sy * (ax - cx)
    o4 = sx * (by - cy) - sy * (bx - cx)
    if ((o1 > 0.0) != (o2 > 0.0)) and o1 != 0.0 and o2 != 0.0 and (
        (o3 > 0.0) != (o4 > 0.0)
    ) and o3 != 0.0 and o4 != 0.0:
        t = o3 / (o3 - o4)
        return ax + t * rx, ay + t * ry
    if o1 == 0.0 and _within_extent(ax, ay, bx, by, cx, cy):
        return cx, cy
    if o2 == 0.0 and _within_extent(ax, ay, bx, by, dx, dy):
        return dx, dy
    if o3 == 0.0 and _within_extent(cx, cy, dx, dy, ax, ay):
        return ax, ay
    if o4 == 0.0 and _within_extent(cx, cy, dx, dy, bx, by):
        return bx, by
    return None


def _segment_segment(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float, dx: float, dy: float
) -> tuple[float, float, float, float, float, float, float]:
    """(distance, pa.x, pa.y, pb.x, pb.y, t1, t2) of closed segments ab and cd.

    Intersecting segments report distance 0 with coincident witnesses,
    ``_intersect``'s contact point. Otherwise the minimum over the four
    clamped endpoint projections is exact (Ericson, Real-Time Collision
    Detection, 2004, 5.1.9); ties keep the earliest in (a, b, c, d) order.
    Straight-line code: ``_intersect``'s four orientations and each
    projection, ``_project`` with its zero-length branch and clamp, are
    written out on the directions r = b - a and s = d - c, computed once
    for all of them. The coordinates are in range (at most 2^510 in
    magnitude), so no projection overflows and no input raises. A
    contact point's parameters are ``_project``'s.
    """
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    o1 = rx * (cy - ay) - ry * (cx - ax)
    o2 = rx * (dy - ay) - ry * (dx - ax)
    o3 = sx * (ay - cy) - sy * (ax - cx)
    o4 = sx * (by - cy) - sy * (bx - cx)
    if ((o1 > 0.0) != (o2 > 0.0)) and o1 != 0.0 and o2 != 0.0 and (
        (o3 > 0.0) != (o4 > 0.0)
    ) and o3 != 0.0 and o4 != 0.0:
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
        # a and b projected on cd.
        s2 = sx * sx + sy * sy
        if s2 == 0.0:
            qax = qbx = cx
            qay = qby = cy
            ta = tb = 0.0
        else:
            ta = ((ax - cx) * sx + (ay - cy) * sy) / s2
            ta = 0.0 if ta < 0.0 else (1.0 if ta > 1.0 else ta)
            qax, qay = cx + ta * sx, cy + ta * sy
            tb = ((bx - cx) * sx + (by - cy) * sy) / s2
            tb = 0.0 if tb < 0.0 else (1.0 if tb > 1.0 else tb)
            qbx, qby = cx + tb * sx, cy + tb * sy
        # c and d projected on ab.
        r2 = rx * rx + ry * ry
        if r2 == 0.0:
            qcx = qdx = ax
            qcy = qdy = ay
            tc = td = 0.0
        else:
            tc = ((cx - ax) * rx + (cy - ay) * ry) / r2
            tc = 0.0 if tc < 0.0 else (1.0 if tc > 1.0 else tc)
            qcx, qcy = ax + tc * rx, ay + tc * ry
            td = ((dx - ax) * rx + (dy - ay) * ry) / r2
            td = 0.0 if td < 0.0 else (1.0 if td > 1.0 else td)
            qdx, qdy = ax + td * rx, ay + td * ry
        hypot, inf = math.hypot, math.inf
        best_d, best = inf, (inf, ax, ay, cx, cy, 0.0, 0.0)
        d = hypot(ax - qax, ay - qay)
        if d < best_d:
            best_d, best = d, (d, ax, ay, qax, qay, 0.0, ta)
        d = hypot(bx - qbx, by - qby)
        if d < best_d:
            best_d, best = d, (d, bx, by, qbx, qby, 1.0, tb)
        d = hypot(cx - qcx, cy - qcy)
        if d < best_d:
            best_d, best = d, (d, qcx, qcy, cx, cy, tc, 0.0)
        d = hypot(dx - qdx, dy - qdy)
        if d < best_d:
            best = (d, qdx, qdy, dx, dy, td, 1.0)
        return best
    return 0.0, hx, hy, hx, hy, _project(hx, hy, ax, ay, bx, by)[3], _project(hx, hy, cx, cy, dx, dy)[3]


def _point_in_triangle(a: _Coords, px: float, py: float) -> bool:
    x0, y0, x1, y1, x2, y2 = a
    if _orient(x0, y0, x1, y1, x2, y2) == 0.0:
        return any(
            _orient(ax, ay, bx, by, px, py) == 0.0 and _within_extent(ax, ay, bx, by, px, py)
            for ax, ay, bx, by in ((x0, y0, x1, y1), (x1, y1, x2, y2), (x2, y2, x0, y0))
        )
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
    """Shortest distance from a point to a closed segment, with the closest point.

    A point and segment with a coordinate past 2^510 are measured scaled
    into range by one power of two, as the triangle queries are.
    """
    coords, f = _points_in_range(p.x, p.y, s.a.x, s.a.y, s.b.x, s.b.y)
    d, cx, cy, _ = _project(*coords)
    if f != 1.0:
        d, cx, cy = d / f, cx / f, cy / f
    return d, Point2(cx, cy)


def segment_segment_distance(s1: Segment, s2: Segment) -> tuple[float, Point2, Point2]:
    """Shortest distance between two closed segments, with witness points.

    Intersecting segments report distance 0 with coincident witnesses.
    Segments with a coordinate past 2^510 are measured scaled into range
    by one power of two, as the triangle queries are.
    """
    coords, f = _points_in_range(s1.a.x, s1.a.y, s1.b.x, s1.b.y, s2.a.x, s2.a.y, s2.b.x, s2.b.y)
    d, pax, pay, pbx, pby, _, _ = _segment_segment(*coords)
    if f != 1.0:
        d, pax, pay, pbx, pby = d / f, pax / f, pay / f, pbx / f, pby / f
    return d, Point2(pax, pay), Point2(pbx, pby)


def triangles_overlap(tA: Triangle, tB: Triangle) -> bool:
    """True when the triangles share any point; boundary contact counts.
    A pair with a coordinate past 2^510 is tested scaled into range."""
    a, b, _ = _pair(tA, tB)
    return _contact_witness(a, b) is not None


def _classify_edge_point(edge_index: int, t: float) -> FeatureId:
    """Name the feature a witness on edge ``edge_index`` actually lies on."""
    if t == 0.0:
        return _VERTEX_FEATURES[edge_index]
    if t == 1.0:
        return _VERTEX_FEATURES[(edge_index + 1) % 3]
    return _EDGE_FEATURES[edge_index]


def _nearest_edge_feature(a: _Coords, px: float, py: float) -> FeatureId:
    ring = a + a
    return _EDGE_FEATURES[min(range(3), key=lambda i: _project(px, py, *ring[2 * i : 2 * i + 4])[0])]


def _contact_witness(a: _Coords, b: _Coords) -> tuple[float, float, FeatureId, FeatureId] | None:
    """Contact point (x, y) and features of overlapping triangles, or None when
    they share no point; boundary contact counts.

    This is the one overlap test. It runs the nine edge pairs, then B's
    vertex 0 in A, then A's vertex 0 in B: without edge contact, one
    triangle overlaps the other only by containing it, and then every
    vertex of the contained one lies inside the other, so one vertex
    decides each way. The witness is the first intersection in edge-pair
    order, with the two edges as its features, else B's vertex 0, else
    A's vertex 0; a contained vertex's feature on the container is the
    container's nearest edge (``_nearest_edge_feature``).
    """
    x0, y0, x1, y1, x2, y2 = a
    u0, v0, u1, v1, u2, v2 = b
    edges_b = ((u0, v0, u1, v1), (u1, v1, u2, v2), (u2, v2, u0, v0))
    for i, ea in enumerate(((x0, y0, x1, y1), (x1, y1, x2, y2), (x2, y2, x0, y0))):
        for j, eb in enumerate(edges_b):
            hit = _intersect(*ea, *eb)
            if hit is not None:
                return *hit, _EDGE_FEATURES[i], _EDGE_FEATURES[j]
    if _point_in_triangle(a, u0, v0):
        return u0, v0, _nearest_edge_feature(a, u0, v0), _VERTEX_FEATURES[0]
    if _point_in_triangle(b, x0, y0):
        return x0, y0, _VERTEX_FEATURES[0], _nearest_edge_feature(b, x0, y0)
    return None


def _edge_sweep(a: _Coords, b: _Coords) -> tuple[float, float, float, float, float, FeatureId, FeatureId]:
    """(distance, pa.x, pa.y, pb.x, pb.y, feature_a, feature_b) of disjoint triangles
    over their nine edge pairs.

    The minimum over the 18 vertex-edge projections, each computed once,
    in the first edge pair that holds it: vertex i + 1 ends edge i and
    starts edge i + 1. It is exact only for disjoint triangles, which the
    caller proves by ``_separated`` or ``_contact_witness``. Ties keep the
    earliest projection in row-major edge-pair order, then (a, b, c, d)
    order, so the reported feature indices stay as low as possible. The
    coordinates are in range (at most 2^510 in magnitude), so no direction,
    squared length or projection overflows.

    The sweep is straight-line code that makes no call per projection:
    each is ``_project`` written out, with its zero-length branch and
    clamp, on the six edge directions and squared lengths,
    computed once rather than once per projection (6, not 18). Edge i of A
    runs from A's vertex i along (uxi, uyi), and edge j of B from B's
    vertex j along (vxj, vyj). A record names a vertex as the start of
    its own edge, at t = 0.
    """
    ax0, ay0, ax1, ay1, ax2, ay2 = a
    bx0, by0, bx1, by1, bx2, by2 = b
    ux0, uy0, ux1, uy1, ux2, uy2 = ax1 - ax0, ay1 - ay0, ax2 - ax1, ay2 - ay1, ax0 - ax2, ay0 - ay2
    vx0, vy0, vx1, vy1, vx2, vy2 = bx1 - bx0, by1 - by0, bx2 - bx1, by2 - by1, bx0 - bx2, by0 - by2
    uu0, uu1, uu2 = ux0 * ux0 + uy0 * uy0, ux1 * ux1 + uy1 * uy1, ux2 * ux2 + uy2 * uy2
    vv0, vv1, vv2 = vx0 * vx0 + vy0 * vy0, vx1 * vx1 + vy1 * vy1, vx2 * vx2 + vy2 * vy2
    inf, hypot = math.inf, math.hypot
    # (pa.x, pa.y, pb.x, pb.y, edge of A, t on it, edge of B, t on it)
    best_d, best = inf, (ax0, ay0, bx0, by0, 0, 0.0, 0, 0.0)
    # Edge pair (0, 0): A's vertices 0 and 1 on B's edge 0, B's vertices 0 and 1 on A's edge 0.
    t = ((ax0 - bx0) * vx0 + (ay0 - by0) * vy0) / vv0 if vv0 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (bx0 + t * vx0, by0 + t * vy0) if vv0 else (bx0, by0)
    d = hypot(ax0 - qx, ay0 - qy)
    if d < best_d:
        best_d, best = d, (ax0, ay0, qx, qy, 0, 0.0, 0, t)
    t = ((ax1 - bx0) * vx0 + (ay1 - by0) * vy0) / vv0 if vv0 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (bx0 + t * vx0, by0 + t * vy0) if vv0 else (bx0, by0)
    d = hypot(ax1 - qx, ay1 - qy)
    if d < best_d:
        best_d, best = d, (ax1, ay1, qx, qy, 1, 0.0, 0, t)
    t = ((bx0 - ax0) * ux0 + (by0 - ay0) * uy0) / uu0 if uu0 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (ax0 + t * ux0, ay0 + t * uy0) if uu0 else (ax0, ay0)
    d = hypot(bx0 - qx, by0 - qy)
    if d < best_d:
        best_d, best = d, (qx, qy, bx0, by0, 0, t, 0, 0.0)
    t = ((bx1 - ax0) * ux0 + (by1 - ay0) * uy0) / uu0 if uu0 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (ax0 + t * ux0, ay0 + t * uy0) if uu0 else (ax0, ay0)
    d = hypot(bx1 - qx, by1 - qy)
    if d < best_d:
        best_d, best = d, (qx, qy, bx1, by1, 0, t, 1, 0.0)
    # (0, 1): A's vertices 0 and 1 on B's edge 1, B's vertex 2 on A's edge 0.
    t = ((ax0 - bx1) * vx1 + (ay0 - by1) * vy1) / vv1 if vv1 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (bx1 + t * vx1, by1 + t * vy1) if vv1 else (bx1, by1)
    d = hypot(ax0 - qx, ay0 - qy)
    if d < best_d:
        best_d, best = d, (ax0, ay0, qx, qy, 0, 0.0, 1, t)
    t = ((ax1 - bx1) * vx1 + (ay1 - by1) * vy1) / vv1 if vv1 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (bx1 + t * vx1, by1 + t * vy1) if vv1 else (bx1, by1)
    d = hypot(ax1 - qx, ay1 - qy)
    if d < best_d:
        best_d, best = d, (ax1, ay1, qx, qy, 1, 0.0, 1, t)
    t = ((bx2 - ax0) * ux0 + (by2 - ay0) * uy0) / uu0 if uu0 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (ax0 + t * ux0, ay0 + t * uy0) if uu0 else (ax0, ay0)
    d = hypot(bx2 - qx, by2 - qy)
    if d < best_d:
        best_d, best = d, (qx, qy, bx2, by2, 0, t, 2, 0.0)
    # (0, 2): A's vertices 0 and 1 on B's edge 2.
    t = ((ax0 - bx2) * vx2 + (ay0 - by2) * vy2) / vv2 if vv2 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (bx2 + t * vx2, by2 + t * vy2) if vv2 else (bx2, by2)
    d = hypot(ax0 - qx, ay0 - qy)
    if d < best_d:
        best_d, best = d, (ax0, ay0, qx, qy, 0, 0.0, 2, t)
    t = ((ax1 - bx2) * vx2 + (ay1 - by2) * vy2) / vv2 if vv2 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (bx2 + t * vx2, by2 + t * vy2) if vv2 else (bx2, by2)
    d = hypot(ax1 - qx, ay1 - qy)
    if d < best_d:
        best_d, best = d, (ax1, ay1, qx, qy, 1, 0.0, 2, t)
    # (1, 0): A's vertex 2 on B's edge 0, B's vertices 0 and 1 on A's edge 1.
    t = ((ax2 - bx0) * vx0 + (ay2 - by0) * vy0) / vv0 if vv0 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (bx0 + t * vx0, by0 + t * vy0) if vv0 else (bx0, by0)
    d = hypot(ax2 - qx, ay2 - qy)
    if d < best_d:
        best_d, best = d, (ax2, ay2, qx, qy, 2, 0.0, 0, t)
    t = ((bx0 - ax1) * ux1 + (by0 - ay1) * uy1) / uu1 if uu1 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (ax1 + t * ux1, ay1 + t * uy1) if uu1 else (ax1, ay1)
    d = hypot(bx0 - qx, by0 - qy)
    if d < best_d:
        best_d, best = d, (qx, qy, bx0, by0, 1, t, 0, 0.0)
    t = ((bx1 - ax1) * ux1 + (by1 - ay1) * uy1) / uu1 if uu1 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (ax1 + t * ux1, ay1 + t * uy1) if uu1 else (ax1, ay1)
    d = hypot(bx1 - qx, by1 - qy)
    if d < best_d:
        best_d, best = d, (qx, qy, bx1, by1, 1, t, 1, 0.0)
    # (1, 1): A's vertex 2 on B's edge 1, B's vertex 2 on A's edge 1.
    t = ((ax2 - bx1) * vx1 + (ay2 - by1) * vy1) / vv1 if vv1 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (bx1 + t * vx1, by1 + t * vy1) if vv1 else (bx1, by1)
    d = hypot(ax2 - qx, ay2 - qy)
    if d < best_d:
        best_d, best = d, (ax2, ay2, qx, qy, 2, 0.0, 1, t)
    t = ((bx2 - ax1) * ux1 + (by2 - ay1) * uy1) / uu1 if uu1 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (ax1 + t * ux1, ay1 + t * uy1) if uu1 else (ax1, ay1)
    d = hypot(bx2 - qx, by2 - qy)
    if d < best_d:
        best_d, best = d, (qx, qy, bx2, by2, 1, t, 2, 0.0)
    # (1, 2): A's vertex 2 on B's edge 2.
    t = ((ax2 - bx2) * vx2 + (ay2 - by2) * vy2) / vv2 if vv2 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (bx2 + t * vx2, by2 + t * vy2) if vv2 else (bx2, by2)
    d = hypot(ax2 - qx, ay2 - qy)
    if d < best_d:
        best_d, best = d, (ax2, ay2, qx, qy, 2, 0.0, 2, t)
    # (2, 0): B's vertices 0 and 1 on A's edge 2.
    t = ((bx0 - ax2) * ux2 + (by0 - ay2) * uy2) / uu2 if uu2 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (ax2 + t * ux2, ay2 + t * uy2) if uu2 else (ax2, ay2)
    d = hypot(bx0 - qx, by0 - qy)
    if d < best_d:
        best_d, best = d, (qx, qy, bx0, by0, 2, t, 0, 0.0)
    t = ((bx1 - ax2) * ux2 + (by1 - ay2) * uy2) / uu2 if uu2 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (ax2 + t * ux2, ay2 + t * uy2) if uu2 else (ax2, ay2)
    d = hypot(bx1 - qx, by1 - qy)
    if d < best_d:
        best_d, best = d, (qx, qy, bx1, by1, 2, t, 1, 0.0)
    # (2, 1): B's vertex 2 on A's edge 2; edge pair (2, 2) adds no projection.
    t = ((bx2 - ax2) * ux2 + (by2 - ay2) * uy2) / uu2 if uu2 else 0.0
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = (ax2 + t * ux2, ay2 + t * uy2) if uu2 else (ax2, ay2)
    d = hypot(bx2 - qx, by2 - qy)
    if d < best_d:
        best_d, best = d, (qx, qy, bx2, by2, 2, t, 2, 0.0)
    pax, pay, pbx, pby, i, ta, j, tb = best
    return best_d, pax, pay, pbx, pby, _classify_edge_point(i, ta), _classify_edge_point(j, tb)


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
    comparison is written to fail on NaN. The Lin-Canny walk ends on
    this test too, so the six comparisons are straight-line code.
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

    The sweep, then the certificate on its witnesses, then, only when the
    certificate fails, the overlap test: a contact answers 0 with
    coincident witnesses and no tests counted, and anything else is the
    sweep's answer, counted as nine ee tests. The Lin-Canny fallback takes
    the same three steps.
    """
    swept = _edge_sweep(a, b)
    if not _separated(a, b, swept[1], swept[2], swept[3], swept[4]):
        contact = _contact_witness(a, b)
        if contact is not None:
            px, py, fa, fb = contact
            return 0.0, px, py, px, py, fa, fb, TestCounters(0, 0, 0), ()
    return *swept, TestCounters(0, 0, 9), ()


def brute_force_triangle_distance(tA: Triangle, tB: Triangle) -> DistanceResult:
    """Exact separation distance by exhausting all nine edge pairs.

    The nine-edge sweep (``_edge_sweep``, 18 projections) runs first and
    answers, counted as nine ee_tests, when its witnesses pass
    ``_separated``. Only when they fail does the overlap test run, as
    ``_contact_witness``: overlapping or touching triangles then report
    distance 0 with coincident witnesses at the contact point, named as
    the two crossing edges or as a contained vertex and the container's
    nearest edge, and disjoint ones the sweep's answer. A pair with a
    coordinate past 2^510 is answered scaled into range (``_pair``).
    """
    a, b, f = _pair(tA, tB)
    return _answer(*_brute_force(a, b), f)
