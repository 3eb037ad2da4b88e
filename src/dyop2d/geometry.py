"""Exact 2D primitives and the brute-force triangle distance oracle.

Everything here is a pure function of its inputs; the brute-force
distance is the reference that every faster algorithm in the package is
validated against.

The primitives work on plain float coordinates, in one flat form built
here: every algorithm, placement and the verify sweep take a triangle as
its three edges (``_edges``), each an ``(ax, ay, bx, by)`` tuple running
from vertex i to vertex (i + 1) % 3. DyOP's stages pass plain tuples, so
there is no box or pivot type here. Every algorithm's answer is built once,
by ``_answer``: it checks the four witness coordinates for finiteness
and fills the ``Point2`` and ``DistanceResult`` fields directly, without
re-running their constructors. ``_winding`` is the one rule for a
triangle's winding and degeneracy: a ``Triangle`` calls it once, at
construction, and keeps the flag as ``is_degenerate``, which the
algorithms read instead of recomputing the area per query; the verify
sweep's draws and the degenerate branch of the point-in-triangle test
call it on flat coordinates. The public point and segment functions are
thin wrappers over the same core.

``_segment_segment`` is the one segment-segment test: DyOP's query, the
Lin-Canny walk's edge-edge steps and ``segment_segment_distance`` all
call it. It calls ``_intersect``, which writes ``_orient``'s four
orientations out inline, and then writes ``_project``'s four endpoint
projections out inline, so one test costs two Python calls; its bits
equal those of the definition composed from those helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

# Triangles with |signed area| at or below this are treated as degenerate.
DEGENERATE_AREA = 1e-12


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


def _winding(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float) -> tuple[bool, bool]:
    """(clockwise, degenerate) of the triangle (x0, y0), (x1, y1), (x2, y2).

    The one input rule for triangles: its signed area, computed once,
    says whether v1 and v2 must swap to make it counter-clockwise, and
    whether it is degenerate (|area| <= DEGENERATE_AREA). Swapping v1
    and v2 negates that area exactly, so the flag is the same on the
    normalized vertices.
    """
    area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
    return area < 0.0, abs(area) <= DEGENERATE_AREA


_Edges = tuple[tuple[float, float, float, float], ...]


def _edges(tri: Triangle) -> _Edges:
    """The triangle's three edges as float tuples, edge i from vertex i to (i + 1) % 3."""
    v0, v1, v2 = tri.v0, tri.v1, tri.v2
    x0, y0, x1, y1, x2, y2 = v0.x, v0.y, v1.x, v1.y, v2.x, v2.y
    return ((x0, y0, x1, y1), (x1, y1, x2, y2), (x2, y2, x0, y0))


@dataclass(frozen=True)
class Triangle:
    """Three vertices, normalized to counter-clockwise order on construction.

    Normalization (swapping v1/v2 when the input winds clockwise) makes
    vertex and edge indexing orientation-independent. Degenerate inputs
    (|area| <= DEGENERATE_AREA) are representable but flagged via
    ``is_degenerate``; algorithms that cannot handle them refuse them
    explicitly. Both decisions come from one ``_winding`` call at
    construction, and the flag is kept as the non-field attribute
    ``is_degenerate``, so it stays out of ``fields()``, ``repr``, ``==``
    and ``hash``.
    """

    v0: Point2
    v1: Point2
    v2: Point2
    name: str | None = None

    def __post_init__(self) -> None:
        v0, v1, v2 = self.v0, self.v1, self.v2
        clockwise, degenerate = _winding(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)
        if clockwise:
            object.__setattr__(self, "v1", v2)
            object.__setattr__(self, "v2", v1)
        object.__setattr__(self, "is_degenerate", degenerate)

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        return (self.v0, self.v1, self.v2)

    def vertex(self, i: int) -> Point2:
        return (self.v0, self.v1, self.v2)[i]

    def edge(self, i: int) -> Segment:
        """Edge i runs from vertex i to vertex (i + 1) % 3."""
        vs = self.vertices
        return Segment(vs[i], vs[(i + 1) % 3])

    @property
    def signed_area(self) -> float:
        v0, v1, v2 = self.v0, self.v1, self.v2
        return 0.5 * _orient(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)

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
        if self.index not in (0, 1, 2):
            raise ValueError(f"feature index out of range: {self.index}")


def vertex_feature(i: int) -> FeatureId:
    return FeatureId(FeatureKind.VERTEX, i)


def edge_feature(i: int) -> FeatureId:
    return FeatureId(FeatureKind.EDGE, i)


# Every feature name an answer can carry, built once rather than per answer.
_VERTEX_FEATURES = tuple(map(vertex_feature, range(3)))
_EDGE_FEATURES = tuple(map(edge_feature, range(3)))


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
) -> DistanceResult:
    """The ``DistanceResult`` of witnesses pa = (pax, pay) on A and pb = (pbx, pby) on B.

    The witnesses are checked for finiteness in the order in which
    ``Point2(pax, pay)`` and then ``Point2(pbx, pby)`` check them, and
    raise the same ``ValueError``. The two points and the result are then
    filled in one ``__dict__`` each, skipping the generated frozen
    ``__init__`` (one ``object.__setattr__`` per field) and
    ``Point2.__post_init__``; they compare, hash, print and
    ``dataclasses.replace`` as constructed ones do.
    """
    isfinite = math.isfinite
    if not (isfinite(pax) and isfinite(pay) and isfinite(pbx) and isfinite(pby)):
        _require_finite(pax, pay, pbx, pby)
    pa = object.__new__(Point2)
    object.__setattr__(pa, "__dict__", {"x": pax, "y": pay})
    pb = object.__new__(Point2)
    object.__setattr__(pb, "__dict__", {"x": pbx, "y": pby})
    result = object.__new__(DistanceResult)
    object.__setattr__(
        result,
        "__dict__",
        {
            "distance": d,
            "point_a": pa,
            "point_b": pb,
            "feature_a": fa,
            "feature_b": fb,
            "counters": counters,
            "flags": flags,
        },
    )
    return result


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
    if t != t or ab2 == math.inf:
        # Only coordinates near the float range make t NaN or ab2
        # overflow; the closest point can then be non-finite, and is
        # refused as Point2 refuses one.
        _require_finite(cx, cy)
    return math.hypot(px - cx, py - cy), cx, cy, t


def _far_exit(
    px: float, py: float, ux: float, uy: float, ax: float, ay: float, bx: float, by: float, r: float
) -> float:
    """Largest t at which p + t*u lies within r of segment ab; -inf when no t does.

    The points within r of ab are the disks of radius r around a and b and
    the strip of half-width r along ab, so the exit is the larger of the
    disks' far roots and the crossing of the strip's far side, if it lies
    between a and b.
    """
    uu = ux * ux + uy * uy
    exits = [-math.inf]
    for cx, cy in ((ax, ay), (bx, by)):
        wx, wy = px - cx, py - cy
        disc = uu * r * r - (ux * wy - uy * wx) ** 2
        if disc >= 0.0:
            exits.append((math.sqrt(disc) - (ux * wx + uy * wy)) / uu)
    dx, dy = bx - ax, by - ay
    slope = dx * uy - dy * ux
    if slope != 0.0:
        dd = dx * dx + dy * dy
        t = (math.copysign(r * math.sqrt(dd), slope) - dx * (py - ay) + dy * (px - ax)) / slope
        if 0.0 <= dx * (px + t * ux - ax) + dy * (py + t * uy - ay) <= dd:
            exits.append(t)
    return max(exits)


def _param_on(ax: float, ay: float, bx: float, by: float, px: float, py: float) -> float:
    """Clamped parameter of p projected on segment ab; 0 when a == b."""
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        return 0.0
    t = ((px - ax) * dx + (py - ay) * dy) / len2
    return 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)


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
        denom = rx * sy - ry * sx
        t = ((cx - ax) * sy - (cy - ay) * sx) / denom
        hx, hy = ax + t * rx, ay + t * ry
        _require_finite(hx, hy)
        return hx, hy
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

    Intersecting segments report distance 0 with coincident witnesses.
    Otherwise the minimum over the four clamped endpoint projections is
    exact (Ericson, Real-Time Collision Detection, 2004, 5.1.9); ties
    keep the earliest in (a, b, c, d) order. Each projection is
    ``_project`` written out, with its zero-length branch, clamp and
    finiteness check, on the directions s = d - c and r = b - a and
    their squared lengths, computed once for both endpoints they serve.
    """
    hit = _intersect(ax, ay, bx, by, cx, cy, dx, dy)
    if hit is not None:
        hx, hy = hit
        t1, t2 = _param_on(ax, ay, bx, by, hx, hy), _param_on(cx, cy, dx, dy, hx, hy)
        return 0.0, hx, hy, hx, hy, t1, t2
    inf = math.inf
    # a and b projected on cd.
    sx, sy = dx - cx, dy - cy
    s2 = sx * sx + sy * sy
    if s2 == 0.0:
        qax = qbx = cx
        qay = qby = cy
        ta = tb = 0.0
    else:
        ta = ((ax - cx) * sx + (ay - cy) * sy) / s2
        ta = 0.0 if ta < 0.0 else (1.0 if ta > 1.0 else ta)
        qax, qay = cx + ta * sx, cy + ta * sy
        if ta != ta or s2 == inf:
            _require_finite(qax, qay)
        tb = ((bx - cx) * sx + (by - cy) * sy) / s2
        tb = 0.0 if tb < 0.0 else (1.0 if tb > 1.0 else tb)
        qbx, qby = cx + tb * sx, cy + tb * sy
        if tb != tb or s2 == inf:
            _require_finite(qbx, qby)
    # c and d projected on ab.
    rx, ry = bx - ax, by - ay
    r2 = rx * rx + ry * ry
    if r2 == 0.0:
        qcx = qdx = ax
        qcy = qdy = ay
        tc = td = 0.0
    else:
        tc = ((cx - ax) * rx + (cy - ay) * ry) / r2
        tc = 0.0 if tc < 0.0 else (1.0 if tc > 1.0 else tc)
        qcx, qcy = ax + tc * rx, ay + tc * ry
        if tc != tc or r2 == inf:
            _require_finite(qcx, qcy)
        td = ((dx - ax) * rx + (dy - ay) * ry) / r2
        td = 0.0 if td < 0.0 else (1.0 if td > 1.0 else td)
        qdx, qdy = ax + td * rx, ay + td * ry
        if td != td or r2 == inf:
            _require_finite(qdx, qdy)
    hypot = math.hypot
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


def _point_in_triangle(edges: _Edges, px: float, py: float) -> bool:
    (x0, y0, x1, y1), (_, _, x2, y2), _ = edges
    if _winding(x0, y0, x1, y1, x2, y2)[1]:
        for ax, ay, bx, by in edges:
            if _orient(ax, ay, bx, by, px, py) == 0.0 and _within_extent(ax, ay, bx, by, px, py):
                return True
        return False
    # CCW-normalized, so inside means left of (or on) every edge.
    for ax, ay, bx, by in edges:
        if _orient(ax, ay, bx, by, px, py) < 0.0:
            return False
    return True


def point_segment_distance(p: Point2, s: Segment) -> tuple[float, Point2]:
    """Shortest distance from a point to a closed segment, with the closest point."""
    d, cx, cy, _ = _project(p.x, p.y, s.a.x, s.a.y, s.b.x, s.b.y)
    return d, Point2(cx, cy)


def segment_segment_distance(s1: Segment, s2: Segment) -> tuple[float, Point2, Point2]:
    """Shortest distance between two closed segments, with witness points.

    Intersecting segments report distance 0 with coincident witnesses.
    """
    d, pax, pay, pbx, pby, _, _ = _segment_segment(
        s1.a.x, s1.a.y, s1.b.x, s1.b.y, s2.a.x, s2.a.y, s2.b.x, s2.b.y
    )
    return d, Point2(pax, pay), Point2(pbx, pby)


def triangles_overlap(tA: Triangle, tB: Triangle) -> bool:
    """True when the triangles share any point; boundary contact counts."""
    return _contact_witness(_edges(tA), _edges(tB)) is not None


def _classify_edge_point(edge_index: int, t: float) -> FeatureId:
    """Name the feature a witness on edge ``edge_index`` actually lies on."""
    if t == 0.0:
        return _VERTEX_FEATURES[edge_index]
    if t == 1.0:
        return _VERTEX_FEATURES[(edge_index + 1) % 3]
    return _EDGE_FEATURES[edge_index]


def _nearest_edge_feature(edges: _Edges, px: float, py: float) -> FeatureId:
    return _EDGE_FEATURES[min(range(3), key=lambda i: _project(px, py, *edges[i])[0])]


def _contact_witness(
    edges_a: _Edges, edges_b: _Edges
) -> tuple[float, float, FeatureId | None, FeatureId | None] | None:
    """Contact point (x, y) and features of overlapping triangles, or None when
    they share no point; boundary contact counts.

    This is the one overlap test. It runs the nine edge pairs, then B's
    vertex 0 in A, then A's vertex 0 in B: without edge contact, one
    triangle overlaps the other only by containing it, and then every
    vertex of the contained one lies inside the other, so one vertex
    decides each way. The witness is the first intersection in edge-pair
    order, else B's vertex 0, else A's vertex 0. A contained vertex's
    feature on the containing triangle is None, for the caller to name:
    callers that only ask whether the triangles overlap then run no
    projection, which can overflow near the float range.
    """
    for i, ea in enumerate(edges_a):
        for j, eb in enumerate(edges_b):
            hit = _intersect(*ea, *eb)
            if hit is not None:
                return *hit, _EDGE_FEATURES[i], _EDGE_FEATURES[j]
    vx, vy, _, _ = edges_b[0]
    if _point_in_triangle(edges_a, vx, vy):
        return vx, vy, None, _VERTEX_FEATURES[0]
    vx, vy, _, _ = edges_a[0]
    if _point_in_triangle(edges_b, vx, vy):
        return vx, vy, _VERTEX_FEATURES[0], None
    return None


def _edge_sweep(
    edges_a: _Edges, edges_b: _Edges
) -> tuple[float, float, float, float, float, FeatureId, FeatureId]:
    """(distance, pa.x, pa.y, pb.x, pb.y, feature_a, feature_b) of disjoint triangles
    over their nine edge pairs.

    The minimum over the 18 vertex-edge projections, each computed once,
    in the first edge pair that holds it: vertex i + 1 ends edge i and
    starts edge i + 1. It is exact only for disjoint triangles, which the
    caller proves by ``_separated`` or ``_contact_witness``. Ties keep the
    earliest projection in row-major edge-pair order, then (a, b, c, d)
    order, so the reported feature indices stay as low as possible. The
    witnesses are not checked for finiteness here; ``_answer`` checks them.
    """
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
    fa, fb = _classify_edge_point(bi, t1), _classify_edge_point(bj, t2)
    return best_d, pax, pay, pbx, pby, fa, fb


def _separated(
    edges_a: _Edges, edges_b: _Edges, pax: float, pay: float, pbx: float, pby: float
) -> bool:
    """True when the witnesses pa on A and pb on B prove the triangles disjoint.

    With n = pb - pa, sa = pa.n and sb = pb.n, every vertex of A must
    have v.n <= sa + tol and every vertex of B u.n >= sb - tol, with
    sb - sa > 2 tol: the two slabs then leave a gap, so the witnesses
    realize the distance (the duality gap that ends GJK, and Lin and
    Canny's closest-feature condition). tol = 1e-12 (|sa| + |sb|) is
    relative to the coordinates, so the test has no absolute slack, and
    touching or overlapping shapes fail it since sb - sa = |n|^2. Every
    comparison is written to fail on NaN.
    """
    nx, ny = pbx - pax, pby - pay
    sa, sb = pax * nx + pay * ny, pbx * nx + pby * ny
    tol = 1e-12 * (abs(sa) + abs(sb))
    if not sb - sa > 2.0 * tol:
        return False
    hi, lo = sa + tol, sb - tol
    for x, y, _, _ in edges_a:
        if not x * nx + y * ny <= hi:
            return False
    for x, y, _, _ in edges_b:
        if not x * nx + y * ny >= lo:
            return False
    return True


def _brute_force(
    edges_a: _Edges, edges_b: _Edges
) -> tuple[float, float, float, float, float, FeatureId, FeatureId, TestCounters]:
    """The oracle on two triangles' edge tuples: the arguments of its ``_answer``."""
    try:
        swept = _edge_sweep(edges_a, edges_b)
    except ValueError:
        # Near the float range a projection can overflow on triangles that
        # the contact path answers; disjoint ones re-run the sweep below and raise.
        swept = None
    else:
        # Non-finite witnesses never pass _separated, so they take the
        # contact path too, and _answer refuses them on disjoint triangles.
        if _separated(edges_a, edges_b, swept[1], swept[2], swept[3], swept[4]):
            return *swept, TestCounters(0, 0, 9)
    contact = _contact_witness(edges_a, edges_b)
    if contact is not None:
        px, py, fa, fb = contact
        # A contained vertex is named against the container's nearest edge.
        if fa is None:
            fa = _nearest_edge_feature(edges_a, px, py)
        elif fb is None:
            fb = _nearest_edge_feature(edges_b, px, py)
        return 0.0, px, py, px, py, fa, fb, TestCounters(0, 0, 0)
    if swept is None:
        swept = _edge_sweep(edges_a, edges_b)
    return *swept, TestCounters(0, 0, 9)


def brute_force_triangle_distance(tA: Triangle, tB: Triangle) -> DistanceResult:
    """Exact separation distance by exhausting all nine edge pairs.

    The nine-edge sweep (``_edge_sweep``, 18 projections) runs first and
    answers, counted as nine ee_tests, when its witnesses pass
    ``_separated``. Only when they fail does the overlap test run, as
    ``_contact_witness``: overlapping or touching triangles then report
    distance 0 with coincident witnesses, and disjoint ones the sweep's
    answer.
    """
    return _answer(*_brute_force(_edges(tA), _edges(tB)))
