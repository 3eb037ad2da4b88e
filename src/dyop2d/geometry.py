"""Exact 2D primitives and the brute-force triangle distance oracle.

Everything here is a pure function of its inputs; the brute-force
distance is the reference that every faster algorithm in the package is
validated against.

The primitives work on plain float coordinates: a triangle enters the
core as its three edges, each an ``(ax, ay, bx, by)`` tuple running from
vertex i to vertex (i + 1) % 3, and ``Point2``/``FeatureId`` objects are
built only for the answer a caller receives. The public point and
segment functions are thin wrappers over the same core.
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
        _require_finite(self.dx, self.dy)


@dataclass(frozen=True)
class Segment:
    """A closed segment; a == b is a valid degenerate point-segment."""

    a: Point2
    b: Point2


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Twice the signed area of abc: >0 when c is left of a->b."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _signed_area(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float) -> float:
    return 0.5 * _orient(x0, y0, x1, y1, x2, y2)


def _is_degenerate(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    return abs(_signed_area(x0, y0, x1, y1, x2, y2)) <= DEGENERATE_AREA


_Edges = tuple[tuple[float, float, float, float], ...]


def _edges(tri: Triangle) -> _Edges:
    """The triangle's three edges as float tuples, edge i from vertex i to (i + 1) % 3."""
    v0, v1, v2 = tri.v0, tri.v1, tri.v2
    x0, y0, x1, y1, x2, y2 = v0.x, v0.y, v1.x, v1.y, v2.x, v2.y
    return ((x0, y0, x1, y1), (x1, y1, x2, y2), (x2, y2, x0, y0))


def _extent(c0: float, c1: float, c2: float) -> tuple[float, float]:
    """Minimum and maximum of three coordinates; ties keep the earlier value."""
    lo = hi = c0
    if c1 < lo:
        lo = c1
    elif c1 > hi:
        hi = c1
    if c2 < lo:
        lo = c2
    elif c2 > hi:
        hi = c2
    return lo, hi


@dataclass(frozen=True)
class Triangle:
    """Three vertices, normalized to counter-clockwise order on construction.

    Normalization (swapping v1/v2 when the input winds clockwise) makes
    vertex and edge indexing orientation-independent. Degenerate inputs
    (|area| <= DEGENERATE_AREA) are representable but flagged via
    ``is_degenerate``; algorithms that cannot handle them refuse them
    explicitly.
    """

    v0: Point2
    v1: Point2
    v2: Point2
    name: str | None = None

    def __post_init__(self) -> None:
        if self.signed_area < 0.0:
            swapped_v1, swapped_v2 = self.v2, self.v1
            object.__setattr__(self, "v1", swapped_v1)
            object.__setattr__(self, "v2", swapped_v2)

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
        return _signed_area(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)

    @property
    def is_degenerate(self) -> bool:
        v0, v1, v2 = self.v0, self.v1, self.v2
        return _is_degenerate(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)

    def centroid(self) -> Point2:
        return Point2(
            (self.v0.x + self.v1.x + self.v2.x) / 3.0,
            (self.v0.y + self.v1.y + self.v2.y) / 3.0,
        )

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


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box given by its min and max corners."""

    min: Point2
    max: Point2

    def __post_init__(self) -> None:
        if self.min.x > self.max.x or self.min.y > self.max.y:
            raise ValueError(f"inverted box: min={self.min} max={self.max}")


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


def edge_index_joining(i: int, j: int) -> int:
    """The index of the triangle edge whose endpoints are vertices i and j."""
    if j == (i + 1) % 3:
        return i
    if i == (j + 1) % 3:
        return j
    raise ValueError(f"no edge joins vertices {i} and {j}")


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
    "lincanny-fallback" (the feature walk aborted and the oracle's
    nine-edge sweep answered); an empty tuple means a clean result.
    """

    distance: float
    point_a: Point2
    point_b: Point2
    feature_a: FeatureId
    feature_b: FeatureId
    counters: TestCounters
    flags: tuple[str, ...] = field(default=())


def aabb_of_triangle(tri: Triangle) -> Aabb:
    """Tightest axis-aligned box containing the triangle."""
    v0, v1, v2 = tri.v0, tri.v1, tri.v2
    x_lo, x_hi = _extent(v0.x, v1.x, v2.x)
    y_lo, y_hi = _extent(v0.y, v1.y, v2.y)
    return Aabb(Point2(x_lo, y_lo), Point2(x_hi, y_hi))


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
    (c, d, a, b) order.
    """
    o1 = _orient(ax, ay, bx, by, cx, cy)
    o2 = _orient(ax, ay, bx, by, dx, dy)
    o3 = _orient(cx, cy, dx, dy, ax, ay)
    o4 = _orient(cx, cy, dx, dy, bx, by)
    if ((o1 > 0.0) != (o2 > 0.0)) and o1 != 0.0 and o2 != 0.0 and (
        (o3 > 0.0) != (o4 > 0.0)
    ) and o3 != 0.0 and o4 != 0.0:
        rx, ry = bx - ax, by - ay
        sx, sy = dx - cx, dy - cy
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


_Witnesses = tuple[float, float, float, float, float, float, float]


def _endpoint_projections(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float, dx: float, dy: float
) -> _Witnesses:
    """(distance, pa.x, pa.y, pb.x, pb.y, t1, t2) of disjoint segments ab and cd.

    The minimum over the four clamped endpoint projections is exact for
    disjoint segments; ties keep the earliest candidate in (a, b, c, d)
    order.
    """
    best = (math.inf, ax, ay, cx, cy, 0.0, 0.0)
    d, qx, qy, t = _project(ax, ay, cx, cy, dx, dy)
    if d < best[0]:
        best = (d, ax, ay, qx, qy, 0.0, t)
    d, qx, qy, t = _project(bx, by, cx, cy, dx, dy)
    if d < best[0]:
        best = (d, bx, by, qx, qy, 1.0, t)
    d, qx, qy, t = _project(cx, cy, ax, ay, bx, by)
    if d < best[0]:
        best = (d, qx, qy, cx, cy, t, 0.0)
    d, qx, qy, t = _project(dx, dy, ax, ay, bx, by)
    if d < best[0]:
        best = (d, qx, qy, dx, dy, t, 1.0)
    return best


def _segment_segment(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float, dx: float, dy: float
) -> _Witnesses:
    """Like _endpoint_projections, but intersecting segments report distance 0
    with coincident witnesses."""
    hit = _intersect(ax, ay, bx, by, cx, cy, dx, dy)
    if hit is not None:
        hx, hy = hit
        t1, t2 = _param_on(ax, ay, bx, by, hx, hy), _param_on(cx, cy, dx, dy, hx, hy)
        return 0.0, hx, hy, hx, hy, t1, t2
    return _endpoint_projections(ax, ay, bx, by, cx, cy, dx, dy)


def _point_in_triangle(edges: _Edges, px: float, py: float) -> bool:
    (x0, y0, x1, y1), (_, _, x2, y2), _ = edges
    if _is_degenerate(x0, y0, x1, y1, x2, y2):
        for ax, ay, bx, by in edges:
            if _orient(ax, ay, bx, by, px, py) == 0.0 and _within_extent(ax, ay, bx, by, px, py):
                return True
        return False
    # CCW-normalized, so inside means left of (or on) every edge.
    for ax, ay, bx, by in edges:
        if _orient(ax, ay, bx, by, px, py) < 0.0:
            return False
    return True


def _overlap(edges_a: _Edges, edges_b: _Edges) -> bool:
    for ea in edges_a:
        for eb in edges_b:
            if _intersect(*ea, *eb) is not None:
                return True
    # No edge contact: overlap is only possible by full containment.
    return _point_in_triangle(edges_a, edges_b[0][0], edges_b[0][1]) or _point_in_triangle(
        edges_b, edges_a[0][0], edges_a[0][1]
    )


def point_segment_distance(p: Point2, s: Segment) -> tuple[float, Point2]:
    """Shortest distance from a point to a closed segment, with the closest point."""
    d, cx, cy, _ = _project(p.x, p.y, s.a.x, s.a.y, s.b.x, s.b.y)
    return d, Point2(cx, cy)


def _segment_intersection(s1: Segment, s2: Segment) -> Point2 | None:
    """Intersection point of two closed segments, or None if disjoint (see _intersect)."""
    hit = _intersect(s1.a.x, s1.a.y, s1.b.x, s1.b.y, s2.a.x, s2.a.y, s2.b.x, s2.b.y)
    return None if hit is None else Point2(*hit)


def segment_segment_distance(s1: Segment, s2: Segment) -> tuple[float, Point2, Point2]:
    """Shortest distance between two closed segments, with witness points.

    Intersecting segments report distance 0 with coincident witnesses.
    """
    d, pax, pay, pbx, pby, _, _ = _segment_segment(
        s1.a.x, s1.a.y, s1.b.x, s1.b.y, s2.a.x, s2.a.y, s2.b.x, s2.b.y
    )
    return d, Point2(pax, pay), Point2(pbx, pby)


def point_in_triangle(tri: Triangle, p: Point2) -> bool:
    """Containment test, boundary inclusive; degenerate triangles act as segments."""
    return _point_in_triangle(_edges(tri), p.x, p.y)


def triangles_overlap(tA: Triangle, tB: Triangle) -> bool:
    """True when the triangles share any point; boundary contact counts."""
    return _overlap(_edges(tA), _edges(tB))


def _classify_edge_point(edge_index: int, t: float) -> FeatureId:
    """Name the feature a witness on edge ``edge_index`` actually lies on."""
    if t == 0.0:
        return vertex_feature(edge_index)
    if t == 1.0:
        return vertex_feature((edge_index + 1) % 3)
    return edge_feature(edge_index)


def _nearest_edge_feature(edges: _Edges, px: float, py: float) -> FeatureId:
    best_d = math.inf
    best_i = 0
    for i, (ax, ay, bx, by) in enumerate(edges):
        d = _project(px, py, ax, ay, bx, by)[0]
        if d < best_d:
            best_d, best_i = d, i
    return edge_feature(best_i)


def _contact_witness(tA: Triangle, tB: Triangle) -> tuple[Point2, FeatureId, FeatureId]:
    edges_a, edges_b = _edges(tA), _edges(tB)
    for i, ea in enumerate(edges_a):
        for j, eb in enumerate(edges_b):
            hit = _intersect(*ea, *eb)
            if hit is not None:
                return Point2(*hit), edge_feature(i), edge_feature(j)
    for k, (vx, vy, _, _) in enumerate(edges_b):
        if _point_in_triangle(edges_a, vx, vy):
            return Point2(vx, vy), _nearest_edge_feature(edges_a, vx, vy), vertex_feature(k)
    for k, (vx, vy, _, _) in enumerate(edges_a):
        if _point_in_triangle(edges_b, vx, vy):
            return Point2(vx, vy), vertex_feature(k), _nearest_edge_feature(edges_b, vx, vy)
    raise AssertionError("overlapping triangles without a contact witness")


def _edge_sweep(
    edges_a: _Edges, edges_b: _Edges
) -> tuple[float, Point2, Point2, FeatureId, FeatureId]:
    """Distance, witnesses and features of disjoint triangles over their nine edge pairs.

    Every edge of A is tested against every edge of B, which subsumes all
    vertex-vertex and vertex-edge pairs. The caller has already found the
    triangles disjoint, so each pair costs only its four endpoint
    projections. Equal minima resolve to the earliest edge pair in
    row-major order, which keeps the reported feature indices as low as
    possible.
    """
    best = None
    for i, ea in enumerate(edges_a):
        for j, eb in enumerate(edges_b):
            w = _endpoint_projections(*ea, *eb)
            if best is None or w[0] < best[0]:
                best, bi, bj = w, i, j
    d, pax, pay, pbx, pby, t1, t2 = best
    return (
        d,
        Point2(pax, pay),
        Point2(pbx, pby),
        _classify_edge_point(bi, t1),
        _classify_edge_point(bj, t2),
    )


def brute_force_triangle_distance(tA: Triangle, tB: Triangle) -> DistanceResult:
    """Exact separation distance by exhausting all nine edge pairs.

    Overlapping or touching triangles report distance 0 with coincident
    witness points. Otherwise the nine-edge sweep (``_edge_sweep``)
    answers, recording nine ee_tests.
    """
    edges_a, edges_b = _edges(tA), _edges(tB)
    if _overlap(edges_a, edges_b):
        p, fa, fb = _contact_witness(tA, tB)
        return DistanceResult(0.0, p, p, fa, fb, TestCounters())
    return DistanceResult(*_edge_sweep(edges_a, edges_b), TestCounters(ee_tests=9))
