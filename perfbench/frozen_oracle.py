"""Frozen copy of dyop2d's brute-force triangle distance oracle.

This is the seed's ``dyop2d.geometry.brute_force_triangle_distance`` with
the types it needs, copied once and never edited afterwards. The
benchmark uses it for two jobs that must not move with the program:

* its median time on one fixed pair is the unit ``ref`` that every
  timing is divided by, so a machine running faster or slower between
  processes cancels out;
* its answers are the ground truth that every distance the program
  returns is checked against.

Do not change this file when the package changes; a change here rescales
every recorded ``ref`` figure.
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




@dataclass(frozen=True)
class Segment:
    """A closed segment; a == b is a valid degenerate point-segment."""

    a: Point2
    b: Point2


def _signed_area(a: Point2, b: Point2, c: Point2) -> float:
    return 0.5 * ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))


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
        if _signed_area(self.v0, self.v1, self.v2) < 0.0:
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
        return _signed_area(self.v0, self.v1, self.v2)

    @property
    def is_degenerate(self) -> bool:
        return abs(self.signed_area) <= DEGENERATE_AREA





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
    (pruning assumptions violated) or "gjk-unconverged"; an empty tuple
    means a clean result.
    """

    distance: float
    point_a: Point2
    point_b: Point2
    feature_a: FeatureId
    feature_b: FeatureId
    counters: TestCounters
    flags: tuple[str, ...] = field(default=())


def _point_segment_param(p: Point2, s: Segment) -> tuple[float, Point2, float]:
    """Distance, closest point, and clamped parameter t of p against s."""
    ax, ay = s.a.x, s.a.y
    abx, aby = s.b.x - ax, s.b.y - ay
    ab2 = abx * abx + aby * aby
    if ab2 == 0.0:
        return math.hypot(p.x - ax, p.y - ay), s.a, 0.0
    t = ((p.x - ax) * abx + (p.y - ay) * aby) / ab2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    cx, cy = ax + t * abx, ay + t * aby
    return math.hypot(p.x - cx, p.y - cy), Point2(cx, cy), t


def _orient(a: Point2, b: Point2, c: Point2) -> float:
    """Twice the signed area of abc: >0 when c is left of a->b."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _within_extent(a: Point2, b: Point2, p: Point2) -> bool:
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def _segment_intersection(s1: Segment, s2: Segment) -> Point2 | None:
    """Intersection point of two closed segments, or None if disjoint.

    Endpoint contact and collinear overlap count as intersecting; the
    returned witness for those cases is the first touching endpoint in
    (s2.a, s2.b, s1.a, s1.b) order.
    """
    a, b, c, d = s1.a, s1.b, s2.a, s2.b
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if ((o1 > 0.0) != (o2 > 0.0)) and o1 != 0.0 and o2 != 0.0 and (
        (o3 > 0.0) != (o4 > 0.0)
    ) and o3 != 0.0 and o4 != 0.0:
        rx, ry = b.x - a.x, b.y - a.y
        sx, sy = d.x - c.x, d.y - c.y
        denom = rx * sy - ry * sx
        t = ((c.x - a.x) * sy - (c.y - a.y) * sx) / denom
        return Point2(a.x + t * rx, a.y + t * ry)
    if o1 == 0.0 and _within_extent(a, b, c):
        return c
    if o2 == 0.0 and _within_extent(a, b, d):
        return d
    if o3 == 0.0 and _within_extent(c, d, a):
        return a
    if o4 == 0.0 and _within_extent(c, d, b):
        return b
    return None


def _param_on(s: Segment, p: Point2) -> float:
    dx, dy = s.b.x - s.a.x, s.b.y - s.a.y
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        return 0.0
    t = ((p.x - s.a.x) * dx + (p.y - s.a.y) * dy) / len2
    return 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)


def _segment_segment_params(
    s1: Segment, s2: Segment
) -> tuple[float, Point2, Point2, float, float]:
    """Distance, witness points, and parameters on each segment.

    Intersecting segments report distance 0 with coincident witnesses.
    Otherwise the minimum over the four clamped endpoint projections is
    exact for disjoint segments; ties keep the earliest candidate in
    (s1.a, s1.b, s2.a, s2.b) order.
    """
    hit = _segment_intersection(s1, s2)
    if hit is not None:
        return 0.0, hit, hit, _param_on(s1, hit), _param_on(s2, hit)

    best_d, best_pa, best_pb, best_t1, best_t2 = math.inf, s1.a, s2.a, 0.0, 0.0
    d, closest, t = _point_segment_param(s1.a, s2)
    if d < best_d:
        best_d, best_pa, best_pb, best_t1, best_t2 = d, s1.a, closest, 0.0, t
    d, closest, t = _point_segment_param(s1.b, s2)
    if d < best_d:
        best_d, best_pa, best_pb, best_t1, best_t2 = d, s1.b, closest, 1.0, t
    d, closest, t = _point_segment_param(s2.a, s1)
    if d < best_d:
        best_d, best_pa, best_pb, best_t1, best_t2 = d, closest, s2.a, t, 0.0
    d, closest, t = _point_segment_param(s2.b, s1)
    if d < best_d:
        best_d, best_pa, best_pb, best_t1, best_t2 = d, closest, s2.b, t, 1.0
    return best_d, best_pa, best_pb, best_t1, best_t2


def point_in_triangle(tri: Triangle, p: Point2) -> bool:
    """Containment test, boundary inclusive; degenerate triangles act as segments."""
    if tri.is_degenerate:
        for i in range(3):
            e = tri.edge(i)
            if _orient(e.a, e.b, p) == 0.0 and _within_extent(e.a, e.b, p):
                return True
        return False
    # CCW-normalized, so inside means left of (or on) every edge.
    for i in range(3):
        e = tri.edge(i)
        if _orient(e.a, e.b, p) < 0.0:
            return False
    return True


def triangles_overlap(tA: Triangle, tB: Triangle) -> bool:
    """True when the triangles share any point; boundary contact counts."""
    for i in range(3):
        ea = tA.edge(i)
        for j in range(3):
            if _segment_intersection(ea, tB.edge(j)) is not None:
                return True
    # No edge contact: overlap is only possible by full containment.
    return point_in_triangle(tA, tB.v0) or point_in_triangle(tB, tA.v0)


def _classify_edge_point(edge_index: int, t: float) -> FeatureId:
    """Name the feature a witness on edge ``edge_index`` actually lies on."""
    if t == 0.0:
        return vertex_feature(edge_index)
    if t == 1.0:
        return vertex_feature((edge_index + 1) % 3)
    return edge_feature(edge_index)


def _nearest_edge_feature(tri: Triangle, p: Point2) -> FeatureId:
    best_d = math.inf
    best_i = 0
    for i in range(3):
        d, _, _ = _point_segment_param(p, tri.edge(i))
        if d < best_d:
            best_d, best_i = d, i
    return edge_feature(best_i)


def _contact_witness(tA: Triangle, tB: Triangle) -> tuple[Point2, FeatureId, FeatureId]:
    for i in range(3):
        ea = tA.edge(i)
        for j in range(3):
            p = _segment_intersection(ea, tB.edge(j))
            if p is not None:
                return p, edge_feature(i), edge_feature(j)
    for k in range(3):
        v = tB.vertex(k)
        if point_in_triangle(tA, v):
            return v, _nearest_edge_feature(tA, v), vertex_feature(k)
    for k in range(3):
        v = tA.vertex(k)
        if point_in_triangle(tB, v):
            return v, vertex_feature(k), _nearest_edge_feature(tB, v)
    raise AssertionError("overlapping triangles without a contact witness")


def brute_force_triangle_distance(tA: Triangle, tB: Triangle) -> DistanceResult:
    """Exact separation distance by exhausting all nine edge pairs.

    Overlapping or touching triangles report distance 0 with coincident
    witness points. Otherwise every edge of A is tested against every
    edge of B (which subsumes all vertex-vertex and vertex-edge pairs),
    recording nine ee_tests. Equal minima resolve to the earliest edge
    pair in row-major order, which keeps the reported feature indices as
    low as possible.
    """
    counters = TestCounters()
    if triangles_overlap(tA, tB):
        p, fa, fb = _contact_witness(tA, tB)
        return DistanceResult(0.0, p, p, fa, fb, counters)

    best: tuple[float, Point2, Point2, int, int, float, float] | None = None
    for i in range(3):
        ea = tA.edge(i)
        for j in range(3):
            d, pa, pb, t1, t2 = _segment_segment_params(ea, tB.edge(j))
            counters.ee_tests += 1
            if best is None or d < best[0]:
                best = (d, pa, pb, i, j, t1, t2)
    assert best is not None
    d, pa, pb, i, j, t1, t2 = best
    return DistanceResult(
        d, pa, pb, _classify_edge_point(i, t1), _classify_edge_point(j, t2), counters
    )


def triangle(coords: tuple[tuple[float, float], ...]) -> Triangle:
    """A frozen-copy triangle from three (x, y) vertex tuples."""
    return Triangle(Point2(*coords[0]), Point2(*coords[1]), Point2(*coords[2]))


def distance(coords_a: tuple[tuple[float, float], ...], coords_b: tuple[tuple[float, float], ...]) -> float:
    """Exact separation of two triangles given as (x, y) vertex tuples."""
    return brute_force_triangle_distance(triangle(coords_a), triangle(coords_b)).distance
