"""A frozen copy of the original object-based primitives, DyOP pipeline and oracle,
of the Lin-Canny feature walk with its 36-feature-pair exhaustive fallback, and
of GJK on SupportPoint objects and a self-validating Simplex, and of the
benchmark placement that bisects the mover's offset against the oracle.

tests/test_equivalence.py compares the float-coordinate implementations
in dyop2d against this module, which must not change with them: it reads
triangles only through their vertex fields and builds a Point2 for every
intermediate point, as the original code did. Only the data types come
from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from dyop2d.baselines import FeaturePair
from dyop2d.dyop import CandidateSet, DyopPoint, InternalAabb, MovementAxis
from dyop2d.errors import (
    DegenerateInput,
    Penetrating,
    PlacementFailure,
    ZeroDirection,
    ZeroVelocity,
)
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
)


def _vertices(tri: Triangle) -> tuple[Point2, Point2, Point2]:
    return (tri.v0, tri.v1, tri.v2)


def _vertex(tri: Triangle, i: int) -> Point2:
    return _vertices(tri)[i]


def _edge(tri: Triangle, i: int) -> Segment:
    vs = _vertices(tri)
    return Segment(vs[i], vs[(i + 1) % 3])


def _is_degenerate(tri: Triangle) -> bool:
    a, b, c = _vertices(tri)
    return abs(0.5 * ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))) <= DEGENERATE_AREA


def vertex_feature(i: int) -> FeatureId:
    return FeatureId(FeatureKind.VERTEX, i)


def edge_feature(i: int) -> FeatureId:
    return FeatureId(FeatureKind.EDGE, i)


def edge_index_joining(i: int, j: int) -> int:
    if j == (i + 1) % 3:
        return i
    if i == (j + 1) % 3:
        return j
    raise ValueError(f"no edge joins vertices {i} and {j}")


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


def point_segment_distance(p: Point2, s: Segment) -> tuple[float, Point2]:
    """Shortest distance from a point to a closed segment, with the closest point."""
    d, closest, _ = _point_segment_param(p, s)
    return d, closest


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


def segment_segment_distance(s1: Segment, s2: Segment) -> tuple[float, Point2, Point2]:
    """Shortest distance between two closed segments, with witness points."""
    d, pa, pb, _, _ = _segment_segment_params(s1, s2)
    return d, pa, pb


def point_in_triangle(tri: Triangle, p: Point2) -> bool:
    """Containment test, boundary inclusive; degenerate triangles act as segments."""
    if _is_degenerate(tri):
        for i in range(3):
            e = _edge(tri, i)
            if _orient(e.a, e.b, p) == 0.0 and _within_extent(e.a, e.b, p):
                return True
        return False
    # CCW-normalized, so inside means left of (or on) every edge.
    for i in range(3):
        e = _edge(tri, i)
        if _orient(e.a, e.b, p) < 0.0:
            return False
    return True


def triangles_overlap(tA: Triangle, tB: Triangle) -> bool:
    """True when the triangles share any point; boundary contact counts."""
    for i in range(3):
        ea = _edge(tA, i)
        for j in range(3):
            if _segment_intersection(ea, _edge(tB, j)) is not None:
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
        d, _, _ = _point_segment_param(p, _edge(tri, i))
        if d < best_d:
            best_d, best_i = d, i
    return edge_feature(best_i)


def _contact_witness(tA: Triangle, tB: Triangle) -> tuple[Point2, FeatureId, FeatureId]:
    for i in range(3):
        ea = _edge(tA, i)
        for j in range(3):
            p = _segment_intersection(ea, _edge(tB, j))
            if p is not None:
                return p, edge_feature(i), edge_feature(j)
    for k in range(3):
        v = _vertex(tB, k)
        if point_in_triangle(tA, v):
            return v, _nearest_edge_feature(tA, v), vertex_feature(k)
    for k in range(3):
        v = _vertex(tA, k)
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
        ea = _edge(tA, i)
        for j in range(3):
            d, pa, pb, t1, t2 = _segment_segment_params(ea, _edge(tB, j))
            counters.ee_tests += 1
            if best is None or d < best[0]:
                best = (d, pa, pb, i, j, t1, t2)
    assert best is not None
    d, pa, pb, i, j, t1, t2 = best
    return DistanceResult(
        d, pa, pb, _classify_edge_point(i, t1), _classify_edge_point(j, t2), counters
    )


def dominant_axis(relative_velocity: Vector2) -> MovementAxis:
    """The axis the movement is mostly along; ties go to X."""
    if relative_velocity.dx == 0.0 and relative_velocity.dy == 0.0:
        raise ZeroVelocity("zero relative velocity: supply a separation axis explicitly")
    if abs(relative_velocity.dx) >= abs(relative_velocity.dy):
        return MovementAxis.X
    return MovementAxis.Y


def _coord(p: Point2, axis: MovementAxis) -> float:
    return p.x if axis is MovementAxis.X else p.y


def _extent(tri: Triangle, axis: MovementAxis) -> tuple[float, float]:
    cs = [_coord(v, axis) for v in _vertices(tri)]
    return min(cs), max(cs)


def _extreme_index(tri: Triangle, axis: MovementAxis, maximize: bool) -> int:
    """Index of the extremal vertex on the axis; ties keep the lower index."""
    best_i = 0
    best = _coord(tri.v0, axis)
    for i in (1, 2):
        c = _coord(_vertex(tri, i), axis)
        if (c > best) if maximize else (c < best):
            best_i, best = i, c
    return best_i


def _foremost(tA: Triangle, tB: Triangle, axis: MovementAxis) -> int:
    """Which argument (0 or 1) sits ahead on the axis.

    Greater extent maximum wins, ties fall to the greater minimum, and a
    full tie returns 1; fully tied extents always clamp to the same
    midpoint downstream, so the choice cannot change any result.
    """
    lo_a, hi_a = _extent(tA, axis)
    lo_b, hi_b = _extent(tB, axis)
    if hi_a != hi_b:
        return 0 if hi_a > hi_b else 1
    if lo_a != lo_b:
        return 0 if lo_a > lo_b else 1
    return 1


def nearest_facing_vertices(
    tA: Triangle, tB: Triangle, axis: MovementAxis
) -> tuple[int, int]:
    """The vertex of each triangle on its side of the gap.

    The trailing triangle contributes its maximal vertex on the axis,
    the leading one its minimal vertex; ties keep the lower index.
    """
    if _foremost(tA, tB, axis) == 1:
        return (
            _extreme_index(tA, axis, maximize=True),
            _extreme_index(tB, axis, maximize=False),
        )
    return (
        _extreme_index(tA, axis, maximize=False),
        _extreme_index(tB, axis, maximize=True),
    )


def build_internal_aabb(tA: Triangle, tB: Triangle, axis: MovementAxis) -> InternalAabb:
    """Construct the gap box between two facing triangles.

    Along the movement axis the box spans from the trailing triangle's
    facing extreme to the leading triangle's; on the perpendicular axis
    it spans from the lower triangle's maximum to the higher triangle's
    minimum. An inverted interval (extents overlapping on that axis)
    clamps to its midpoint with zero width; on the movement axis that
    also sets ``degenerate_gap``, since the construction's premise of an
    actual gap is then violated.
    """
    if _is_degenerate(tA) or _is_degenerate(tB):
        raise DegenerateInput("internal box requires non-degenerate triangles")

    lead = _foremost(tA, tB, axis)
    idx_a, idx_b = nearest_facing_vertices(tA, tB, axis)
    coord_a = _coord(_vertex(tA, idx_a), axis)
    coord_b = _coord(_vertex(tB, idx_b), axis)
    lo, hi = (coord_a, coord_b) if lead == 1 else (coord_b, coord_a)
    degenerate_gap = lo > hi
    if degenerate_gap:
        lo = hi = 0.5 * (lo + hi)

    perp = MovementAxis.Y if axis is MovementAxis.X else MovementAxis.X
    high = _foremost(tA, tB, perp)
    higher_tri = (tA, tB)[high]
    lower_tri = (tA, tB)[1 - high]
    p_lo = _extent(lower_tri, perp)[1]
    p_hi = _extent(higher_tri, perp)[0]
    if p_lo > p_hi:
        p_lo = p_hi = 0.5 * (p_lo + p_hi)

    if axis is MovementAxis.X:
        box = Aabb(Point2(lo, p_lo), Point2(hi, p_hi))
    else:
        box = Aabb(Point2(p_lo, lo), Point2(p_hi, hi))
    return InternalAabb(box=box, leading=lead, higher=high, degenerate_gap=degenerate_gap)


def compute_dyop(iaabb: InternalAabb) -> DyopPoint:
    """Midpoint of the internal box, componentwise."""
    box = iaabb.box
    return DyopPoint(
        Point2(0.5 * (box.min.x + box.max.x), 0.5 * (box.min.y + box.max.y))
    )


def select_candidates(tri: Triangle, dyop: DyopPoint) -> tuple[tuple[int, int], int]:
    """The two vertices nearest the pivot and the edge joining them.

    Ties resolve to the lower vertex index. Any two distinct vertices of
    a triangle are joined by exactly one edge, so the candidate edge is
    always well defined.
    """
    p = dyop.point
    ranked = sorted(
        range(3),
        key=lambda i: (
            (_vertex(tri, i).x - p.x) ** 2 + (_vertex(tri, i).y - p.y) ** 2,
            i,
        ),
    )
    pair = (ranked[0], ranked[1])
    return pair, edge_index_joining(pair[0], pair[1])


def dyop_distance(
    tA: Triangle, tB: Triangle, relative_velocity: Vector2
) -> DistanceResult:
    """Pruned shortest distance between two triangles.

    Runs the full pipeline: movement axis, facing vertices, internal gap
    box, pivot point, candidate selection, then exactly four
    vertex-vertex, four vertex-edge, and one edge-edge evaluation over
    the candidates. The result is never below the exact separation
    distance; it equals it whenever the true witness features survive
    pruning. A "overlapping-boxes" flag marks queries whose extents were
    not disjoint along the movement axis.
    """
    axis = dominant_axis(relative_velocity)
    if _is_degenerate(tA) or _is_degenerate(tB):
        raise DegenerateInput("pruned distance requires non-degenerate triangles")

    iaabb = build_internal_aabb(tA, tB, axis)
    pivot = compute_dyop(iaabb)
    verts_a, edge_a = select_candidates(tA, pivot)
    verts_b, edge_b = select_candidates(tB, pivot)
    cand = CandidateSet(verts_a, verts_b, edge_a, edge_b)

    counters = TestCounters()
    best: tuple[float, Point2, Point2, FeatureId, FeatureId] | None = None

    def consider(d: float, pa: Point2, pb: Point2, fa: FeatureId, fb: FeatureId) -> None:
        nonlocal best
        if (
            best is None
            or d < best[0]
            or (d == best[0] and (fa.index, fb.index) < (best[3].index, best[4].index))
        ):
            best = (d, pa, pb, fa, fb)

    ea = _edge(tA, cand.edge_a)
    eb = _edge(tB, cand.edge_b)
    for i in cand.verts_a:
        va = _vertex(tA, i)
        for j in cand.verts_b:
            vb = _vertex(tB, j)
            counters.vv_tests += 1
            d = math.hypot(va.x - vb.x, va.y - vb.y)
            consider(d, va, vb, vertex_feature(i), vertex_feature(j))
    for i in cand.verts_a:
        va = _vertex(tA, i)
        d, closest, t = _point_segment_param(va, eb)
        counters.ve_tests += 1
        consider(d, va, closest, vertex_feature(i), _classify_edge_point(cand.edge_b, t))
    for j in cand.verts_b:
        vb = _vertex(tB, j)
        d, closest, t = _point_segment_param(vb, ea)
        counters.ve_tests += 1
        consider(d, closest, vb, _classify_edge_point(cand.edge_a, t), vertex_feature(j))
    d, pa, pb, t1, t2 = _segment_segment_params(ea, eb)
    counters.ee_tests += 1
    consider(
        d,
        pa,
        pb,
        _classify_edge_point(cand.edge_a, t1),
        _classify_edge_point(cand.edge_b, t2),
    )

    assert best is not None
    flags = ("overlapping-boxes",) if iaabb.degenerate_gap else ()
    return DistanceResult(best[0], best[1], best[2], best[3], best[4], counters, flags)


_VORONOI_EPS = 1e-12


def _feature_distance(
    tA: Triangle, fa: FeatureId, tB: Triangle, fb: FeatureId, counters: TestCounters
) -> tuple[float, Point2, Point2]:
    a_vertex = fa.kind is FeatureKind.VERTEX
    b_vertex = fb.kind is FeatureKind.VERTEX
    if a_vertex and b_vertex:
        va, vb = _vertex(tA, fa.index), _vertex(tB, fb.index)
        counters.vv_tests += 1
        return math.hypot(va.x - vb.x, va.y - vb.y), va, vb
    if a_vertex:
        va = _vertex(tA, fa.index)
        counters.ve_tests += 1
        d, closest = point_segment_distance(va, _edge(tB, fb.index))
        return d, va, closest
    if b_vertex:
        vb = _vertex(tB, fb.index)
        counters.ve_tests += 1
        d, closest = point_segment_distance(vb, _edge(tA, fa.index))
        return d, closest, vb
    counters.ee_tests += 1
    return segment_segment_distance(_edge(tA, fa.index), _edge(tB, fb.index))


def _voronoi_escape(tri: Triangle, feature: FeatureId, p: Point2) -> FeatureId | None:
    if feature.kind is FeatureKind.VERTEX:
        i = feature.index
        v = _vertex(tri, i)
        nxt = _vertex(tri, (i + 1) % 3)
        prv = _vertex(tri, (i + 2) % 3)
        if (p.x - v.x) * (nxt.x - v.x) + (p.y - v.y) * (nxt.y - v.y) > _VORONOI_EPS:
            return edge_feature(i)
        if (p.x - v.x) * (prv.x - v.x) + (p.y - v.y) * (prv.y - v.y) > _VORONOI_EPS:
            return edge_feature((i + 2) % 3)
        return None

    i = feature.index
    a = _vertex(tri, i)
    b = _vertex(tri, (i + 1) % 3)
    ux, uy = b.x - a.x, b.y - a.y
    t = (p.x - a.x) * ux + (p.y - a.y) * uy
    if t < -_VORONOI_EPS:
        return vertex_feature(i)
    if t > ux * ux + uy * uy + _VORONOI_EPS:
        return vertex_feature((i + 1) % 3)
    if (p.x - a.x) * uy - (p.y - a.y) * ux < -_VORONOI_EPS:
        da = math.hypot(p.x - a.x, p.y - a.y)
        db = math.hypot(p.x - b.x, p.y - b.y)
        return vertex_feature(i) if da <= db else vertex_feature((i + 1) % 3)
    return None


_ALL_FEATURES = tuple(
    [FeatureId(FeatureKind.VERTEX, i) for i in range(3)]
    + [FeatureId(FeatureKind.EDGE, i) for i in range(3)]
)


def _exhaustive_pair(
    tA: Triangle, tB: Triangle, counters: TestCounters
) -> tuple[float, Point2, Point2, FeatureId, FeatureId]:
    best: tuple[float, Point2, Point2, FeatureId, FeatureId] | None = None
    for fa in _ALL_FEATURES:
        for fb in _ALL_FEATURES:
            d, pa, pb = _feature_distance(tA, fa, tB, fb, counters)
            if best is None or d < best[0]:
                best = (d, pa, pb, fa, fb)
    assert best is not None
    return best


def _walk_features(
    tA: Triangle,
    tB: Triangle,
    fa: FeatureId,
    fb: FeatureId,
    counters: TestCounters,
    trace: list[tuple[FeatureId, FeatureId, float]] | None = None,
) -> tuple[float, Point2, Point2, FeatureId, FeatureId]:
    """The walk; revisiting a pair or not strictly decreasing runs the 36-pair sweep."""
    visited: set[tuple[FeatureId, FeatureId]] = set()
    prev = math.inf
    while True:
        key = (fa, fb)
        if key in visited:
            return _exhaustive_pair(tA, tB, counters)
        visited.add(key)
        d, pa, pb = _feature_distance(tA, fa, tB, fb, counters)
        if trace is not None:
            trace.append((fa, fb, d))
        if d >= prev:
            return _exhaustive_pair(tA, tB, counters)
        prev = d
        step_a = _voronoi_escape(tA, fa, pb)
        if step_a is not None:
            fa = step_a
            continue
        step_b = _voronoi_escape(tB, fb, pa)
        if step_b is not None:
            fb = step_b
            continue
        return d, pa, pb, fa, fb


def lin_canny_distance(
    tA: Triangle, tB: Triangle, seed: FeaturePair | None = None
) -> tuple[DistanceResult, FeaturePair]:
    if _is_degenerate(tA) or _is_degenerate(tB):
        raise DegenerateInput("feature walk requires non-degenerate triangles")
    if triangles_overlap(tA, tB):
        raise Penetrating("triangles overlap; the feature walk handles disjoint shapes only")

    counters = TestCounters()
    if seed is not None:
        fa, fb = seed.feature_a, seed.feature_b
    else:
        fa, fb = vertex_feature(0), vertex_feature(0)
    d, pa, pb, fa, fb = _walk_features(tA, tB, fa, fb, counters)
    result = DistanceResult(d, pa, pb, fa, fb, counters)
    return result, FeaturePair(fa, fb)


GJK_MAX_ITERATIONS = 64
GJK_IMPROVEMENT_TOL = 1e-12


def support(tri: Triangle, direction: Vector2) -> tuple[int, Point2]:
    if direction.dx == 0.0 and direction.dy == 0.0:
        raise ZeroDirection("support direction must be non-zero")
    best_i = 0
    best = tri.v0.x * direction.dx + tri.v0.y * direction.dy
    for i in (1, 2):
        v = _vertex(tri, i)
        d = v.x * direction.dx + v.y * direction.dy
        if d > best:
            best_i, best = i, d
    return best_i, _vertex(tri, best_i)


@dataclass(frozen=True)
class SupportPoint:
    point: Point2
    index_a: int
    index_b: int


@dataclass
class Simplex:
    """1 to 3 difference-space points, no duplicates; checked on every construction."""

    points: list[SupportPoint]

    def __post_init__(self) -> None:
        if not 1 <= len(self.points) <= 3:
            raise ValueError(f"simplex size out of range: {len(self.points)}")
        keys = {(sp.index_a, sp.index_b) for sp in self.points}
        if len(keys) != len(self.points):
            raise ValueError("duplicate simplex points")

    def contains_sources(self, sp: SupportPoint) -> bool:
        return any(
            p.index_a == sp.index_a and p.index_b == sp.index_b for p in self.points
        )


def _minkowski_support(tA: Triangle, tB: Triangle, dx: float, dy: float) -> SupportPoint:
    ia, va = support(tA, Vector2(dx, dy))
    ib, vb = support(tB, Vector2(-dx, -dy))
    return SupportPoint(Point2(va.x - vb.x, va.y - vb.y), ia, ib)


_LambdaList = list[tuple[SupportPoint, float]]


def _closest_on_segment(a: SupportPoint, b: SupportPoint) -> tuple[float, float, _LambdaList, bool]:
    ax, ay = a.point.x, a.point.y
    abx, aby = b.point.x - ax, b.point.y - ay
    ab2 = abx * abx + aby * aby
    if ab2 == 0.0:
        return ax, ay, [(a, 1.0)], False
    t = -(ax * abx + ay * aby) / ab2
    if t <= 0.0:
        return ax, ay, [(a, 1.0)], False
    if t >= 1.0:
        return b.point.x, b.point.y, [(b, 1.0)], False
    return ax + t * abx, ay + t * aby, [(a, 1.0 - t), (b, t)], False


def _closest_on_triangle(
    a: SupportPoint, b: SupportPoint, c: SupportPoint
) -> tuple[float, float, _LambdaList, bool]:
    ax, ay = a.point.x, a.point.y
    bx, by = b.point.x, b.point.y
    cx, cy = c.point.x, c.point.y
    abx, aby = bx - ax, by - ay
    acx, acy = cx - ax, cy - ay

    d1 = -(abx * ax + aby * ay)
    d2 = -(acx * ax + acy * ay)
    if d1 <= 0.0 and d2 <= 0.0:
        return ax, ay, [(a, 1.0)], False

    d3 = -(abx * bx + aby * by)
    d4 = -(acx * bx + acy * by)
    if d3 >= 0.0 and d4 <= d3:
        return bx, by, [(b, 1.0)], False

    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0 and d1 != d3:
        t = d1 / (d1 - d3)
        return ax + t * abx, ay + t * aby, [(a, 1.0 - t), (b, t)], False

    d5 = -(abx * cx + aby * cy)
    d6 = -(acx * cx + acy * cy)
    if d6 >= 0.0 and d5 <= d6:
        return cx, cy, [(c, 1.0)], False

    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0 and d2 != d6:
        t = d2 / (d2 - d6)
        return ax + t * acx, ay + t * acy, [(a, 1.0 - t), (c, t)], False

    va = d3 * d6 - d5 * d4
    if va <= 0.0 and d4 - d3 >= 0.0 and d5 - d6 >= 0.0 and (d4 - d3) + (d5 - d6) > 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return bx + t * (cx - bx), by + t * (cy - by), [(b, 1.0 - t), (c, t)], False

    denom = va + vb + vc
    if denom <= 0.0:
        candidates = (
            _closest_on_segment(a, b),
            _closest_on_segment(a, c),
            _closest_on_segment(b, c),
        )
        return min(candidates, key=lambda r: r[0] * r[0] + r[1] * r[1])
    v = vb / denom
    w = vc / denom
    u = 1.0 - v - w
    return 0.0, 0.0, [(a, u), (b, v), (c, w)], True


def _solve_simplex(simplex: Simplex, counters: TestCounters) -> tuple[float, float, _LambdaList, bool]:
    pts = simplex.points
    if len(pts) == 1:
        counters.vv_tests += 1
        return pts[0].point.x, pts[0].point.y, [(pts[0], 1.0)], False
    if len(pts) == 2:
        counters.ve_tests += 1
        return _closest_on_segment(pts[0], pts[1])
    counters.ee_tests += 1
    return _closest_on_triangle(pts[0], pts[1], pts[2])


def _side_feature(lambdas: _LambdaList, side: str) -> FeatureId:
    weights: dict[int, float] = {}
    for sp, lam in lambdas:
        idx = sp.index_a if side == "a" else sp.index_b
        weights[idx] = weights.get(idx, 0.0) + lam
    active = sorted(i for i, w in weights.items() if w > 1e-12)
    if not active:
        active = [min(weights)]
    if len(active) == 1:
        return vertex_feature(active[0])
    if len(active) == 2:
        return edge_feature(edge_index_joining(active[0], active[1]))
    heaviest = max(active, key=lambda i: (weights[i], -i))
    return vertex_feature(heaviest)


def _centroid(tri: Triangle) -> Point2:
    a, b, c = _vertices(tri)
    return Point2((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)


def gjk_distance(tA: Triangle, tB: Triangle) -> DistanceResult:
    """GJK on SupportPoint objects, re-validating the Simplex on every iteration."""
    if _is_degenerate(tA) or _is_degenerate(tB):
        raise DegenerateInput("gjk requires non-degenerate triangles")

    counters = TestCounters()
    ca, cb = _centroid(tA), _centroid(tB)
    dx, dy = ca.x - cb.x, ca.y - cb.y
    if dx == 0.0 and dy == 0.0:
        dx = 1.0
    start = _minkowski_support(tA, tB, dx, dy)
    simplex = Simplex([start])

    lambdas: _LambdaList = [(start, 1.0)]
    intersecting = False
    converged = False
    for _ in range(GJK_MAX_ITERATIONS):
        vx, vy, lambdas, inside = _solve_simplex(simplex, counters)
        simplex = Simplex([sp for sp, _ in lambdas])
        if inside:
            intersecting = True
            converged = True
            break
        v2 = vx * vx + vy * vy
        if v2 <= 1e-24:
            intersecting = True
            converged = True
            break
        w = _minkowski_support(tA, tB, -vx, -vy)
        if simplex.contains_sources(w):
            converged = True
            break
        if v2 - (vx * w.point.x + vy * w.point.y) < GJK_IMPROVEMENT_TOL:
            converged = True
            break
        simplex = Simplex(simplex.points + [w])

    pax = sum(lam * _vertex(tA, sp.index_a).x for sp, lam in lambdas)
    pay = sum(lam * _vertex(tA, sp.index_a).y for sp, lam in lambdas)
    pbx = sum(lam * _vertex(tB, sp.index_b).x for sp, lam in lambdas)
    pby = sum(lam * _vertex(tB, sp.index_b).y for sp, lam in lambdas)
    if intersecting:
        point_a = point_b = Point2(pax, pay)
        distance = 0.0
    else:
        point_a = Point2(pax, pay)
        point_b = Point2(pbx, pby)
        distance = math.hypot(pax - pbx, pay - pby)
    flags = () if converged else ("gjk-unconverged",)
    return DistanceResult(
        distance,
        point_a,
        point_b,
        _side_feature(lambdas, "a"),
        _side_feature(lambdas, "b"),
        counters,
        flags,
    )


PLACEMENT_TOLERANCE = 1e-9


def _translated_along(tri: Triangle, axis: MovementAxis, offset: float) -> Triangle:
    if axis is MovementAxis.X:
        return tri.translated(-offset, 0.0)
    return tri.translated(0.0, -offset)


def _span(tri: Triangle, axis: MovementAxis) -> float:
    lo, hi = _extent(tri, axis)
    return hi - lo


def place_pair(scene, pair: tuple[int, int]) -> tuple[Triangle, Triangle, Vector2]:
    """Translate the mover along the negative axis until the exact distance
    equals the scene separation, by bisecting the offset against the oracle.

    When the canonical poses are apart, a ternary search over
    [-hi, hi] first looks for an offset inside the separation; it ignores
    how far apart the poses are, so it refuses some reachable pairs.
    """
    i, j = pair
    n = len(scene.objects)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError(f"invalid pair: {pair}")
    mover = scene.objects[i]
    static = scene.objects[j]
    axis = scene.axis

    def gap(offset: float) -> float:
        moved = _translated_along(mover, axis, offset)
        return brute_force_triangle_distance(moved, static).distance - scene.separation

    hi = _span(mover, axis) + _span(static, axis) + scene.separation + 1.0
    for _ in range(64):
        if gap(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise PlacementFailure(f"no offset reaches separation {scene.separation}")

    lo = 0.0
    if gap(lo) > 0.0:
        a, b = -hi, hi
        for _ in range(200):
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            if gap(m1) <= gap(m2):
                b = m2
            else:
                a = m1
        lo = 0.5 * (a + b)
        if gap(lo) > 0.0:
            raise PlacementFailure(
                f"pair {pair} cannot reach separation {scene.separation} along {scene.axis.value}"
            )

    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    if abs(gap(hi)) > PLACEMENT_TOLERANCE:
        raise PlacementFailure(f"bisection did not converge for pair {pair}")

    moved = _translated_along(mover, axis, hi)
    velocity = Vector2(1.0, 0.0) if axis is MovementAxis.X else Vector2(0.0, 1.0)
    return moved, static, velocity
