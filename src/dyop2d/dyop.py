"""Pivot-point pruned triangle distance.

For two triangles separated along a movement axis, the space between
their facing extremes bounds an inner gap box. Its midpoint — the
dynamic origin point — serves as a reference: only the two vertices of
each triangle nearest to it, and the edge joining them, are kept as
candidates.

The paper tests the candidates against each other with four
vertex-vertex, four vertex-edge and one edge-edge test. All nine
features lie on the two candidate edges, so the edge-edge test alone is
their exact minimum and the other eight can never win by a smaller
distance. The query therefore runs one segment-segment test and counts
one ee test, the unit of which the oracle counts nine.

The pruned minimum can only overestimate: it measures a subset of each
triangle's boundary, so the result is never below the exact separation
distance. It is exact whenever the winning features lie on the
candidate edges; the verify sweep measures the observed mismatch rate
empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateInput, ZeroVelocity
from .geometry import (
    Aabb,
    DistanceResult,
    Point2,
    TestCounters,
    Triangle,
    Vector2,
    _answer,
    _classify_edge_point,
    _Edges,
    _edges,
    _extent,
    _require_finite,
    _segment_segment,
)


class MovementAxis(Enum):
    X = "x"
    Y = "y"


@dataclass(frozen=True)
class InternalAabb:
    """The gap box between two facing triangles.

    ``leading``/``higher`` are argument positions (0 = first triangle,
    1 = second). ``degenerate_gap`` is set when the facing extremes
    overlap along the movement axis, i.e. the triangles' extents are not
    disjoint there and the pruning premise does not hold.
    """

    box: Aabb
    leading: int
    higher: int
    degenerate_gap: bool


@dataclass(frozen=True)
class DyopPoint:
    """The dynamic origin point: the midpoint of the internal gap box."""

    point: Point2


def dominant_axis(relative_velocity: Vector2) -> MovementAxis:
    """The axis the movement is mostly along; ties go to X."""
    if relative_velocity.dx == 0.0 and relative_velocity.dy == 0.0:
        raise ZeroVelocity("zero relative velocity: supply a separation axis explicitly")
    if abs(relative_velocity.dx) >= abs(relative_velocity.dy):
        return MovementAxis.X
    return MovementAxis.Y


def _gap(lo_a: float, hi_a: float, lo_b: float, hi_b: float) -> tuple[int, float, float, bool]:
    """The interval between two extents on one axis: (ahead, lo, hi, inverted).

    ``ahead`` is the argument (0 or 1) that sits further along the axis:
    greater maximum wins, ties fall to the greater minimum, and a full
    tie returns 1; fully tied extents always clamp to the same midpoint,
    so the choice cannot change any result. The interval runs from the
    trailing extent's maximum to the ahead extent's minimum; when it is
    inverted (the extents overlap) it clamps to its midpoint with zero
    width.
    """
    if hi_a != hi_b:
        ahead = 0 if hi_a > hi_b else 1
    elif lo_a != lo_b:
        ahead = 0 if lo_a > lo_b else 1
    else:
        ahead = 1
    lo, hi = (hi_a, lo_b) if ahead == 1 else (hi_b, lo_a)
    inverted = lo > hi
    if inverted:
        lo = hi = 0.5 * (lo + hi)
    return ahead, lo, hi, inverted


def _gap_box(
    edges_a: _Edges, edges_b: _Edges, axis: MovementAxis
) -> tuple[int, int, float, float, float, float, bool]:
    """(leading, higher, lo, hi, p_lo, p_hi, degenerate_gap) of the gap box.

    [lo, hi] is the box along the movement axis, [p_lo, p_hi] across it.
    """
    (ax0, ay0, ax1, ay1), (_, _, ax2, ay2), _ = edges_a
    (bx0, by0, bx1, by1), (_, _, bx2, by2), _ = edges_b
    xa, ya = _extent(ax0, ax1, ax2), _extent(ay0, ay1, ay2)
    xb, yb = _extent(bx0, bx1, bx2), _extent(by0, by1, by2)
    if axis is MovementAxis.X:
        along_a, along_b, across_a, across_b = xa, xb, ya, yb
    else:
        along_a, along_b, across_a, across_b = ya, yb, xa, xb
    lead, lo, hi, degenerate_gap = _gap(*along_a, *along_b)
    high, p_lo, p_hi, _ = _gap(*across_a, *across_b)
    return lead, high, lo, hi, p_lo, p_hi, degenerate_gap


def _midpoint(x0: float, y0: float, x1: float, y1: float) -> tuple[float, float]:
    """Midpoint of the box with corners (x0, y0) and (x1, y1); an overflowed
    midpoint is refused like any other non-finite point."""
    px, py = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    _require_finite(px, py)
    return px, py


def _nearest_two(edges: _Edges, px: float, py: float) -> tuple[int, int, int]:
    """(i, j, edge): the two vertices nearest (px, py), nearer first, and the
    edge joining them; ties resolve to the lower vertex index."""
    (x0, y0, x1, y1), (_, _, x2, y2), _ = edges
    d0 = (x0 - px) ** 2 + (y0 - py) ** 2
    d1 = (x1 - px) ** 2 + (y1 - py) ** 2
    d2 = (x2 - px) ** 2 + (y2 - py) ** 2
    # Drop the farthest vertex (the highest index among equals); the
    # edge opposite it joins the other two.
    if d2 >= d0 and d2 >= d1:
        return (0, 1, 0) if d0 <= d1 else (1, 0, 0)
    if d1 >= d0:
        return (0, 2, 2) if d0 <= d2 else (2, 0, 2)
    return (1, 2, 1) if d1 <= d2 else (2, 1, 1)


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
    if tA.is_degenerate or tB.is_degenerate:
        raise DegenerateInput("internal box requires non-degenerate triangles")

    lead, high, lo, hi, p_lo, p_hi, degenerate_gap = _gap_box(_edges(tA), _edges(tB), axis)
    if axis is MovementAxis.X:
        box = Aabb(Point2(lo, p_lo), Point2(hi, p_hi))
    else:
        box = Aabb(Point2(p_lo, lo), Point2(p_hi, hi))
    return InternalAabb(box=box, leading=lead, higher=high, degenerate_gap=degenerate_gap)


def compute_dyop(iaabb: InternalAabb) -> DyopPoint:
    """Midpoint of the internal box, componentwise."""
    box = iaabb.box
    return DyopPoint(Point2(*_midpoint(box.min.x, box.min.y, box.max.x, box.max.y)))


def select_candidates(tri: Triangle, dyop: DyopPoint) -> tuple[tuple[int, int], int]:
    """The two vertices nearest the pivot and the edge joining them.

    Ties resolve to the lower vertex index. Any two distinct vertices of
    a triangle are joined by exactly one edge, so the candidate edge is
    always well defined.
    """
    i, j, edge = _nearest_two(_edges(tri), dyop.point.x, dyop.point.y)
    return (i, j), edge


def dyop_distance(
    tA: Triangle, tB: Triangle, relative_velocity: Vector2
) -> DistanceResult:
    """Pruned shortest distance between two triangles.

    Runs the full pipeline: movement axis, internal gap box, pivot
    point, candidate selection, then one edge-edge test between the two
    candidate edges, which covers the paper's four vertex-vertex and four
    vertex-edge tests too. Intersecting candidate edges report their
    contact point at distance 0; otherwise equal distances keep the
    earliest endpoint projection in (a, b, c, d) order, for candidate
    edge a-b of A against c-d of B. The
    result is never below the exact separation distance; it equals it
    whenever the true witness features survive pruning. A
    "overlapping-boxes" flag marks queries whose extents were not
    disjoint along the movement axis.
    """
    axis = dominant_axis(relative_velocity)
    if tA._degenerate or tB._degenerate:
        raise DegenerateInput("pruned distance requires non-degenerate triangles")
    edges_a, edges_b = _edges(tA), _edges(tB)

    _, _, lo, hi, p_lo, p_hi, degenerate_gap = _gap_box(edges_a, edges_b, axis)
    along, across = _midpoint(lo, p_lo, hi, p_hi)
    px, py = (along, across) if axis is MovementAxis.X else (across, along)
    edge_a = _nearest_two(edges_a, px, py)[2]
    edge_b = _nearest_two(edges_b, px, py)[2]
    d, pax, pay, pbx, pby, t_a, t_b = _segment_segment(*edges_a[edge_a], *edges_b[edge_b])
    return _answer(
        d,
        pax,
        pay,
        pbx,
        pby,
        _classify_edge_point(edge_a, t_a),
        _classify_edge_point(edge_b, t_b),
        TestCounters(0, 0, 1),
        ("overlapping-boxes",) if degenerate_gap else (),
    )
