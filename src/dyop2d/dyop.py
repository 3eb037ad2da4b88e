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

The query runs on flat scalars: each triangle's six coordinates are
read once, into geometry's ``_ring`` tuple, which repeats vertex 0 so
that edge i is a slice of it, and the gap box, pivot and candidate
choice read those numbers directly. The public stages return the
query's own values, as plain tuples:

- ``build_internal_aabb`` the gap box
  ``(leading, higher, x_lo, y_lo, x_hi, y_hi, degenerate_gap)``;
- ``compute_dyop`` the pivot ``(px, py)``, which the query calls too;
- ``select_candidates`` ``(i, j, edge)``, the two vertices nearest the
  pivot and the edge joining them.
"""

from __future__ import annotations

from enum import Enum
from math import isfinite

from .errors import DegenerateInput, ZeroVelocity
from .geometry import (
    DistanceResult,
    FeatureId,
    TestCounters,
    Triangle,
    Vector2,
    _answer,
    _classify_edge_point,
    _require_finite,
    _ring,
    _Ring,
    _segment_segment,
)

# (leading, higher, x_lo, y_lo, x_hi, y_hi, degenerate_gap)
_Box = tuple[int, int, float, float, float, float, bool]


class MovementAxis(Enum):
    X = "x"
    Y = "y"


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


def _gap_box(ring_a: _Ring, ring_b: _Ring, axis: MovementAxis) -> _Box:
    """(leading, higher, x_lo, y_lo, x_hi, y_hi, degenerate_gap) of the gap box.

    Each triangle's extent on an axis is its first minimal and first
    maximal coordinate, so ties keep the lower vertex index.
    """
    x0, y0, x1, y1, x2, y2, _, _ = ring_a
    u0, v0, u1, v1, u2, v2, _, _ = ring_b
    xa_lo = x0 if x0 <= x1 and x0 <= x2 else (x1 if x1 <= x2 else x2)
    xa_hi = x0 if x0 >= x1 and x0 >= x2 else (x1 if x1 >= x2 else x2)
    ya_lo = y0 if y0 <= y1 and y0 <= y2 else (y1 if y1 <= y2 else y2)
    ya_hi = y0 if y0 >= y1 and y0 >= y2 else (y1 if y1 >= y2 else y2)
    xb_lo = u0 if u0 <= u1 and u0 <= u2 else (u1 if u1 <= u2 else u2)
    xb_hi = u0 if u0 >= u1 and u0 >= u2 else (u1 if u1 >= u2 else u2)
    yb_lo = v0 if v0 <= v1 and v0 <= v2 else (v1 if v1 <= v2 else v2)
    yb_hi = v0 if v0 >= v1 and v0 >= v2 else (v1 if v1 >= v2 else v2)
    if axis is MovementAxis.X:
        lead, x_lo, x_hi, degenerate_gap = _gap(xa_lo, xa_hi, xb_lo, xb_hi)
        high, y_lo, y_hi, _ = _gap(ya_lo, ya_hi, yb_lo, yb_hi)
    else:
        lead, y_lo, y_hi, degenerate_gap = _gap(ya_lo, ya_hi, yb_lo, yb_hi)
        high, x_lo, x_hi, _ = _gap(xa_lo, xa_hi, xb_lo, xb_hi)
    return lead, high, x_lo, y_lo, x_hi, y_hi, degenerate_gap


def _nearest_two(ring: _Ring, px: float, py: float) -> tuple[int, int, int]:
    """(i, j, edge): the two vertices nearest (px, py), nearer first, and the
    edge joining them; ties resolve to the lower vertex index."""
    x0, y0, x1, y1, x2, y2, _, _ = ring
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


def build_internal_aabb(tA: Triangle, tB: Triangle, axis: MovementAxis) -> _Box:
    """The gap box between two facing triangles, as
    (leading, higher, x_lo, y_lo, x_hi, y_hi, degenerate_gap).

    ``leading``/``higher`` are argument positions (0 = first triangle,
    1 = second): the triangle further along the movement axis and the
    one further along the perpendicular axis. Along the movement axis
    the box spans from the trailing triangle's facing extreme to the
    leading triangle's; on the perpendicular axis it spans from the
    lower triangle's maximum to the higher triangle's minimum. An
    inverted interval (extents overlapping on that axis) clamps to its
    midpoint with zero width; on the movement axis that also sets
    ``degenerate_gap``, since the construction's premise of an actual
    gap is then violated.
    """
    if tA.is_degenerate or tB.is_degenerate:
        raise DegenerateInput("internal box requires non-degenerate triangles")
    return _gap_box(_ring(tA), _ring(tB), axis)


def compute_dyop(box: _Box) -> tuple[float, float]:
    """The pivot (px, py): the gap box's midpoint, componentwise. An
    overflowed midpoint is refused like any other non-finite point."""
    _, _, x_lo, y_lo, x_hi, y_hi, _ = box
    px, py = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
    if not (isfinite(px) and isfinite(py)):
        _require_finite(px, py)
    return px, py


def select_candidates(tri: Triangle, pivot: tuple[float, float]) -> tuple[int, int, int]:
    """``_nearest_two`` on ``tri``'s vertices: (i, j, edge). Any two distinct
    vertices of a triangle are joined by exactly one edge, so the
    candidate edge is always well defined."""
    px, py = pivot
    return _nearest_two(_ring(tri), px, py)


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
    if tA.is_degenerate or tB.is_degenerate:
        raise DegenerateInput("pruned distance requires non-degenerate triangles")
    return _answer(*_dyop(_ring(tA), _ring(tB), axis))


def _dyop(
    ring_a: _Ring, ring_b: _Ring, axis: MovementAxis
) -> tuple[float, float, float, float, float, FeatureId, FeatureId, TestCounters, tuple[str, ...]]:
    """DyOP on two non-degenerate triangles' rings along ``axis``: the
    arguments of its ``_answer``."""
    box = _gap_box(ring_a, ring_b, axis)
    px, py = compute_dyop(box)
    edge_a = _nearest_two(ring_a, px, py)[2]
    edge_b = _nearest_two(ring_b, px, py)[2]
    i, j = 2 * edge_a, 2 * edge_b
    d, pax, pay, pbx, pby, t_a, t_b = _segment_segment(
        ring_a[i], ring_a[i + 1], ring_a[i + 2], ring_a[i + 3],
        ring_b[j], ring_b[j + 1], ring_b[j + 2], ring_b[j + 3],
    )
    return (
        d,
        pax,
        pay,
        pbx,
        pby,
        _classify_edge_point(edge_a, t_a),
        _classify_edge_point(edge_b, t_b),
        TestCounters(0, 0, 1),
        ("overlapping-boxes",) if box[6] else (),
    )
