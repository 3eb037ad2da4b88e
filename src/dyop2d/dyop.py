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

The query runs on flat scalars: ``geometry._pair`` hands on the six
coordinates each triangle cached, the layout that the oracle, GJK and
Lin-Canny read too. Its kernel ``_dyop`` is one straight-line function,
as the oracle's ``geometry._edge_sweep`` is: the gap box, the pivot, the
candidate choice and the naming of the witnesses' features are written
out in it, and the candidate edges go to one segment test. The gap box
has a gap on an axis when the two triangles' extents are apart there;
then their bounding boxes are apart, the candidate edges cannot touch
(Ericson, Real-Time Collision Detection, 2004, 4.2), and the kernel
calls ``geometry._segment_projections``, the segment test's four
endpoint projections without its contact half. Without a gap it calls
``geometry._segment_segment``, the package's one test that decides
contact. On segments whose boxes are apart the two answer alike, bit
for bit, so the query's answers are those of the full test. On its way
to an answer it makes two calls: the segment test and the one that
builds its counters. The three public stages below are the definition
that the kernel writes out. They state the paper's rule plainly, from
each triangle's vertices: the extents by ``min`` and ``max``, and the
two vertices nearest the pivot by a stable sort of their squared
distances. So the test that holds the kernel to their chain and the
segment test, bit for bit, checks it against an independent statement
of the rule. They return the kernel's values as plain tuples:

- ``build_internal_aabb`` the gap box
  ``(leading, higher, x_lo, y_lo, x_hi, y_hi, degenerate_gap)``;
- ``compute_dyop`` the pivot ``(px, py)``;
- ``select_candidates`` ``(i, j, edge)``, the two vertices nearest the
  pivot and the edge joining them.

The candidate choice squares each vertex's offset from the pivot as a
product, ``ex * ex + ey * ey``. IEEE multiplication rounds correctly
and a libm ``pow`` behind ``** 2`` does not always, so where two
vertices nearly tie, the choice no longer depends on the platform's
``pow``. The kernel takes coordinates in range, at most 2^510 in
magnitude, where no square overflows: ``geometry._pair`` scales a pair
past that into range by one power of two (geometry's one overflow
rule), so the query refuses nothing but a degenerate triangle or a pair
too wide to scale. The
public stages are definitions on raw coordinates, and there a square can
overflow to inf. One infinite square still decides: its vertex is the
farthest, and the stages' sort puts it last. Two or more in one
triangle, as every square to an overflowed pivot is, leave the nearest
two undecided, and ``select_candidates`` refuses them with
``OverflowError``.
"""

from __future__ import annotations

from enum import Enum
from math import inf

from .errors import DegenerateInput, ZeroVelocity
from .geometry import (
    _EDGE_FEATURES,
    _VERTEX_FEATURES,
    DistanceResult,
    FeatureId,
    TestCounters,
    Triangle,
    Vector2,
    _answer,
    _Coords,
    _pair,
    _segment_projections,
    _segment_segment,
)

# (leading, higher, x_lo, y_lo, x_hi, y_hi, degenerate_gap)
_Box = tuple[int, int, float, float, float, float, bool]


class MovementAxis(Enum):
    X = "x"
    Y = "y"


# The members, read once at import: a read of ``MovementAxis.X`` took
# 28-154 ns on CPython 3.10-3.13, where a module global takes a few.
_X, _Y = MovementAxis.X, MovementAxis.Y


def dominant_axis(relative_velocity: Vector2) -> MovementAxis:
    """The axis the movement is mostly along; ties go to X."""
    if relative_velocity.dx == 0.0 and relative_velocity.dy == 0.0:
        raise ZeroVelocity("zero relative velocity: supply a separation axis explicitly")
    if abs(relative_velocity.dx) >= abs(relative_velocity.dy):
        return _X
    return _Y


def build_internal_aabb(tA: Triangle, tB: Triangle, axis: MovementAxis) -> _Box:
    """The gap box between two facing triangles, as
    (leading, higher, x_lo, y_lo, x_hi, y_hi, degenerate_gap).

    ``leading``/``higher`` are argument positions (0 = first triangle,
    1 = second): the triangle further along the movement axis and the
    one further along the perpendicular axis. On each axis a triangle's
    extent is the ``min`` and ``max`` of its vertices' coordinates (each
    keeps the first of equal values, so of 0.0 and -0.0 the lower
    vertex's); the triangle ahead is the one with the greater maximum,
    then the greater minimum, and a full tie puts the second ahead (fully
    tied extents clamp to the same midpoint, so the choice cannot change
    any result).
    The box spans from the trailing triangle's maximum to the ahead
    triangle's minimum. An inverted interval (extents overlapping on that
    axis) clamps to its midpoint with zero width; on the movement axis
    that also sets ``degenerate_gap``, since the construction's premise
    of an actual gap is then violated.
    """
    if tA.is_degenerate or tB.is_degenerate:
        raise DegenerateInput("internal box requires non-degenerate triangles")
    a, b = tA.vertices, tB.vertices
    gaps = []
    for ca, cb in (([p.x for p in a], [p.x for p in b]), ([p.y for p in a], [p.y for p in b])):
        ahead = 0 if (max(ca), min(ca)) > (max(cb), min(cb)) else 1
        trailing, leading = (cb, ca) if ahead == 0 else (ca, cb)
        lo, hi = max(trailing), min(leading)
        inverted = lo > hi
        if inverted:
            lo = hi = 0.5 * (lo + hi)
        gaps.append((ahead, lo, hi, inverted))
    (x_ahead, x_lo, x_hi, x_inverted), (y_ahead, y_lo, y_hi, y_inverted) = gaps
    if axis is _X:
        return x_ahead, y_ahead, x_lo, y_lo, x_hi, y_hi, x_inverted
    return y_ahead, x_ahead, x_lo, y_lo, x_hi, y_hi, y_inverted


def compute_dyop(box: _Box) -> tuple[float, float]:
    """The pivot (px, py): the gap box's midpoint, componentwise. A
    midpoint that overflows is returned as it is: every squared distance
    to an infinite pivot is infinite, so ``select_candidates`` refuses it."""
    _, _, x_lo, y_lo, x_hi, y_hi, _ = box
    return 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)


def select_candidates(tri: Triangle, pivot: tuple[float, float]) -> tuple[int, int, int]:
    """(i, j, edge): the two vertices of ``tri`` nearest the pivot, nearer
    first, and the edge joining them; ties resolve to the lower vertex
    index. Any two distinct vertices of a triangle are joined by exactly
    one edge, so the candidate edge is always well defined.

    The vertex indices are sorted by their squared distances, products
    on the offsets; the sort is stable, so the farthest vertex among
    equals is the highest index. One infinite square marks its vertex as
    the farthest; two or more leave the choice undecided and raise
    ``OverflowError``."""
    px, py = pivot
    squares = [(p.x - px) * (p.x - px) + (p.y - py) * (p.y - py) for p in tri.vertices]
    if squares.count(inf) > 1:
        raise OverflowError("squared distances to the pivot overflow")
    # The edge opposite the farthest vertex joins the other two.
    i, j, far = sorted((0, 1, 2), key=squares.__getitem__)
    return i, j, (far + 1) % 3


def dyop_distance(
    tA: Triangle, tB: Triangle, relative_velocity: Vector2
) -> DistanceResult:
    """Pruned shortest distance between two triangles.

    Runs the full pipeline: the movement axis, then, in the one kernel
    ``_dyop``, the internal gap box, pivot point, candidate selection and
    one edge-edge test between the two candidate edges, which covers the
    paper's four vertex-vertex and four vertex-edge tests too.
    Intersecting candidate edges report their contact point at distance
    0; otherwise equal distances keep the earliest endpoint projection in
    (a, b, c, d) order, for candidate edge a-b of A against c-d of B. The
    result is never below the exact separation distance; it equals it
    whenever the true witness features survive pruning. A
    "overlapping-boxes" flag marks queries whose extents were not
    disjoint along the movement axis. A pair with a coordinate past
    2^510 is answered scaled into range (``geometry._pair``).
    """
    axis = dominant_axis(relative_velocity)
    if tA.is_degenerate or tB.is_degenerate:
        raise DegenerateInput("pruned distance requires non-degenerate triangles")
    a, b, f = _pair(tA, tB)
    return _answer(*_dyop(a, b, axis), f)


def _dyop(
    a: _Coords, b: _Coords, axis: MovementAxis
) -> tuple[float, float, float, float, float, FeatureId, FeatureId, TestCounters, tuple[str, ...]]:
    """DyOP on two non-degenerate triangles' coordinates in range, along ``axis``:
    the arguments of its ``_answer``.

    Straight-line code: ``build_internal_aabb``, ``compute_dyop``,
    ``select_candidates`` on both triangles (squares as products, none of
    which overflows in range) and the naming of each witness's feature
    (its edge's start at t = 0, its end at t = 1, else the edge) written
    out, and one segment test on the candidate edges, so that an answer costs
    two calls: that test and its ``TestCounters``. A gap on either axis
    (``x_lo < x_hi or y_lo < y_hi``) puts the candidate edges' boxes apart,
    so they cannot touch, and the test is ``geometry._segment_projections``;
    otherwise it is ``geometry._segment_segment``, which decides contact.
    Both answer segments whose boxes are apart alike, bit for bit, so the
    kernel equals the chain of its stages and ``_segment_segment``. The
    stages are the definition: they state the rule
    with ``min``/``max`` and a stable sort, and the kernel writes it out
    comparison by comparison, with their tie rules. Only the gap box's
    midpoint clamp is left out, as the pivot cannot tell it apart, and
    only the movement axis's interval is tested for inversion, as only
    its flag is read. The candidate edges run from A's vertex ``ea``
    to ``na`` (a to b) and from B's vertex ``eb`` to ``nb`` (c to d), and
    the segment test's ``t_a`` and ``t_b`` name the features its
    witnesses lie on.
    """
    x0, y0, x1, y1, x2, y2 = a
    u0, v0, u1, v1, u2, v2 = b
    xa_lo = x0 if x0 <= x1 and x0 <= x2 else (x1 if x1 <= x2 else x2)
    xa_hi = x0 if x0 >= x1 and x0 >= x2 else (x1 if x1 >= x2 else x2)
    ya_lo = y0 if y0 <= y1 and y0 <= y2 else (y1 if y1 <= y2 else y2)
    ya_hi = y0 if y0 >= y1 and y0 >= y2 else (y1 if y1 >= y2 else y2)
    xb_lo = u0 if u0 <= u1 and u0 <= u2 else (u1 if u1 <= u2 else u2)
    xb_hi = u0 if u0 >= u1 and u0 >= u2 else (u1 if u1 >= u2 else u2)
    yb_lo = v0 if v0 <= v1 and v0 <= v2 else (v1 if v1 <= v2 else v2)
    yb_hi = v0 if v0 >= v1 and v0 >= v2 else (v1 if v1 >= v2 else v2)
    # The gap on each axis runs from the trailing extent's maximum to the
    # ahead one's minimum: A is ahead on the greater maximum, then the
    # greater minimum, and a full tie puts B ahead.
    if xa_hi > xb_hi or (xa_hi == xb_hi and xa_lo > xb_lo):
        x_lo, x_hi = xb_hi, xa_lo
    else:
        x_lo, x_hi = xa_hi, xb_lo
    if ya_hi > yb_hi or (ya_hi == yb_hi and ya_lo > yb_lo):
        y_lo, y_hi = yb_hi, ya_lo
    else:
        y_lo, y_hi = ya_hi, yb_lo
    # The gap box clamps an inverted interval to its midpoint m; the pivot skips
    # the clamp, since 0.5 * (m + m) equals 0.5 * (lo + hi) for every float.
    px, py = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
    # The candidate edge joins the two vertices nearest the pivot: it is
    # the one opposite the farthest vertex (the highest index among equals).
    ex, ey = x0 - px, y0 - py
    d0 = ex * ex + ey * ey
    ex, ey = x1 - px, y1 - py
    d1 = ex * ex + ey * ey
    ex, ey = x2 - px, y2 - py
    d2 = ex * ex + ey * ey
    if d2 >= d0 and d2 >= d1:
        ea, na, ax, ay, bx, by = 0, 1, x0, y0, x1, y1
    elif d1 >= d0:
        ea, na, ax, ay, bx, by = 2, 0, x2, y2, x0, y0
    else:
        ea, na, ax, ay, bx, by = 1, 2, x1, y1, x2, y2
    ex, ey = u0 - px, v0 - py
    d0 = ex * ex + ey * ey
    ex, ey = u1 - px, v1 - py
    d1 = ex * ex + ey * ey
    ex, ey = u2 - px, v2 - py
    d2 = ex * ex + ey * ey
    if d2 >= d0 and d2 >= d1:
        eb, nb, cx, cy, dx, dy = 0, 1, u0, v0, u1, v1
    elif d1 >= d0:
        eb, nb, cx, cy, dx, dy = 2, 0, u2, v2, u0, v0
    else:
        eb, nb, cx, cy, dx, dy = 1, 2, u1, v1, u2, v2
    # A gap on either axis puts the triangles' boxes, and so the candidate
    # edges, apart: they cannot touch, and the projections alone answer.
    if x_lo < x_hi or y_lo < y_hi:
        best_d, pax, pay, pbx, pby, t_a, t_b, _ = _segment_projections(ax, ay, bx, by, cx, cy, dx, dy)
    else:
        best_d, pax, pay, pbx, pby, t_a, t_b, _ = _segment_segment(ax, ay, bx, by, cx, cy, dx, dy)
    # Each witness names the feature it lies on: its edge's start at t = 0,
    # its end at t = 1, else the edge itself.
    if t_a == 0.0:
        fa = _VERTEX_FEATURES[ea]
    else:
        fa = _VERTEX_FEATURES[na] if t_a == 1.0 else _EDGE_FEATURES[ea]
    if t_b == 0.0:
        fb = _VERTEX_FEATURES[eb]
    else:
        fb = _VERTEX_FEATURES[nb] if t_b == 1.0 else _EDGE_FEATURES[eb]
    return (
        best_d,
        pax,
        pay,
        pbx,
        pby,
        fa,
        fb,
        TestCounters(0, 0, 1),
        ("overlapping-boxes",) if (x_lo > x_hi if axis is _X else y_lo > y_hi) else (),
    )
