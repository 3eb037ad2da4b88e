"""Comparison algorithms: GJK distance and a planar Lin-Canny feature walk.

Both are specialized to 2D triangles and run on the float core of
``geometry.py``: a query reads each triangle's ``_edges`` tuples once,
refuses a degenerate triangle by the flag the ``Triangle`` computed at
construction, and builds its answer once, with ``geometry._answer``,
which checks the witnesses' finiteness there. GJK
runs its loop on scalar locals: the six vertex coordinates of each
triangle are unpacked once, and the support argmaxes, finiteness
checks, solve counts and witness sums are inline, with no dict or sort
per query (only an intersecting answer with three weights sums its
witness with ``sum()``). Its support points are
``(x, y, index_a, index_b)`` tuples in a plain list simplex.

Both fill the same counters as the other algorithms, each in its own
unit, so counts of two algorithms are not a cost ratio. For GJK the
counters record simplex solves by size (vv = point, ve = segment,
ee = triangle); for the feature walk they record the actual feature-pair
distance evaluations, plus nine ee tests when it falls back on the
oracle's edge sweep.

The feature walk names vertex i by the int i, edge i by 3 + i and a
pair by ca * 6 + cb, so it hashes no ``FeatureId``; an answer maps the
codes back to the shared ``FeatureId``s and returns one of 36 prebuilt
``FeaturePair``s. Its end pair answers once ``geometry._separated``, the
oracle's separating-line certificate, proves the triangles disjoint; only
an aborted or uncertified walk runs the overlap test (see
``lin_canny_distance``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInput, Penetrating, ZeroDirection
from .geometry import (
    DistanceResult,
    FeatureId,
    FeatureKind,
    Point2,
    TestCounters,
    Triangle,
    Vector2,
    _EDGE_FEATURES,
    _VERTEX_FEATURES,
    _Edges,
    _answer,
    _edge_sweep,
    _edges,
    _overlap,
    _project,
    _require_finite,
    _segment_segment,
    _separated,
)

GJK_MAX_ITERATIONS = 64
GJK_IMPROVEMENT_TOL = 1e-12


def _support(edges: _Edges, dx: float, dy: float) -> int:
    """Index of the vertex maximizing the dot product with (dx, dy); ties to lower index."""
    best_i = 0
    best = edges[0][0] * dx + edges[0][1] * dy
    for i in (1, 2):
        x, y, _, _ = edges[i]
        d = x * dx + y * dy
        if d > best:
            best_i, best = i, d
    return best_i


def support(tri: Triangle, direction: Vector2) -> tuple[int, Point2]:
    """The vertex maximizing the dot product with direction; ties to lower index."""
    if direction.dx == 0.0 and direction.dy == 0.0:
        raise ZeroDirection("support direction must be non-zero")
    i = _support(_edges(tri), direction.dx, direction.dy)
    return i, tri.vertex(i)


# A difference-space support point (x, y, index_a, index_b): A's vertex
# index_a minus B's vertex index_b.
_SupportPoint = tuple[float, float, int, int]
_LambdaList = list[tuple[_SupportPoint, float]]


def _closest_on_segment(a: _SupportPoint, b: _SupportPoint) -> tuple[float, float, _LambdaList]:
    ax, ay, _, _ = a
    bx, by, _, _ = b
    abx, aby = bx - ax, by - ay
    ab2 = abx * abx + aby * aby
    if ab2 == 0.0:
        return ax, ay, [(a, 1.0)]
    t = -(ax * abx + ay * aby) / ab2
    if t <= 0.0:
        return ax, ay, [(a, 1.0)]
    if t >= 1.0:
        return bx, by, [(b, 1.0)]
    return ax + t * abx, ay + t * aby, [(a, 1.0 - t), (b, t)]


def _closest_on_triangle(
    a: _SupportPoint, b: _SupportPoint, c: _SupportPoint
) -> tuple[float, float, _LambdaList]:
    """Closest point of the simplex triangle to the origin, by Voronoi regions.

    An origin inside the triangle is its own closest point, (0, 0).
    """
    ax, ay, _, _ = a
    bx, by, _, _ = b
    cx, cy, _, _ = c
    abx, aby = bx - ax, by - ay
    acx, acy = cx - ax, cy - ay

    d1 = -(abx * ax + aby * ay)
    d2 = -(acx * ax + acy * ay)
    if d1 <= 0.0 and d2 <= 0.0:
        return ax, ay, [(a, 1.0)]

    d3 = -(abx * bx + aby * by)
    d4 = -(acx * bx + acy * by)
    if d3 >= 0.0 and d4 <= d3:
        return bx, by, [(b, 1.0)]

    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0 and d1 != d3:
        t = d1 / (d1 - d3)
        return ax + t * abx, ay + t * aby, [(a, 1.0 - t), (b, t)]

    d5 = -(abx * cx + aby * cy)
    d6 = -(acx * cx + acy * cy)
    if d6 >= 0.0 and d5 <= d6:
        return cx, cy, [(c, 1.0)]

    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0 and d2 != d6:
        t = d2 / (d2 - d6)
        return ax + t * acx, ay + t * acy, [(a, 1.0 - t), (c, t)]

    va = d3 * d6 - d5 * d4
    if va <= 0.0 and d4 - d3 >= 0.0 and d5 - d6 >= 0.0 and (d4 - d3) + (d5 - d6) > 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return bx + t * (cx - bx), by + t * (cy - by), [(b, 1.0 - t), (c, t)]

    denom = va + vb + vc
    if denom <= 0.0:
        # Flat simplex: fall back to the best edge.
        candidates = (
            _closest_on_segment(a, b),
            _closest_on_segment(a, c),
            _closest_on_segment(b, c),
        )
        return min(candidates, key=lambda r: r[0] * r[0] + r[1] * r[1])
    v = vb / denom
    w = vc / denom
    u = 1.0 - v - w
    return 0.0, 0.0, [(a, u), (b, v), (c, w)]


def _side_feature(lambdas: _LambdaList, slot: int) -> FeatureId:
    """The feature of A (slot 2) or B (slot 3) that the weighted support points lie on.

    A vertex is active when its summed weight exceeds 1e-12; when none
    is, the lowest vertex index among the support points stands in.
    """
    weights = [0.0, 0.0, 0.0]
    for sp, lam in lambdas:
        weights[sp[slot]] += lam
    active = [i for i in (0, 1, 2) if weights[i] > 1e-12]
    if not active:
        return _VERTEX_FEATURES[min(sp[slot] for sp, _ in lambdas)]
    if len(active) == 1:
        return _VERTEX_FEATURES[active[0]]
    if len(active) == 2:
        # Vertices i < j: edge i joins i and i + 1, and edge 2 joins 2 and 0.
        i, j = active
        return _EDGE_FEATURES[i if j == i + 1 else j]
    # All three vertices active: an interior contact; report the heaviest
    # vertex, ties to the lower index.
    return _VERTEX_FEATURES[max((0, 1, 2), key=weights.__getitem__)]


def gjk_distance(tA: Triangle, tB: Triangle) -> DistanceResult:
    """Distance between convex triangles via support functions.

    Iterates on the difference space of the two shapes, keeping a 1-3
    point simplex of support points. Terminates when the squared-length
    improvement bound drops below GJK_IMPROVEMENT_TOL, when a support
    point repeats, or after GJK_MAX_ITERATIONS (then flagged
    "gjk-unconverged" and the best simplex so far is reported).
    Intersecting triangles return distance 0 with coincident witnesses.
    A non-finite search direction or support point raises ValueError.
    """
    if tA._degenerate or tB._degenerate:
        raise DegenerateInput("gjk requires non-degenerate triangles")
    edges_a, edges_b = _edges(tA), _edges(tB)
    (ax0, ay0, ax1, ay1), (_, _, ax2, ay2), _ = edges_a
    (bx0, by0, bx1, by1), (_, _, bx2, by2), _ = edges_b

    # The first search direction is the centroid difference.
    dx = (ax0 + ax1 + ax2) / 3.0 - (bx0 + bx1 + bx2) / 3.0
    dy = (ay0 + ay1 + ay2) / 3.0 - (by0 + by1 + by2) / 3.0
    if dx == 0.0 and dy == 0.0:
        dx = 1.0
    simplex: list[_SupportPoint] = []
    vv = ve = ee = 0
    intersecting = False
    converged = False
    for solves in range(GJK_MAX_ITERATIONS + 1):
        # The support point of A - B along (dx, dy): A's vertex maximizing
        # the dot product with (dx, dy) minus B's maximizing it with
        # (-dx, -dy), ties to the lower index.
        if not (math.isfinite(dx) and math.isfinite(dy)):
            _require_finite(dx, dy)
        ia, sax, say = 0, ax0, ay0
        best = ax0 * dx + ay0 * dy
        d = ax1 * dx + ay1 * dy
        if d > best:
            ia, sax, say, best = 1, ax1, ay1, d
        if ax2 * dx + ay2 * dy > best:
            ia, sax, say = 2, ax2, ay2
        dx, dy = -dx, -dy
        ib, sbx, sby = 0, bx0, by0
        best = bx0 * dx + by0 * dy
        d = bx1 * dx + by1 * dy
        if d > best:
            ib, sbx, sby, best = 1, bx1, by1, d
        if bx2 * dx + by2 * dy > best:
            ib, sbx, sby = 2, bx2, by2
        x, y = sax - sbx, say - sby
        if not (math.isfinite(x) and math.isfinite(y)):
            _require_finite(x, y)

        if simplex:
            for _, _, sa, sb in simplex:
                if sa == ia and sb == ib:
                    converged = True
                    break
            if converged or v2 - (vx * x + vy * y) < GJK_IMPROVEMENT_TOL:
                converged = True
                break
        simplex.append((x, y, ia, ib))
        if solves == GJK_MAX_ITERATIONS:
            break

        if len(simplex) == 1:
            vv += 1
            vx, vy, lambdas = x, y, [(simplex[0], 1.0)]
        else:
            if len(simplex) == 2:
                ve += 1
                vx, vy, lambdas = _closest_on_segment(*simplex)
            else:
                ee += 1
                vx, vy, lambdas = _closest_on_triangle(*simplex)
            simplex = [sp for sp, _ in lambdas]
        v2 = vx * vx + vy * vy
        if v2 <= 1e-24:
            intersecting = True
            converged = True
            break
        dx, dy = -vx, -vy

    if len(lambdas) == 3:
        # Three weights put the origin inside the simplex triangle, so the
        # triangles intersect and only A's witness is used. sum() keeps it
        # as it was on every interpreter: from Python 3.12 on, sum()
        # compensates, which a plain loop does not; on one or two terms,
        # as below, the two agree.
        pax = sum(lam * edges_a[sp[2]][0] for sp, lam in lambdas)
        pay = sum(lam * edges_a[sp[2]][1] for sp, lam in lambdas)
    else:
        # Summed from int 0 in lambda order, as sum() does.
        pax = pay = pbx = pby = 0
        for (_, _, ia, ib), lam in lambdas:
            x, y, _, _ = edges_a[ia]
            pax += lam * x
            pay += lam * y
            x, y, _, _ = edges_b[ib]
            pbx += lam * x
            pby += lam * y
    if intersecting:
        # Only A's witness is used, for both points.
        pbx, pby = pax, pay
        distance = 0.0
    else:
        distance = math.hypot(pax - pbx, pay - pby)
    return _answer(
        distance,
        pax,
        pay,
        pbx,
        pby,
        _side_feature(lambdas, 2),
        _side_feature(lambdas, 3),
        TestCounters(vv, ve, ee),
        () if converged else ("gjk-unconverged",),
    )


@dataclass(frozen=True)
class FeaturePair:
    """A witness feature pair, reusable as the seed for the next query."""

    feature_a: FeatureId
    feature_b: FeatureId


_FEATURES = _VERTEX_FEATURES + _EDGE_FEATURES
_PAIRS = tuple(FeaturePair(fa, fb) for fa in _FEATURES for fb in _FEATURES)


def _code(feature: FeatureId) -> int:
    return feature.index if feature.kind is FeatureKind.VERTEX else 3 + feature.index


def _voronoi_escape(edges: _Edges, code: int, px: float, py: float) -> int | None:
    """None when p lies in the feature's outer Voronoi region, else the code to move to.

    The tests have no slack: the caller's certificate, not a tolerance,
    guards the walk's answer, so the walk does not depend on the
    coordinates' scale.
    """
    if code < 3:
        # a is the vertex, b the next one and c, starting edge code - 1 (mod 3), the previous one.
        ax, ay, bx, by = edges[code]
        if (px - ax) * (bx - ax) + (py - ay) * (by - ay) > 0.0:
            return 3 + code
        cx, cy, _, _ = edges[code - 1]
        if (px - ax) * (cx - ax) + (py - ay) * (cy - ay) > 0.0:
            return 3 + (code + 2) % 3
        return None

    i = code - 3
    ax, ay, bx, by = edges[i]
    ux, uy = bx - ax, by - ay
    t = (px - ax) * ux + (py - ay) * uy
    if t < 0.0:
        return i
    if t > ux * ux + uy * uy:
        return (i + 1) % 3
    # CCW winding puts the outward normal at (uy, -ux); a point behind the
    # edge cannot have it as closest feature, so step to the nearer endpoint.
    if (px - ax) * uy - (py - ay) * ux < 0.0:
        da = math.hypot(px - ax, py - ay)
        db = math.hypot(px - bx, py - by)
        return i if da <= db else (i + 1) % 3
    return None


def _walk_codes(
    edges_a: _Edges,
    edges_b: _Edges,
    ca: int,
    cb: int,
    trace: list[tuple[FeatureId, FeatureId, float]] | None = None,
) -> tuple[float | None, float, float, float, float, int, int, int, int, int]:
    """Walk neighboring feature pairs, by code, until both Voronoi conditions hold.

    Returns (d, pa.x, pa.y, pb.x, pb.y, code_a, code_b, vv, ve, ee): the
    pair whose witnesses each lie in the other feature's outer Voronoi
    region, and the evaluations made by kind. A vertex-to-edge step
    decreases the distance and an edge-to-vertex step keeps it, so a step
    that increases it (the "behind the edge" escape) or revisits a pair
    aborts the walk, with d None: there is no endless loop. The end pair
    is only a candidate; the caller certifies it with ``_separated``.
    ``trace`` gets (feature_a, feature_b, d) per step.
    """
    visited: set[int] = set()
    prev = math.inf
    vv = ve = ee = 0
    while True:
        key = ca * 6 + cb
        if key in visited:
            break
        visited.add(key)
        # The pair's distance and witnesses; vertex i starts edge i.
        if ca < 3:
            pax, pay, _, _ = edges_a[ca]
            if cb < 3:
                vv += 1
                pbx, pby, _, _ = edges_b[cb]
                d = math.hypot(pax - pbx, pay - pby)
            else:
                ve += 1
                d, pbx, pby, _ = _project(pax, pay, *edges_b[cb - 3])
        elif cb < 3:
            ve += 1
            pbx, pby, _, _ = edges_b[cb]
            d, pax, pay, _ = _project(pbx, pby, *edges_a[ca - 3])
        else:
            ee += 1
            d, pax, pay, pbx, pby, _, _ = _segment_segment(*edges_a[ca - 3], *edges_b[cb - 3])
        if trace is not None:
            trace.append((_FEATURES[ca], _FEATURES[cb], d))
        if d > prev:
            break
        prev = d
        step = _voronoi_escape(edges_a, ca, pbx, pby)
        if step is not None:
            ca = step
            continue
        step = _voronoi_escape(edges_b, cb, pax, pay)
        if step is not None:
            cb = step
            continue
        return d, pax, pay, pbx, pby, ca, cb, vv, ve, ee
    return None, 0.0, 0.0, 0.0, 0.0, ca, cb, vv, ve, ee


def lin_canny_distance(
    tA: Triangle, tB: Triangle, seed: FeaturePair | None = None
) -> tuple[DistanceResult, FeaturePair]:
    """Closest features of two disjoint triangles by Voronoi walking.

    Returns the distance result and the witness pair; passing that pair
    back as ``seed`` on temporally coherent queries lets the walk
    terminate in a single verification step. A walk whose end witnesses
    pass ``_separated`` has proved the triangles disjoint, at a positive
    distance, and answers. Any other walk runs the full overlap
    test: overlapping or touching triangles raise Penetrating, and
    disjoint ones are answered by the oracle's nine-edge sweep, flagged
    "lincanny-fallback", which adds its nine ee_tests to the walk's
    counters.
    """
    if tA._degenerate or tB._degenerate:
        raise DegenerateInput("feature walk requires non-degenerate triangles")
    edges_a, edges_b = _edges(tA), _edges(tB)
    ca, cb = (0, 0) if seed is None else (_code(seed.feature_a), _code(seed.feature_b))
    try:
        d, pax, pay, pbx, pby, ca, cb, vv, ve, ee = _walk_codes(edges_a, edges_b, ca, cb)
    except ValueError:
        # Coordinates near the float range overflow a witness; overlapping
        # triangles are still refused as overlapping, without walk counts.
        if not _overlap(edges_a, edges_b):
            raise
        d = None
    if d is not None and _separated(edges_a, edges_b, pax, pay, pbx, pby):
        fa, fb = _FEATURES[ca], _FEATURES[cb]
        result = _answer(d, pax, pay, pbx, pby, fa, fb, TestCounters(vv, ve, ee))
        return result, _PAIRS[ca * 6 + cb]
    if _overlap(edges_a, edges_b):
        raise Penetrating("triangles overlap; the feature walk handles disjoint shapes only")
    swept = _edge_sweep(edges_a, edges_b)
    result = _answer(*swept, TestCounters(vv, ve, ee + 9), ("lincanny-fallback",))
    return result, _PAIRS[_code(swept[5]) * 6 + _code(swept[6])]
