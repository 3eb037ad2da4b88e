"""Comparison algorithms: GJK distance and a planar Lin-Canny feature walk.

Both are specialized to 2D triangles and run on the float core of
``geometry.py``: a query refuses a degenerate triangle by the flag the
``Triangle`` computed at construction, takes the six coordinates that
each triangle cached there from ``geometry._pair``, and builds its
answer once, with ``geometry._answer``, which checks the witnesses'
finiteness there. Both start on the same pair: GJK takes its first
support point toward the origin, along cB - cA with the centroids taken
as sums of the three coordinates, which is the facing vertex pair that a
cold walk starts from, so most separated pairs stop after that one
point. GJK runs its loop as one straight-line kernel on scalar locals:
the six vertex coordinates of each triangle are unpacked once, and the
support argmaxes, point and segment solves, repeat and improvement
checks, solve counts, witness sums and feature names are inline. Its
simplex is at most three ``(x, y, index_a, index_b)`` support points and
their weights, held in locals, with no list. Only the rare triangle
solve calls ``_closest_on_triangle``, and only an intersecting answer
with three weights calls ``sum()`` and ``_side_feature``.

Both fill the same counters as the other algorithms, each in its own
unit, so counts of two algorithms are not a cost ratio. For GJK the
counters record simplex solves by size (vv = point, ve = segment,
ee = triangle); for the feature walk they record the actual feature-pair
distance evaluations, plus the oracle's nine ee tests when it falls back
on the oracle.

The feature walk is a straight-line kernel too. It names vertex i by
the int i, edge i by 3 + i and a pair by ca * 6 + cb, so it hashes no
``FeatureId`` and keeps the visited pairs as bits of one int. A cold
walk starts on the facing vertex pair, the vertices furthest along the
centroid directions, and a witness past both edges of a vertex leaves
along the steeper one. The start pair, the vertex-vertex and
vertex-edge evaluations and the Voronoi escapes of both sides are
inline; only an edge-edge pair calls ``_segment_segment``. The walk
ends on ``geometry._separated``, the oracle's separating-line
certificate, so the two algorithms share one rule. An answer maps the
codes back to the shared ``FeatureId``s and returns them beside its
``DistanceResult`` as a plain pair, the seed of the next query. Its end
pair answers once the certificate proves the triangles disjoint; an
aborted or uncertified walk falls back by calling the oracle's kernel,
``geometry._brute_force``, so the oracle's steps are written once and
the overlap test runs only where the oracle would run it too (see
``lin_canny_distance``).

Both the loop and the walk run on coordinates in range, at most 2^250
in magnitude for GJK and 2^510 for the walk: ``geometry._pair`` scales
a pair past its range into it by one power of two, the package's one
overflow rule, and ``geometry._answer`` scales the answer back, so
neither guards against overflow. GJK scales its absolute tolerances with
the pair too. The walk stays inline in ``lin_canny_distance``, since a
seeded walk is short enough that a separate kernel call shows in its
time, and it reads each edge from a tuple it builds from the
coordinates once per query.
"""

from __future__ import annotations

import math

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
    _GJK_RANGE_EXPONENT,
    _VERTEX_FEATURES,
    _answer,
    _brute_force,
    _Coords,
    _pair,
    _segment_segment,
    _separated,
)

GJK_MAX_ITERATIONS = 64
GJK_IMPROVEMENT_TOL = 1e-12


def support(tri: Triangle, direction: Vector2) -> tuple[int, Point2]:
    """The vertex maximizing the dot product with direction; ties to lower index."""
    dx, dy = direction.dx, direction.dy
    if dx == 0.0 and dy == 0.0:
        raise ZeroDirection("support direction must be non-zero")
    vs = tri.vertices
    # max keeps the first of equal maxima, so ties go to the lower index.
    i = max((0, 1, 2), key=lambda k: vs[k].x * dx + vs[k].y * dy)
    return i, vs[i]


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

    # va + vb + vc is |ab x ac|^2, which is |ab|^2 |ac|^2 sin^2 of the angle
    # at a. On a flat simplex the three sums are rounding noise and can all
    # come out positive, so flatness is judged relative to the edge lengths
    # before the interior branch can put the origin inside.
    denom = va + vb + vc
    if denom <= 1e-10 * (abx * abx + aby * aby) * (acx * acx + acy * acy):
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


# _SIDE_PAIR[3 * i + j] is vertex i when i == j, else the edge joining
# vertices i and j: edge i joins i and i + 1, and edge 2 joins 2 and 0.
_SIDE_PAIR = tuple(
    _VERTEX_FEATURES[i] if i == j else _EDGE_FEATURES[i if j == (i + 1) % 3 else j]
    for i in range(3)
    for j in range(3)
)


def _side_feature(lambdas: _LambdaList, slot: int) -> FeatureId:
    """The feature of A (slot 2) or B (slot 3) that the weighted support points lie on.

    A vertex is active when its summed weight exceeds 1e-12. The weights
    sum to 1 up to rounding, so one of at most three is active.
    """
    weights = [0.0, 0.0, 0.0]
    for sp, lam in lambdas:
        weights[sp[slot]] += lam
    active = [i for i in (0, 1, 2) if weights[i] > 1e-12]
    if len(active) == 1:
        return _VERTEX_FEATURES[active[0]]
    if len(active) == 2:
        i, j = active
        return _SIDE_PAIR[3 * i + j]
    # All three vertices active: an interior contact; report the heaviest
    # vertex, ties to the lower index.
    return _VERTEX_FEATURES[max((0, 1, 2), key=weights.__getitem__)]


def gjk_distance(tA: Triangle, tB: Triangle) -> DistanceResult:
    """Distance between convex triangles via support functions.

    Iterates on the difference space of the two shapes, keeping a 1-3
    point simplex of support points. The first support point is taken
    toward the origin, as textbook GJK takes s(-v) for a start point v of
    A - B: along cB - cA, with the centroids as sums of the three
    coordinates, which gives the facing vertex pair that the Lin-Canny
    walk starts from (vertex 0 of each on a zero direction). Terminates
    when the squared-length improvement bound drops below
    GJK_IMPROVEMENT_TOL, when a support point repeats, or after
    GJK_MAX_ITERATIONS (then flagged "gjk-unconverged" and the last
    solve's simplex is reported). Intersecting triangles return distance 0
    with coincident witnesses. A pair with a coordinate past 2^250 is
    answered scaled into range, with the two absolute tolerances, on
    squared lengths in the pair's own units, scaled by the square of the
    same power of two, so that every comparison decides as on the raw
    pair.
    """
    if tA.is_degenerate or tB.is_degenerate:
        raise DegenerateInput("gjk requires non-degenerate triangles")
    a, b, f = _pair(tA, tB, _GJK_RANGE_EXPONENT)
    return _answer(*_gjk(a, b, f * f), f)


def _gjk(
    a: _Coords, b: _Coords, square_scale: float = 1.0
) -> tuple[float, float, float, float, float, FeatureId, FeatureId, TestCounters, tuple[str, ...]]:
    """GJK on two non-degenerate triangles' coordinates in range, with its
    tolerances on squared lengths times ``square_scale``, the square of
    the power of two that scaled the pair: the arguments of its
    ``_answer``.

    Straight-line code: the first support point is the walk's facing
    vertex pair, the point and segment solves follow
    ``_closest_on_segment`` and the feature names ``_side_feature``,
    written out inline (see the module docstring). A cap GJK_MAX_ITERATIONS
    below 1, which would leave no solve to answer from, raises ValueError.
    """
    if GJK_MAX_ITERATIONS < 1:
        raise ValueError(f"GJK_MAX_ITERATIONS must be at least 1: {GJK_MAX_ITERATIONS!r}")
    ax0, ay0, ax1, ay1, ax2, ay2 = a
    bx0, by0, bx1, by1, bx2, by2 = b
    # The tolerances are on squared lengths in the pair's own units, so they
    # scale with it; one that the scaling underflows stays the least
    # positive float, which still tells a zero from a positive gap.
    improvement_tol, contact_tol = GJK_IMPROVEMENT_TOL * square_scale or 5e-324, 1e-24 * square_scale or 5e-324

    # The first search direction is cB - cA, toward the origin from the
    # point cA - cB of A - B, with the centroids taken as sums of the three
    # coordinates as the feature walk's cold start takes them: the first
    # support point is the walk's facing vertex pair. A zero direction
    # leaves both argmaxes on vertex 0, as it leaves the walk's start.
    dx = bx0 + bx1 + bx2 - (ax0 + ax1 + ax2)
    dy = by0 + by1 + by2 - (ay0 + ay1 + ay2)
    # The simplex after a solve: n support points (x0, y0, ia0, ib0) and
    # (x1, y1, ia1, ib1), in the order of that solve's weights w0 and w1; a
    # single point has weight 1.0. A solve with three weights keeps them in
    # lambdas, which the first solve sets to None.
    n = vv = ve = ee = 0
    intersecting = False
    converged = False
    for solves in range(GJK_MAX_ITERATIONS + 1):
        # The support point of A - B along (dx, dy): A's vertex maximizing
        # the dot product with (dx, dy) minus B's maximizing it with
        # (-dx, -dy), ties to the lower index.
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

        # Stop on a repeated support point or too small an improvement.
        if n and (
            (ia == ia0 and ib == ib0)
            or (n == 2 and ia == ia1 and ib == ib1)
            or v2 - (vx * x + vy * y) < improvement_tol
        ):
            converged = True
            break
        if solves == GJK_MAX_ITERATIONS:
            break

        if n == 1:
            # The segment from the kept point to the new one.
            ve += 1
            abx, aby = x - x0, y - y0
            ab2 = abx * abx + aby * aby
            t = 0.0 if ab2 == 0.0 else -(x0 * abx + y0 * aby) / ab2
            if t <= 0.0:
                vx, vy = x0, y0
            elif t >= 1.0:
                x0, y0, ia0, ib0 = x, y, ia, ib
                vx, vy = x, y
            else:
                x1, y1, ia1, ib1 = x, y, ia, ib
                n, w0, w1 = 2, 1.0 - t, t
                vx, vy = x0 + t * abx, y0 + t * aby
        elif n == 0:
            vv += 1
            n, lambdas = 1, None
            x0, y0, ia0, ib0, w0 = x, y, ia, ib, 1.0
            vx, vy = x, y
        else:
            ee += 1
            vx, vy, solved = _closest_on_triangle(
                (x0, y0, ia0, ib0), (x1, y1, ia1, ib1), (x, y, ia, ib)
            )
            n = len(solved)
            if n == 3:
                # The origin is inside the simplex: v is (0, 0), and the
                # loop ends below.
                lambdas = solved
            else:
                (x0, y0, ia0, ib0), w0 = solved[0]
                if n == 2:
                    (x1, y1, ia1, ib1), w1 = solved[1]
        v2 = vx * vx + vy * vy
        if v2 <= contact_tol:
            intersecting = True
            converged = True
            break
        dx, dy = -vx, -vy

    if lambdas is not None:
        # Three weights put the origin inside the simplex triangle, so the
        # triangles intersect and only A's witness is used. sum() keeps it
        # as it was on every interpreter: from Python 3.12 on, sum()
        # compensates, which a plain loop does not; on one or two terms
        # the two agree.
        pax = sum(lam * a[2 * sp[2]] for sp, lam in lambdas)
        pay = sum(lam * a[2 * sp[2] + 1] for sp, lam in lambdas)
        fa, fb = _side_feature(lambdas, 2), _side_feature(lambdas, 3)
    else:
        # Summed from int 0 in weight order, as sum() does, so -0.0 comes
        # out as 0.0.
        i, j = 2 * ia0, 2 * ib0
        pax, pay, pbx, pby = 0 + w0 * a[i], 0 + w0 * a[i + 1], 0 + w0 * b[j], 0 + w0 * b[j + 1]
        if n == 1:
            fa, fb = _VERTEX_FEATURES[ia0], _VERTEX_FEATURES[ib0]
        else:
            i, j = 2 * ia1, 2 * ib1
            pax, pay, pbx, pby = pax + w1 * a[i], pay + w1 * a[i + 1], pbx + w1 * b[j], pby + w1 * b[j + 1]
            # _side_feature's rule: a vertex is active when its weight
            # exceeds 1e-12. Two active vertices name the edge joining them
            # (or the one vertex, on equal indices). The two weights sum to
            # about 1, so one of them is active.
            if w0 > 1e-12:
                if w1 > 1e-12:
                    fa, fb = _SIDE_PAIR[3 * ia0 + ia1], _SIDE_PAIR[3 * ib0 + ib1]
                else:
                    fa, fb = _VERTEX_FEATURES[ia0], _VERTEX_FEATURES[ib0]
            else:
                fa, fb = _VERTEX_FEATURES[ia1], _VERTEX_FEATURES[ib1]
    if intersecting:
        # Only A's witness is used, for both points.
        pbx, pby = pax, pay
        distance = 0.0
    else:
        distance = math.hypot(pax - pbx, pay - pby)
    return (
        distance,
        pax,
        pay,
        pbx,
        pby,
        fa,
        fb,
        TestCounters(vv, ve, ee),
        () if converged else ("gjk-unconverged",),
    )


_FEATURES = _VERTEX_FEATURES + _EDGE_FEATURES
# Read once at import, as dyop's axes are: a global read, not an Enum member lookup per use.
_VERTEX = FeatureKind.VERTEX


def lin_canny_distance(
    tA: Triangle, tB: Triangle, seed: tuple[FeatureId, FeatureId] | None = None
) -> tuple[DistanceResult, tuple[FeatureId, FeatureId]]:
    """Closest features of two disjoint triangles by Voronoi walking.

    Returns the distance result and its features as a plain pair
    ``(feature_a, feature_b)``; passing that pair back as ``seed`` on
    temporally coherent queries lets the walk terminate in a single
    verification step. A walk whose end witnesses pass ``_separated`` has
    proved the triangles disjoint, at a positive distance, and answers.
    Any other walk falls back by calling the oracle's kernel,
    ``geometry._brute_force``: the bounding-box test and the nine-edge
    sweep, which answers alone where the boxes have a gap; where they
    meet, ``_separated`` on the sweep's witnesses, and only when that
    fails the overlap test. A contact, which the oracle reports by
    counting no tests (a distance of 0.0 would not tell it, since the
    sweep can round a positive gap to 0), raises Penetrating; otherwise
    the oracle's distance, witnesses and features answer, flagged
    "lincanny-fallback", with its nine ee_tests added to the walk's
    counters, so a fallback is the oracle's answer by construction. A pair
    with a coordinate past 2^510 is walked scaled into range.

    The walk starts from the seed's features. A cold walk starts on the
    facing vertex pair: A's vertex furthest along cB - cA and B's
    furthest along cA - cB, with the centroids taken as sums of the three
    coordinates and ties to the lower index. After evaluating a pair, the
    walk steps to a neighbouring feature of A when B's witness leaves the
    outer Voronoi region of A's feature, else to one of B when A's
    witness leaves B's, else ends. A witness that leaves a vertex's
    region across both adjacent edges leaves along the steeper one: the
    larger dot product per unit of edge length, ties to the vertex's own
    edge i rather than edge i - 1. A vertex-to-edge step decreases the
    distance and an edge-to-vertex step keeps it, so a step that
    increases it (the "behind the edge" escape) or revisits a pair aborts
    the walk: there is no endless loop. The Voronoi tests have no slack:
    the certificate, not a tolerance, guards the answer, so the walk does
    not depend on the coordinates' scale.

    Straight-line code: the start pair, the walk, the vertex-vertex and
    vertex-edge evaluations (``_project``'s one branch per clamp, so a
    witness clamped to an end is that vertex) and both sides' Voronoi
    escapes are written out inline; visited pairs are bits of an int. Only an
    edge-edge pair calls ``_segment_segment``, and the walk ends on
    ``geometry._separated``, the certificate the oracle checks too.
    """
    if tA.is_degenerate or tB.is_degenerate:
        raise DegenerateInput("feature walk requires non-degenerate triangles")
    a, b, f = _pair(tA, tB)
    # The walk reads each edge as (start x, start y, end x, end y).
    ax0, ay0, ax1, ay1, ax2, ay2 = a
    edges_a = ((ax0, ay0, ax1, ay1), (ax1, ay1, ax2, ay2), (ax2, ay2, ax0, ay0))
    bx0, by0, bx1, by1, bx2, by2 = b
    edges_b = ((bx0, by0, bx1, by1), (bx1, by1, bx2, by2), (bx2, by2, bx0, by0))
    if seed is None:
        # The facing vertex pair: A's vertex furthest along cB - cA and B's
        # furthest along cA - cB, that is nearest along cB - cA, with the
        # centroids as sums of the three coordinates; ties to the lower index.
        dx = bx0 + bx1 + bx2 - (ax0 + ax1 + ax2)
        dy = by0 + by1 + by2 - (ay0 + ay1 + ay2)
        ca, best = 0, ax0 * dx + ay0 * dy
        k = ax1 * dx + ay1 * dy
        if k > best:
            ca, best = 1, k
        if ax2 * dx + ay2 * dy > best:
            ca = 2
        cb, best = 0, bx0 * dx + by0 * dy
        k = bx1 * dx + by1 * dy
        if k < best:
            cb, best = 1, k
        if bx2 * dx + by2 * dy < best:
            cb = 2
    else:
        # The seed's codes, read inline: a seeded walk is short, and a
        # call per feature shows in its time.
        fa, fb = seed
        ca = fa.index if fa.kind is _VERTEX else 3 + fa.index
        cb = fb.index if fb.kind is _VERTEX else 3 + fb.index
    hypot = math.hypot
    visited = 0
    prev = math.inf
    vv = ve = ee = 0
    while True:
        bit = 1 << (ca * 6 + cb)
        if visited & bit:
            break
        visited |= bit
        # The pair's distance and witnesses; vertex i starts edge i. A
        # vertex against an edge is projected as _project does it, one
        # branch per clamp, with a clamped end taken as the vertex itself.
        # math.inf is read only on a zero-length edge, so the walk's
        # per-query set-up does not pay for it.
        if ca < 3:
            pax, pay, _, _ = edges_a[ca]
            if cb < 3:
                vv += 1
                pbx, pby, _, _ = edges_b[cb]
                d = hypot(pax - pbx, pay - pby)
            else:
                ve += 1
                ex, ey, fx, fy = edges_b[cb - 3]
                ux, uy = fx - ex, fy - ey
                t = ((pax - ex) * ux + (pay - ey) * uy) / (ux * ux + uy * uy or math.inf)
                if t <= 0.0:
                    pbx, pby = ex, ey
                elif t >= 1.0:
                    pbx, pby = fx, fy
                else:
                    pbx, pby = ex + t * ux, ey + t * uy
                d = hypot(pax - pbx, pay - pby)
        elif cb < 3:
            ve += 1
            pbx, pby, _, _ = edges_b[cb]
            ex, ey, fx, fy = edges_a[ca - 3]
            ux, uy = fx - ex, fy - ey
            t = ((pbx - ex) * ux + (pby - ey) * uy) / (ux * ux + uy * uy or math.inf)
            if t <= 0.0:
                pax, pay = ex, ey
            elif t >= 1.0:
                pax, pay = fx, fy
            else:
                pax, pay = ex + t * ux, ey + t * uy
            d = hypot(pbx - pax, pby - pay)
        else:
            ee += 1
            ex, ey, fx, fy = edges_a[ca - 3]
            gx, gy, hx, hy = edges_b[cb - 3]
            d, pax, pay, pbx, pby, _, _, _ = _segment_segment(ex, ey, fx, fy, gx, gy, hx, hy)
        if d > prev:
            break
        prev = d

        # B's witness against the outer Voronoi region of A's feature.
        # At vertex i, e is the vertex, f the next one and g the previous
        # one, which starts edge i - 1 (mod 3). A witness past both edges
        # leaves along the steeper one, by its dot per unit of edge length
        # (ties to edge i); the quotients do not overflow where squared
        # lengths would.
        if ca < 3:
            ex, ey, fx, fy = edges_a[ca]
            gx, gy, _, _ = edges_a[ca - 1]
            k1 = (pbx - ex) * (fx - ex) + (pby - ey) * (fy - ey)
            k2 = (pbx - ex) * (gx - ex) + (pby - ey) * (gy - ey)
            if k1 > 0.0 and (k2 <= 0.0 or k1 / hypot(fx - ex, fy - ey) >= k2 / hypot(gx - ex, gy - ey)):
                ca += 3
                continue
            if k2 > 0.0:
                ca = 3 + (ca + 2) % 3
                continue
        else:
            i = ca - 3
            ex, ey, fx, fy = edges_a[i]
            ux, uy = fx - ex, fy - ey
            t = (pbx - ex) * ux + (pby - ey) * uy
            if t < 0.0:
                ca = i
                continue
            if t > ux * ux + uy * uy:
                ca = (i + 1) % 3
                continue
            # CCW winding puts the outward normal at (uy, -ux); a point
            # behind the edge cannot have it as closest feature, so step
            # to the nearer endpoint.
            if (pbx - ex) * uy - (pby - ey) * ux < 0.0:
                ca = i if hypot(pbx - ex, pby - ey) <= hypot(pbx - fx, pby - fy) else (i + 1) % 3
                continue
        # A's witness against the outer Voronoi region of B's feature.
        if cb < 3:
            ex, ey, fx, fy = edges_b[cb]
            gx, gy, _, _ = edges_b[cb - 1]
            k1 = (pax - ex) * (fx - ex) + (pay - ey) * (fy - ey)
            k2 = (pax - ex) * (gx - ex) + (pay - ey) * (gy - ey)
            if k1 > 0.0 and (k2 <= 0.0 or k1 / hypot(fx - ex, fy - ey) >= k2 / hypot(gx - ex, gy - ey)):
                cb += 3
                continue
            if k2 > 0.0:
                cb = 3 + (cb + 2) % 3
                continue
        else:
            i = cb - 3
            ex, ey, fx, fy = edges_b[i]
            ux, uy = fx - ex, fy - ey
            t = (pax - ex) * ux + (pay - ey) * uy
            if t < 0.0:
                cb = i
                continue
            if t > ux * ux + uy * uy:
                cb = (i + 1) % 3
                continue
            if (pax - ex) * uy - (pay - ey) * ux < 0.0:
                cb = i if hypot(pax - ex, pay - ey) <= hypot(pax - fx, pay - fy) else (i + 1) % 3
                continue

        # Both Voronoi conditions hold: the end pair answers if the
        # oracle's certificate proves the triangles disjoint.
        if _separated(a, b, pax, pay, pbx, pby):
            fa, fb = _FEATURES[ca], _FEATURES[cb]
            return _answer(d, pax, pay, pbx, pby, fa, fb, TestCounters(vv, ve, ee), (), f), (fa, fb)
        break
    # The oracle answers an aborted or uncertified walk; it counts no tests
    # exactly when it finds a contact.
    d, pax, pay, pbx, pby, fa, fb, counters, _ = _brute_force(a, b)
    if not counters.ee_tests:
        raise Penetrating("triangles overlap; the feature walk handles disjoint shapes only")
    result = _answer(d, pax, pay, pbx, pby, fa, fb, TestCounters(vv, ve, ee + 9), ("lincanny-fallback",), f)
    return result, (fa, fb)
