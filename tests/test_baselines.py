import dataclasses
import functools
import math
import random
import sys

import pytest

from dyop2d import baselines, geometry
from dyop2d.baselines import gjk_distance, lin_canny_distance, support
from dyop2d.benchmark import default_scene, enumerate_pairs, place_pair
from dyop2d.dyop import MovementAxis, dyop_distance
from dyop2d.errors import DegenerateInput, Penetrating, ZeroDirection
from dyop2d.geometry import (
    FeatureId,
    FeatureKind,
    Point2,
    TestCounters,
    Vector2,
    _contact_witness,
    _edge_sweep,
    _project,
    _separated,
    brute_force_triangle_distance,
    triangles_overlap,
)
from dyop2d.verify import random_separated_pair
from exact_reference import exact_squared_distance, ulp_error
from helpers import (
    GJK_RANGE_EXPONENT,
    NEAR_COLLINEAR_PAIR,
    OVERFLOW_SCALES,
    RANGE,
    REGIMES,
    _bits,
    _cold_start,
    _coords,
    _edge_list,
    _into_range,
    _on_edge,
    _pair_size,
    _scaled_into_range,
    _value_or_error,
    _walk_by_definition,
    edge_feature,
    placed,
    random_tri,
    tri,
    vertex_feature,
)


def test_support_extremes():
    t = tri((0, 0), (1, 0), (0, 1))
    assert support(t, Vector2(1, 0)) == (1, Point2(1, 0))
    assert support(t, Vector2(0, 1)) == (2, Point2(0, 1))
    assert support(t, Vector2(-1, -1)) == (0, Point2(0, 0))


def test_support_tie_goes_to_lower_index():
    t = tri((0, 0), (1, 0), (0, 1))
    # direction (1, 1): vertices 1 and 2 both score 1; index 1 wins
    assert support(t, Vector2(1, 1))[0] == 1


def test_support_zero_direction():
    with pytest.raises(ZeroDirection):
        support(tri((0, 0), (1, 0), (0, 1)), Vector2(0, 0))


def test_gjk_disjoint_pair_matches_oracle():
    a = tri((0, 0), (1, 0), (0, 1))
    r = gjk_distance(a, a.translated(3, 0))
    assert r.distance == pytest.approx(2.0, abs=1e-9)


def test_gjk_overlapping_is_zero():
    a = tri((0, 0), (2, 0), (0, 2))
    b = tri((1, 0.2), (3, 0.2), (1, 2.2))
    r = gjk_distance(a, b)
    assert r.distance == 0.0
    assert r.point_a == r.point_b


def test_gjk_identical_is_zero():
    a = tri((0, 0), (1, 0), (0, 1))
    assert gjk_distance(a, a).distance == 0.0


def test_gjk_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        gjk_distance(tri((0, 0), (1, 0), (2, 0)), tri((5, 0), (6, 0), (5, 1)))


def test_gjk_refuses_overflowing_support_point():
    # The centroids are about 6.7e307 apart, but the first support point,
    # A's vertex at x = -1e308 minus B's vertex at x = 1e308, overflows on
    # raw coordinates. Scaled into GJK's range, [2^249, 2^250), the pair's
    # unit differences would fall to 2^-774, where GJK's products underflow:
    # it refuses the pair with ValueError, and so does the oracle, whose
    # range of 2^510 takes them to 2^-514. The same pair with features of
    # 1e307 scales cleanly, and GJK answers it as the oracle does.
    a = tri((-1e308, 0), (0, 0), (0, 1))
    b = tri((1e308, 2), (1, 2), (1, 3))
    for query in (gjk_distance, brute_force_triangle_distance):
        with pytest.raises(ValueError) as info:
            query(a, b)
        assert type(info.value) is ValueError
        assert str(info.value).endswith("does not scale into range")
    a = tri((-1e308, 0), (0, 0), (0, 1e307))
    b = tri((1e308, 2e307), (1e307, 2e307), (1e307, 3e307))
    r, exact = gjk_distance(a, b), brute_force_triangle_distance(a, b)
    assert (r.distance, r.point_a, r.point_b) == (exact.distance, exact.point_a, exact.point_b)
    assert r.flags == ()


def test_gjk_closest_points_realize_distance():
    rng = random.Random(20)
    for _ in range(500):
        a, b, _ = random_separated_pair(rng)
        r = gjk_distance(a, b)
        gap = math.hypot(r.point_a.x - r.point_b.x, r.point_a.y - r.point_b.y)
        assert abs(gap - r.distance) <= 1e-9


def test_gjk_oracle_equivalence_random():
    rng = random.Random(21)
    for _ in range(2000):
        a, b, _ = random_separated_pair(rng)
        exact = brute_force_triangle_distance(a, b).distance
        assert abs(gjk_distance(a, b).distance - exact) <= 1e-7


def test_gjk_convergence_flag_rate():
    rng = random.Random(22)
    n = 2000
    converged = 0
    for _ in range(n):
        a, b, _ = random_separated_pair(rng)
        if "gjk-unconverged" not in gjk_distance(a, b).flags:
            converged += 1
    assert converged / n >= 0.999


def _gjk_by_definition(tA, tB, seen=None, tolerance_scale=1.0):
    """``gjk_distance`` as a loop over a list simplex that composes
    ``_closest_on_segment``, ``_closest_on_triangle`` and ``_side_feature``,
    with its two tolerances on squared lengths times ``tolerance_scale``,
    or the least positive float where that product underflows to 0.

    The simplex follows the order of the last solve's weights; a repeat is
    checked against every kept point; the answer comes from the last
    solve's weights (at the cap too, not from the support point added
    before the break) and is summed from int 0 in weight order, with
    ``sum()`` on three weights. ``seen`` gets the first support pair as
    ("start", index_a, index_b), the simplex size of each solve, the
    segment solves' regions and how the loop ended.
    """
    if tA.is_degenerate or tB.is_degenerate:
        raise DegenerateInput("gjk requires non-degenerate triangles")
    if baselines.GJK_MAX_ITERATIONS < 1:
        raise ValueError(f"GJK_MAX_ITERATIONS must be at least 1: {baselines.GJK_MAX_ITERATIONS!r}")
    edges_a, edges_b = _edge_list(_coords(tA)), _edge_list(_coords(tB))
    (ax0, ay0, ax1, ay1), (_, _, ax2, ay2), _ = edges_a
    (bx0, by0, bx1, by1), (_, _, bx2, by2), _ = edges_b
    dx = bx0 + bx1 + bx2 - (ax0 + ax1 + ax2)
    dy = by0 + by1 + by2 - (ay0 + ay1 + ay2)
    seen = set() if seen is None else seen
    simplex = []
    vv = ve = ee = 0
    intersecting = False
    converged = False
    for solves in range(baselines.GJK_MAX_ITERATIONS + 1):
        ia = max((0, 1, 2), key=lambda i: edges_a[i][0] * dx + edges_a[i][1] * dy)
        ib = max((0, 1, 2), key=lambda i: edges_b[i][0] * -dx + edges_b[i][1] * -dy)
        dx, dy = -dx, -dy
        if not solves:
            seen.add(("start", ia, ib))
        x, y = edges_a[ia][0] - edges_b[ib][0], edges_a[ia][1] - edges_b[ib][1]
        if simplex:
            repeat = any(sa == ia and sb == ib for _, _, sa, sb in simplex)
            if repeat or v2 - (vx * x + vy * y) < (baselines.GJK_IMPROVEMENT_TOL * tolerance_scale or 5e-324):
                converged = True
                seen.add("repeat" if repeat else "improvement")
                break
        simplex.append((x, y, ia, ib))
        if solves == baselines.GJK_MAX_ITERATIONS:
            seen.add(f"cap-{solves}")
            break
        seen.add(f"size-{len(simplex)}")
        if len(simplex) == 1:
            vv += 1
            vx, vy, lambdas = x, y, [(simplex[0], 1.0)]
        else:
            if len(simplex) == 2:
                ve += 1
                vx, vy, lambdas = baselines._closest_on_segment(*simplex)
                seen.add("segment-" + "".join("ab"[simplex.index(sp)] for sp, _ in lambdas))
            else:
                ee += 1
                vx, vy, lambdas = baselines._closest_on_triangle(*simplex)
            simplex = [sp for sp, _ in lambdas]
        v2 = vx * vx + vy * vy
        if v2 <= (1e-24 * tolerance_scale or 5e-324):
            intersecting = True
            converged = True
            seen.add(f"intersecting-{len(lambdas)}")
            break
        dx, dy = -vx, -vy

    if len(lambdas) == 3:
        pax = sum(lam * edges_a[sp[2]][0] for sp, lam in lambdas)
        pay = sum(lam * edges_a[sp[2]][1] for sp, lam in lambdas)
    else:
        pax = pay = pbx = pby = 0
        for (_, _, ia, ib), lam in lambdas:
            pax += lam * edges_a[ia][0]
            pay += lam * edges_a[ia][1]
            pbx += lam * edges_b[ib][0]
            pby += lam * edges_b[ib][1]
    if intersecting:
        pbx, pby = pax, pay
        distance = 0.0
    else:
        distance = math.hypot(pax - pbx, pay - pby)
    return geometry._answer(
        distance,
        pax,
        pay,
        pbx,
        pby,
        baselines._side_feature(lambdas, 2),
        baselines._side_feature(lambdas, 3),
        TestCounters(vv, ve, ee),
        () if converged else ("gjk-unconverged",),
    )


def _gjk_cases():
    """Seeded (tA, tB) inputs for GJK."""
    for a, b, _ in placed("x", 1.0):
        yield a, b
    rng = random.Random(41)
    for _ in range(1000):
        a, b, _ = random_separated_pair(rng)
        yield a, b
        yield b, a
    for k in range(2000):
        # Integer grid: ties, touching, collinear, overlapping and degenerate
        # pairs, on int coordinates, or on floats for B.
        cast = float if k % 2 else int
        yield tri(*((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3))), tri(
            *((cast(rng.randint(0, 4)), cast(rng.randint(0, 4))) for _ in range(3))
        )
    for _ in range(1000):
        # Coordinates where -0.0, 0.0 and 0 are common and compare equal.
        c = [rng.choice((-0.0, 0.0, 0, -1.0, 1, 2.0, rng.uniform(-2.0, 2.0))) for _ in range(12)]
        yield tri(*zip(c[:6:2], c[1:6:2])), tri(*zip(c[6::2], c[7::2]))
    for _ in range(500):
        # A triangle inside the other, so GJK ends on three weights.
        a = random_tri(rng)
        (x0, y0), (x1, y1), (x2, y2) = ((p.x, p.y) for p in a.vertices)
        cx, cy = (x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0
        s = rng.uniform(0.05, 0.9)
        b = tri(*((cx + s * (p.x - cx) + rng.uniform(-0.01, 0.01), cy + s * (p.y - cy)) for p in a.vertices))
        yield a, b
        yield b, a
    for scale, shift in OVERFLOW_SCALES:
        for _ in range(40):
            a, b, _ = random_separated_pair(rng)
            a = a.scaled(scale).translated(shift, 0.0)
            b = b.scaled(scale).translated(shift, 0.0)
            for other in (b, a.translated(0.3 * scale, 0.0)):
                yield a, other
                yield other, a
    for length in (1e150, 1e200, 1e300):
        # A sliver whose tip is 1e60 from a small triangle: scaled into
        # [2^249, 2^250), the gap squared is under 1e-24, which would call
        # the pair intersecting if the tolerances were not scaled too.
        a = tri((0.0, 0.0), (-length, -1e100), (-length, 1e100))
        b = tri((1e60, 0.0), (2e60, -1e60), (2e60, 1e60))
        yield a, b
        yield b, a
    for _ in range(300):
        # Facing edges a hair off parallel, overlapping by less than the
        # angle between them: the simplex can be a sliver that holds the
        # origin, and the triangle solve falls back on its best edge.
        eps = 10.0 ** rng.uniform(-9.0, -5.0) * rng.choice((-1.0, 1.0))
        ha, hb, yb = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0), rng.uniform(-1.5, 1.5)
        g = -abs(eps) * rng.uniform(0.0, 0.5)
        pa = [(0.0, 0.0), (0.0, ha), (-rng.uniform(0.2, 2.0), rng.uniform(-1.0, 2.0))]
        pb = [(g, yb), (g + eps * hb, yb + hb), (g + rng.uniform(0.2, 2.0), rng.uniform(-1.0, 2.0))]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        a, b = (tri(*((x * c - y * s, x * s + y * c) for x, y in p)) for p in (pa, pb))
        yield a, b
        yield b, a
    for k in range(400):
        # A vertex whose foot on the other triangle's edge lies within 1e-12
        # of the edge's end, so one of the two final weights is that small.
        # The edge is long, so the improvement check still admits it.
        e = 10.0 ** rng.uniform(-16.0, -11.0) * rng.choice((-1.0, 1.0))
        apex = e if k % 2 else 1.0 - e
        angle = rng.uniform(0.0, 2.0 * math.pi) if k % 4 < 2 else 0.0
        scale = 10.0 ** rng.uniform(0.0, 3.0)
        c, s = math.cos(angle) * scale, math.sin(angle) * scale
        pa = [(apex, 0.5)] + [(apex + rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 0.4)) for _ in "bc"]
        pb = [(0.0, 1.0), (1.0, 1.0), (rng.uniform(-1.0, 2.0), rng.uniform(1.1, 3.0))]
        a, b = (tri(*((x * c - y * s, x * s + y * c) for x, y in p)) for p in (pa, pb))
        yield a, b
        yield b, a
    # A support point that overflows, and a centroid difference that does.
    yield tri((-1e308, 0), (0, 0), (0, 1)), tri((1e308, 2), (1, 2), (1, 3))
    yield tri((-1.7e308, 0), (-1.7e308, 1), (-1.6e308, 0)), tri((1.7e308, 0), (1.7e308, 1), (1.6e308, 0))


def _record_triangle_solves(monkeypatch):
    """The Voronoi region of each triangle solve, as the simplex points it
    keeps, or "flat" when it falls back on the best edge."""
    kinds = set()
    closest_on_triangle, closest_on_segment = baselines._closest_on_triangle, baselines._closest_on_segment
    edge_solves = []

    def segment(a, b):
        edge_solves.append((a, b))
        return closest_on_segment(a, b)

    def triangle(a, b, c):
        edge_solves.clear()
        x, y, lambdas = closest_on_triangle(a, b, c)
        region = "".join("abc"[(a, b, c).index(sp)] for sp, _ in lambdas)
        kinds.add("flat" if edge_solves else f"triangle-{region}")
        return x, y, lambdas

    monkeypatch.setattr(baselines, "_closest_on_segment", segment)
    monkeypatch.setattr(baselines, "_closest_on_triangle", triangle)
    return kinds


def _has_negative_zero(t):
    return any(math.copysign(1.0, v) < 0.0 and v == 0.0 for p in t.vertices for v in (p.x, p.y))


def _gjk_in_range(a, b, seen=None, scale_tolerances=True):
    """``_gjk_by_definition`` on the pair as ``gjk_distance`` answers it:
    past 2^250 scaled into range by a power of two, with its tolerances
    scaled by that power's square unless ``scale_tolerances`` is False, and
    scaled back."""
    up = _into_range(a, b, GJK_RANGE_EXPONENT)[2]
    square = (1.0 / up) * (1.0 / up) if scale_tolerances else 1.0
    definition = functools.partial(_gjk_by_definition, tolerance_scale=square)
    return _scaled_into_range(definition, GJK_RANGE_EXPONENT)(a, b, seen)


def test_gjk_equals_its_definition(monkeypatch):
    # Every answer field bit for bit (the sign of zero and int against float
    # too, and the feature names), or the same exception and message. A
    # pair past 2^250 is answered as the definition answers it scaled into
    # range by a power of two, with its tolerances scaled by that power's
    # square, scaled back, or refused as too wide to scale. Where the
    # tolerances left unscaled would call a pair intersecting, the scaled
    # ones decide.
    cases = list(_gjk_cases())
    kinds = _record_triangle_solves(monkeypatch)
    for a, b in cases:
        got = _value_or_error(gjk_distance, a, b)
        assert got == _value_or_error(_gjk_in_range, a, b, kinds), (a, b)
        if _pair_size(a, b) > 2.0**GJK_RANGE_EXPONENT:
            kinds.add("past the range")
            if got[0] == "raised" and got[2].endswith("does not scale into range"):
                kinds.add("too wide")
            elif got != _value_or_error(_gjk_in_range, a, b, None, False):
                kinds.add("scaled tolerances decide")
        if got[0] == "ok" and isinstance(a.v0.x, int) and isinstance(b.v0.x, int):
            kinds.add("int")
        if _has_negative_zero(a) or _has_negative_zero(b):
            kinds.add("negative-zero")
    for cap in range(4):
        monkeypatch.setattr(baselines, "GJK_MAX_ITERATIONS", cap)
        for a, b in cases[:1000]:
            got = _value_or_error(gjk_distance, a, b)
            assert got == _value_or_error(_gjk_in_range, a, b, kinds), (cap, a, b)
            if got[0] == "ok" and "gjk-unconverged" in got[1][-1]:
                kinds.add(f"unconverged-{cap}")
            elif got == ("raised", ValueError, f"GJK_MAX_ITERATIONS must be at least 1: {cap}"):
                kinds.add(f"refused-{cap}")
    # No input here makes a triangle solve keep only a, b or both, or a
    # segment solve keep only a: the newest point lies beyond the last
    # closest point, toward the origin, by the improvement check, so it
    # stays among the kept points. (Only a pair whose squared lengths
    # overflowed, answered now in range, kept a segment's a alone.)
    expected = {"size-1", "size-2", "size-3", "segment-b", "segment-ab"}
    expected |= {"triangle-c", "triangle-ac", "triangle-bc", "triangle-abc", "flat"}
    expected |= {"past the range", "too wide", "scaled tolerances decide"}
    expected |= {"repeat", "improvement", "intersecting-3"}
    expected |= {"int", "negative-zero", "refused-0", "unconverged-1", "unconverged-2", "unconverged-3"}
    assert expected <= kinds, sorted(expected - kinds)


def test_gjk_starts_on_the_walks_facing_vertex_pair():
    # GJK takes its first support point toward the origin, along cB - cA
    # with the centroids as sums of the three coordinates, as textbook GJK
    # takes s(-v) for a start point v of A - B. So it starts on the pair
    # that a cold Lin-Canny walk starts from: A's vertex furthest along
    # cB - cA and B's furthest along cA - cB, ties to the lower index, a
    # zero direction on vertex 0 of each. The definition records its start,
    # and test_gjk_equals_its_definition holds the kernel to it.
    starts = set()
    for a, b in _gjk_cases():
        if a.is_degenerate or b.is_degenerate or _pair_size(a, b) > 2.0**GJK_RANGE_EXPONENT:
            continue
        seen = set()
        _gjk_by_definition(a, b, seen)
        start = {kind for kind in seen if isinstance(kind, tuple)}
        assert start == {("start", *_cold_start(_coords(a), _coords(b)))}, (a, b)
        starts |= start
    assert starts == {("start", i, j) for i in range(3) for j in range(3)}


def _distance_to_feature(t, feature, x, y):
    edges = _edge_list(_coords(t))
    if feature.kind is FeatureKind.VERTEX:
        vx, vy, _, _ = edges[feature.index]
        return math.hypot(x - vx, y - vy)
    return _project(x, y, *edges[feature.index])[0]


def test_gjk_witnesses_lie_on_the_features_they_name():
    # Each witness is within rounding of the vertex or edge that its
    # feature names, relative to the largest coordinate of the pair.
    pairs = [(a, b) for a, b, _ in placed("x", 1.0)]
    rng = random.Random(42)
    pairs += [random_separated_pair(rng)[:2] for _ in range(2000)]
    kinds = set()
    for a, b in pairs:
        r = gjk_distance(a, b)
        size = max(abs(v) for t in (a, b) for p in t.vertices for v in (p.x, p.y))
        for t, feature, p in ((a, r.feature_a, r.point_a), (b, r.feature_b, r.point_b)):
            assert _distance_to_feature(t, feature, p.x, p.y) <= 1e-12 * (1.0 + size), (a, b, r)
            kinds.add(feature.kind)
    assert kinds == set(FeatureKind)


def _sp(index_a, index_b):
    return (0.0, 0.0, index_a, index_b)


@pytest.mark.parametrize(
    "lambdas, expected_a, expected_b",
    [
        # A weight at or below 1e-12 leaves its vertex inactive.
        ([(_sp(0, 1), 1.0 - 1e-13), (_sp(2, 2), 1e-13)], vertex_feature(0), vertex_feature(1)),
        ([(_sp(0, 1), 0.5), (_sp(2, 2), 0.5)], edge_feature(2), edge_feature(1)),
        # Equal indices on one side sum into one vertex.
        ([(_sp(1, 0), 0.5), (_sp(1, 2), 0.5)], vertex_feature(1), edge_feature(2)),
        (
            [(_sp(0, 0), 1.0 - 1.2e-12), (_sp(2, 1), 6e-13), (_sp(2, 2), 6e-13)],
            edge_feature(2),
            vertex_feature(0),
        ),
        # Three active vertices: the heaviest, ties to the lower index.
        (
            [(_sp(0, 2), 0.2), (_sp(1, 0), 0.5), (_sp(2, 1), 0.3)],
            vertex_feature(1),
            vertex_feature(0),
        ),
        (
            [(_sp(0, 0), 0.25), (_sp(1, 1), 0.375), (_sp(2, 2), 0.375)],
            vertex_feature(1),
            vertex_feature(1),
        ),
        (
            [(_sp(2, 2), 0.375), (_sp(1, 1), 0.25), (_sp(0, 0), 0.375)],
            vertex_feature(0),
            vertex_feature(0),
        ),
        # Two active vertices: the edge joining them, 0-1 here (2-0 and 1-2 above).
        ([(_sp(1, 1), 0.5), (_sp(0, 0), 0.5)], edge_feature(0), edge_feature(0)),
    ],
)
def test_side_feature(lambdas, expected_a, expected_b):
    assert baselines._side_feature(lambdas, 2) == expected_a
    assert baselines._side_feature(lambdas, 3) == expected_b


def _closest_to_origin(*points):
    """The point of the segment or triangle spanned by ``points`` nearest the
    origin: the origin itself when a triangle contains it, else the nearest
    of the edges' projections of the origin."""
    if len(points) == 3:
        a, b, c = points
        sides = [geometry._orient(*p, *q, 0.0, 0.0) for p, q in ((a, b), (b, c), (c, a))]
        if all(s >= 0.0 for s in sides) or all(s <= 0.0 for s in sides):
            return 0.0, 0.0
    pairs = zip(points, points[1:] + points[:1]) if len(points) == 3 else [points]
    _, x, y, _ = min((_project(0.0, 0.0, *p, *q) for p, q in pairs), key=lambda r: r[0])
    return x, y


def _assert_closest_with_weights(result, points, expected_support):
    x, y, lambdas = result
    assert (x, y) == pytest.approx(_closest_to_origin(*points), abs=1e-12)
    assert [sp[:2] for sp, _ in lambdas] == expected_support
    weights = [lam for _, lam in lambdas]
    assert all(lam >= 0.0 for lam in weights)
    assert sum(weights) == pytest.approx(1.0)
    assert sum(lam * sp[0] for sp, lam in lambdas) == pytest.approx(x, abs=1e-12)
    assert sum(lam * sp[1] for sp, lam in lambdas) == pytest.approx(y, abs=1e-12)


@pytest.mark.parametrize(
    "a, b, c, expected_support",
    [
        # Vertex regions: the origin lies behind a, b or c along both of its edges.
        ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), ["a"]),
        ((2.0, 1.0), (1.0, 1.0), (2.0, 2.0), ["b"]),
        ((2.0, 2.0), (2.0, 1.0), (1.0, 1.0), ["c"]),
        # Edge regions: the origin projects inside edge ab, ac or bc.
        ((-1.0, 1.0), (1.0, 1.0), (0.0, 2.0), ["a", "b"]),
        ((-1.0, 2.0), (2.0, 1.0), (1.0, 3.0), ["a", "b"]),
        ((-1.0, 1.0), (0.0, 2.0), (1.0, 1.0), ["a", "c"]),
        ((0.0, 3.0), (-1.0, 1.0), (1.0, 1.0), ["b", "c"]),
        # The origin inside the simplex.
        ((-1.0, -1.0), (1.0, -1.0), (0.0, 1.0), ["a", "b", "c"]),
    ],
)
def test_closest_on_triangle_names_the_voronoi_region_of_the_origin(a, b, c, expected_support):
    points = {"a": a, "b": b, "c": c}
    support_points = [(*points[k], i, i) for i, k in enumerate("abc")]
    result = baselines._closest_on_triangle(*support_points)
    _assert_closest_with_weights(result, [a, b, c], [points[k] for k in expected_support])


def test_closest_on_triangle_keeps_the_origin_out_of_a_flat_simplex():
    # Three support points on one line at distance |h| from the origin,
    # exactly (on y = h) or up to rounding (p + s d). The Voronoi sums are
    # rounding noise there and can all come out positive; the answer must
    # still be the nearest point of the segment they span, never the origin.
    rng = random.Random(31)
    for k in range(20000):
        h = rng.uniform(0.1, 2.0) * rng.choice((-1.0, 1.0))
        if k % 2:
            points = [(rng.uniform(-3.0, 3.0), h) for _ in range(3)]
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = math.cos(angle), math.sin(angle)
            s0 = rng.uniform(-3.0, 3.0)
            px, py = s0 * dx - h * dy, s0 * dy + h * dx
            points = [(px + s * dx, py + s * dy) for s in (rng.uniform(-2.0, 2.0) for _ in range(3))]
        x, y, lambdas = baselines._closest_on_triangle(*((*p, i, i) for i, p in enumerate(points)))
        assert (x, y) != (0.0, 0.0), points
        assert len(lambdas) <= 2, points
        nearest = min(
            (_closest_to_origin(p, q) for p, q in zip(points, points[1:] + points[:1])),
            key=lambda r: math.hypot(*r),
        )
        assert (x, y) == pytest.approx(nearest, abs=1e-9), points


@pytest.mark.parametrize(
    "a, b, expected_support",
    [
        # Coincident support points: a zero-length segment is the point a.
        ((1.0, 2.0), (1.0, 2.0), ["a"]),
        ((1.0, 1.0), (2.0, 2.0), ["a"]),
        ((2.0, 2.0), (1.0, 1.0), ["b"]),
        ((-1.0, 1.0), (3.0, 2.0), ["a", "b"]),
    ],
)
def test_closest_on_segment_names_the_nearest_feature(a, b, expected_support):
    points = {"a": a, "b": b}
    result = baselines._closest_on_segment((*a, 0, 0), (*b, 1, 1))
    _assert_closest_with_weights(result, [a, b], [points[k] for k in expected_support])


def test_lin_canny_disjoint_pair_matches_oracle():
    a = tri((0, 0), (1, 0), (0, 1))
    result, witness = lin_canny_distance(a, a.translated(3, 0))
    assert result.distance == pytest.approx(2.0, abs=1e-9)
    assert witness == (result.feature_a, result.feature_b)


def test_lin_canny_seeded_repeat_is_one_pass():
    a = tri((0, 0), (1, 0), (0, 1))
    b = a.translated(3, 0)
    first, witness = lin_canny_distance(a, b)
    second, witness2 = lin_canny_distance(a, b, seed=witness)
    assert second.distance == first.distance
    assert witness2 == witness
    assert second.counters.total() == 1


def test_lin_canny_overlap_raises():
    a = tri((0, 0), (2, 0), (0, 2))
    with pytest.raises(Penetrating):
        lin_canny_distance(a, a)
    # boundary contact also counts as penetration for the walk
    with pytest.raises(Penetrating):
        lin_canny_distance(a, tri((2, 0), (4, 0), (3, 1)))


def test_near_collinear_crossing_pair_is_answered():
    # The overlap test and the oracle take the crossing of the edges 0
    # from their orientations, on A's edge 0, and the Lin-Canny walk, which
    # reaches it too, refuses the pair as overlapping. DyOP's candidate
    # edges do not cross, and GJK takes no crossing point: it puts the
    # origin inside its simplex triangle and answers A's weighted point,
    # the same under sum()'s plain and compensated rounding. Their answers
    # are pinned.
    a, b = NEAR_COLLINEAR_PAIR
    assert triangles_overlap(a, b) is True
    r = brute_force_triangle_distance(a, b)
    assert (r.distance, r.feature_a, r.feature_b, r.counters, r.flags) == (
        0.0, edge_feature(0), edge_feature(0), TestCounters(0, 0, 0), ()
    )
    assert r.point_a == r.point_b and _on_edge(r.point_a, a, 0)
    with pytest.raises(Penetrating):
        lin_canny_distance(a, b)
    hit = Point2(0.4027487497446946, -0.4401043300413455)
    assert gjk_distance(a, b) == geometry.DistanceResult(
        0.0, hit, hit, vertex_feature(0), edge_feature(2), TestCounters(1, 1, 1)
    )
    for velocity in (Vector2(1.0, 0.0), Vector2(0.0, 1.0)):
        assert dyop_distance(a, b, velocity) == geometry.DistanceResult(
            0.2433970178227597, a.v2, b.v2, vertex_feature(2), vertex_feature(2),
            TestCounters(0, 0, 1), ("overlapping-boxes",),
        )


def test_lin_canny_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        lin_canny_distance(tri((0, 0), (1, 0), (2, 0)), tri((5, 0), (6, 0), (5, 1)))


def test_lin_canny_oracle_equivalence_random():
    rng = random.Random(23)
    for _ in range(2000):
        a, b, _ = random_separated_pair(rng)
        exact = brute_force_triangle_distance(a, b).distance
        assert abs(lin_canny_distance(a, b)[0].distance - exact) <= 1e-7


def test_lin_canny_counters_populated():
    rng = random.Random(24)
    for _ in range(100):
        a, b, _ = random_separated_pair(rng)
        result, _ = lin_canny_distance(a, b)
        assert result.counters.total() >= 1


def _code(feature):
    return feature.index + (3 if feature.kind is FeatureKind.EDGE else 0)


def _lin_canny_by_definition(tA, tB, seed=None, seen=None):
    """``lin_canny_distance`` composed of ``_walk_by_definition``,
    ``_separated``, ``_contact_witness`` and ``_edge_sweep``; ``seen``
    also gets how the query ended. It runs the overlap test before the
    sweep, where the kernel calls the oracle's kernel ``_brute_force``
    (sweep, certificate, then the overlap test); both orders answer alike
    on disjoint and on overlapping pairs."""
    seen = set() if seen is None else seen
    if tA.is_degenerate or tB.is_degenerate:
        raise DegenerateInput("feature walk requires non-degenerate triangles")
    a, b = _coords(tA), _coords(tB)
    ca, cb = _cold_start(a, b) if seed is None else (_code(seed[0]), _code(seed[1]))
    try:
        d, pax, pay, pbx, pby, ca, cb, vv, ve, ee = _walk_by_definition(a, b, ca, cb, seen=seen)
    except ValueError:
        if _contact_witness(a, b) is None:
            seen.add("value-error")
            raise
        seen.add("value-error-contact")
        d = None
    if d is not None and _separated(a, b, pax, pay, pbx, pby):
        seen.add("certified")
        fa, fb = baselines._FEATURES[ca], baselines._FEATURES[cb]
        result = geometry._answer(d, pax, pay, pbx, pby, fa, fb, TestCounters(vv, ve, ee))
        return result, (fa, fb)
    if _contact_witness(a, b) is not None:
        seen.add("penetrating")
        raise Penetrating("triangles overlap; the feature walk handles disjoint shapes only")
    seen.add("fallback")
    swept = _edge_sweep(a, b)
    result = geometry._answer(*swept, TestCounters(vv, ve, ee + 9), ("lincanny-fallback",))
    return result, (swept[5], swept[6])


def _walk(a, b, counters=None, trace=None, seed=None):
    """The end pair of the walk from the seed's features (cold: the facing
    vertex pair, ``_cold_start``), or None when it aborts; its evaluations
    are added to ``counters``."""
    a, b = _coords(a), _coords(b)
    ca, cb = _cold_start(a, b) if seed is None else (_code(seed[0]), _code(seed[1]))
    *end, vv, ve, ee = _walk_by_definition(a, b, ca, cb, trace)
    if counters is not None:
        counters.vv_tests += vv
        counters.ve_tests += ve
        counters.ee_tests += ee
    return None if end[0] is None else end


_SEEDS = [(fa, fb) for fa in baselines._FEATURES for fb in baselines._FEATURES]


def _lin_canny_cases():
    """Seeded (tA, tB, seed) inputs for Lin-Canny; seed None is a cold query."""
    # Near contact too, where the certificate's slack decides some end pairs.
    for a, b, _ in placed("x", 1.0) + placed("x", 1e-3):
        for seed in [None] + _SEEDS:
            yield a, b, seed
    rng = random.Random(43)
    for k in range(1000):
        a, b, _ = random_separated_pair(rng)
        for seed in [None, rng.choice(_SEEDS)] + (_SEEDS if k < 50 else []):
            yield a, b, seed
            yield b, a, seed
    for k in range(2000):
        # Integer grid: ties, touching, collinear, overlapping and degenerate
        # pairs, on int coordinates, or on floats for B.
        cast = float if k % 2 else int
        a = tri(*((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)))
        b = tri(*((cast(rng.randint(0, 4)), cast(rng.randint(0, 4))) for _ in range(3)))
        yield a, b, None
        yield a, b, rng.choice(_SEEDS)
    for _ in range(300):
        # A triangle inside the other, and a copy shifted by less than its size.
        a = random_tri(rng)
        (x0, y0), (x1, y1), (x2, y2) = ((p.x, p.y) for p in a.vertices)
        cx, cy = (x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0
        s = rng.uniform(0.05, 0.9)
        b = tri(*((cx + s * (p.x - cx), cy + s * (p.y - cy)) for p in a.vertices))
        c = a.translated(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        for seed in (None, rng.choice(_SEEDS)):
            yield a, b, seed
            yield b, a, seed
            yield a, c, seed
    for k in range(400):
        # Needles whose short edge's squared length underflows to 0 while
        # the area stays above the degenerate cut, next to a small triangle.
        h, z = 10.0 ** rng.uniform(-175.0, -165.0), rng.choice((0.0, -0.0))
        needle = tri((z, z), (h, z), (z, 1e160 * rng.uniform(0.5, 2.0)))
        x = rng.uniform(-2.0, 2.0)
        other = tri((x, -1.0), (x + 1.0, -1.0 - rng.uniform(0.5, 2.0)), (x - 1.0, -2.0))
        for seed in (None, rng.choice(_SEEDS)):
            yield needle, other, seed
            yield other, needle, seed
    for k in range(1200):
        # A's vertex (x, y), or its edge up from it, facing B's parallel edge
        # at x + g. A vertex faces across g = 1e-12 |x| to 1e-11 |x|, where
        # the certificate's gap test sb - sa > 2 tol changes its verdict.
        # An edge faces across 1e-12 |x| to 1e-6 |x|, the pair turned by a
        # random angle, so the rounded witnesses tilt n enough that a
        # vertex of either edge fails its slab test.
        x, y = rng.uniform(1.0, 10.0) * rng.choice((-1.0, 1.0)), rng.uniform(-10.0, 10.0)
        edge = k % 2 == 1
        g = abs(x) * 10.0 ** rng.uniform(-12.0, -6.0 if edge else -11.0)
        top = (x, y + rng.uniform(0.5, 2.0)) if edge else (x - 1.0, y + rng.uniform(0.5, 1.5))
        pa = [(x, y), top, (x - rng.uniform(0.5, 2.0), y - rng.uniform(0.5, 1.0))]
        pb = [(x + g, y - rng.uniform(0.5, 1.0)), (x + g + rng.uniform(0.5, 2.0), y), (x + g, y + rng.uniform(1.0, 2.5))]
        angle = rng.uniform(0.0, 2.0 * math.pi) if edge else 0.0
        c, s = math.cos(angle), math.sin(angle)
        a, b = (tri(*((px * c - py * s, px * s + py * c) for px, py in p)) for p in (pa, pb))
        yield a, b, None
        yield b, a, rng.choice(_SEEDS)
    for scale in (1e150, 1e155, 1e300):
        for _ in range(200):
            a, b, _ = random_separated_pair(rng)
            a, b = a.scaled(scale), b.scaled(scale)
            c = a.translated(0.3 * scale, 0.0)
            for seed in (None, rng.choice(_SEEDS)):
                yield a, b, seed
                yield b, a, seed
                yield a, c, seed


def test_lin_canny_equals_its_definition():
    # Every answer field bit for bit (the sign of zero and int against float
    # too, the feature names and the returned pair), or the same exception
    # and message. A pair past 2^510 is answered as the definition answers
    # it scaled into range by a power of two, scaled back, or refused as
    # too wide to scale.
    seen = set()
    definition = _scaled_into_range(_lin_canny_by_definition)
    for a, b, seed in _lin_canny_cases():
        got = _value_or_error(lin_canny_distance, a, b, seed)
        assert got == _value_or_error(definition, a, b, seed, seen), (a, b, seed)
        if _pair_size(a, b) > RANGE:
            seen.add("past the range")
    expected = {"vv", "ve", "ev", "ee", "zero-length-edge"}
    expected |= {"vertex-to-own-edge", "vertex-to-previous-edge", "edge-to-start", "edge-to-end"}
    expected |= {"behind-to-start", "behind-to-end", "increase", "revisit"}
    expected |= {"certified", "fallback", "penetrating", "past the range"}
    assert expected <= seen, sorted(expected - seen)


def test_lin_canny_witnesses_lie_on_the_features_they_name():
    # Each witness is within rounding of the vertex or edge that its
    # feature names, relative to the largest coordinate of the pair, for a
    # certified walk and for the sweep that answers a fallback (the
    # near-contact pairs along y).
    rng = random.Random(44)
    pairs = [random_separated_pair(rng)[:2] for _ in range(2000)]
    pairs += [(a, b) for a, b, _ in placed("x", 1.0) + placed("y", 1e-3)]
    kinds = set()
    for a, b in pairs:
        r, pair = lin_canny_distance(a, b)
        assert pair == (r.feature_a, r.feature_b)
        size = max(abs(v) for t in (a, b) for p in t.vertices for v in (p.x, p.y))
        for t, feature, p in ((a, r.feature_a, r.point_a), (b, r.feature_b, r.point_b)):
            assert _distance_to_feature(t, feature, p.x, p.y) <= 1e-12 * (1.0 + size), (a, b, r)
            kinds.add((feature.kind, r.flags))
    assert kinds == {(kind, flags) for kind in FeatureKind for flags in ((), ("lincanny-fallback",))}


def test_walk_never_increases_and_never_revisits():
    # A vertex->edge step moves to a feature holding a strictly closer
    # point (on integer grids a float tie can round it equal, which these
    # random pairs never hit); an edge->vertex step moves to the endpoint
    # the witness was already clamped to, so it keeps the distance, unless
    # the point lay behind the edge, whose escape raises it and aborts.
    # Each pair is walked cold and from a drawn seed: the cold walks of
    # these pairs never reach the behind-the-edge escape.
    rng = random.Random(25)
    kinds = {"vertex->edge": 0, "edge->vertex": 0, "raised": 0}
    for _ in range(500):
        a, b, _ = random_separated_pair(rng)
        for seed in (None, rng.choice(_SEEDS)):
            trace = []
            walked = _walk(a, b, trace=trace, seed=seed)
            pairs = [(fa, fb) for fa, fb, _ in trace]
            assert len(pairs) == len(set(pairs))
            for k in range(1, len(trace)):
                (fa0, fb0, d0), (fa1, fb1, d1) = trace[k - 1], trace[k]
                old, new = (fa0, fa1) if fa0 != fa1 else (fb0, fb1)
                if old.kind is FeatureKind.VERTEX:
                    assert new.kind is FeatureKind.EDGE and d1 < d0
                    kinds["vertex->edge"] += 1
                else:
                    assert new.kind is FeatureKind.VERTEX and d1 >= d0
                    kinds["edge->vertex"] += 1
                    if d1 > d0:
                        # No accepted step increases the distance: this one aborts.
                        assert k == len(trace) - 1 and walked is None
                        kinds["raised"] += 1
    assert all(kinds.values())


def _realizes(r):
    return math.hypot(r.point_a.x - r.point_b.x, r.point_a.y - r.point_b.y) == r.distance


def test_lin_canny_fallback_is_flagged_and_answers_as_the_oracle():
    rng = random.Random(26)
    certified = fallbacks = 0
    fields = ("distance", "point_a", "point_b", "feature_a", "feature_b")
    pairs = [random_separated_pair(rng)[:2] for _ in range(300)]
    # Along y at s = 1e-3 the walk falls back on some placed pairs (REGIMES).
    pairs += [(a, b) for a, b, _ in placed("y", 1e-3)]
    for a, b in pairs:
        walk_counters = TestCounters()
        _walk(a, b, walk_counters)
        result, witness = lin_canny_distance(a, b)
        exact = brute_force_triangle_distance(a, b)
        assert witness == (result.feature_a, result.feature_b)
        if result.flags == ():
            # A certified walk: its own witnesses, the oracle's distance.
            certified += 1
            assert _realizes(result)
            assert abs(result.distance - exact.distance) <= 4 * math.ulp(exact.distance)
            assert result.counters == walk_counters
            continue
        fallbacks += 1
        assert result.flags == ("lincanny-fallback",)
        assert [getattr(result, f) for f in fields] == [getattr(exact, f) for f in fields]
        # The walk's own evaluations plus the sweep's nine edge pairs.
        walk_counters.ee_tests += 9
        assert result.counters == walk_counters
    assert certified > 0 and fallbacks > 0


def _assert_seeded_answer(a, b, seed, result, pair):
    """A seeded answer is a certified walk from the seed or a flagged fallback."""
    assert pair == (result.feature_a, result.feature_b)
    walk_counters = TestCounters()
    _walk(a, b, walk_counters, seed=seed)
    exact = brute_force_triangle_distance(a, b)
    if result.flags == ():
        assert _realizes(result)
        assert abs(result.distance - exact.distance) <= 4 * math.ulp(exact.distance)
        assert result.counters == walk_counters
        return
    assert result.flags == ("lincanny-fallback",)
    assert repr(result.distance) == repr(exact.distance)
    walk_counters.ee_tests += 9
    assert result.counters == walk_counters


def test_lin_canny_every_seed_answers_alike_from_fresh_and_returned_features():
    # Each of the 36 seeds, built from freshly constructed FeatureIds and
    # from the FeatureIds of earlier answers' pairs, gives the same answer.
    rng = random.Random(27)
    pairs = [random_separated_pair(rng)[:2] for _ in range(60)]
    returned = {}
    for a, b in pairs:
        _, pair = lin_canny_distance(a, b)
        for f in pair:
            returned.setdefault((f.kind, f.index), f)
    keys = [(kind, i) for kind in FeatureKind for i in range(3)]
    assert sorted(returned, key=keys.index) == keys
    seeds = [(ka, kb) for ka in keys for kb in keys]
    outcomes = {"certified": 0, "fallback": 0}
    for a, b in pairs:
        for ka, kb in seeds:
            fresh = (FeatureId(*ka), FeatureId(*kb))
            reused = (returned[ka], returned[kb])
            assert fresh == reused and fresh[0] is not reused[0]
            result, pair = lin_canny_distance(a, b, seed=fresh)
            assert repr((result, pair)) == repr(lin_canny_distance(a, b, seed=reused))
            _assert_seeded_answer(a, b, fresh, result, pair)
            outcomes["fallback" if result.flags else "certified"] += 1
    assert all(outcomes.values())


def test_lin_canny_threads_its_seed_along_a_trajectory():
    # A mover steps past a static triangle, always 0.5 above it, and each
    # frame starts from the previous frame's witness pair.
    static = tri((0, 0), (1, 0), (0, 1))
    mover = tri((0, 0), (1, 0), (0.5, 1))
    seed, hits = None, 0
    for k in range(12):
        a = mover.translated(-3.0 + 0.5 * k, 1.5)
        result, pair = lin_canny_distance(a, static, seed)
        _assert_seeded_answer(a, static, seed, result, pair)
        hits += seed is not None and result.counters.total() == 1
        seed = pair
    assert hits > 0


def _count_overlap_calls(monkeypatch):
    # Every overlap test is geometry's _contact_witness: the oracle's kernel
    # _brute_force calls it, for the oracle and for a Lin-Canny fallback,
    # and so does triangles_overlap. Each call is recorded under the name
    # of the function that made it.
    calls = []
    contact_witness = geometry._contact_witness

    def counted(a, b):
        calls.append(sys._getframe(1).f_code.co_name)
        return contact_witness(a, b)

    monkeypatch.setattr(geometry, "_contact_witness", counted)
    return calls


def test_placed_pairs_are_answered_without_the_overlap_test(monkeypatch):
    pairs = placed("x", 1.0)
    calls = _count_overlap_calls(monkeypatch)
    for a, b, _ in pairs:
        assert brute_force_triangle_distance(a, b).counters.ee_tests == 9
        lin_canny_distance(a, b)
    assert calls == []


def test_lin_canny_fallback_runs_the_overlap_test_only_when_its_sweep_is_not_certified(monkeypatch):
    # A fallback calls the oracle's kernel, _brute_force: the box test and
    # the nine-edge sweep, which answers alone where the triangles' boxes
    # have a gap; where they meet, the certificate on its witnesses, and
    # the overlap test only when the certificate fails. So in each regime
    # of REGIMES the overlap test runs on its fallbacks with meeting boxes,
    # whose sweeps the certificate rejects. Measured: none of 300 random
    # pairs falls back cold, and walks from a drawn seed fall back on 26 of
    # 300 (seed 27) by the escape from behind an edge, each answered by the
    # sweep alone, since a random pair's boxes have a gap.
    regimes = {regime: placed(*regime) for regime, facts in REGIMES.items() if "fallbacks_with_meeting_boxes" in facts}
    calls = _count_overlap_calls(monkeypatch)
    rng = random.Random(26)
    fallbacks = 0
    for _ in range(300):
        a, b, _ = random_separated_pair(rng)
        result, _ = lin_canny_distance(a, b)
        fallbacks += result.flags == ("lincanny-fallback",)
    assert (fallbacks, calls) == (0, [])
    rng = random.Random(27)
    for _ in range(300):
        a, b, _ = random_separated_pair(rng)
        result, _ = lin_canny_distance(a, b, seed=rng.choice(_SEEDS))
        fallbacks += result.flags == ("lincanny-fallback",)
    assert (fallbacks, calls) == (26, [])
    for regime, pairs in regimes.items():
        meeting = REGIMES[regime]["fallbacks_with_meeting_boxes"]
        for a, b, _ in pairs:
            calls.clear()
            lin_canny_distance(a, b)
            label = f"{a.name}->{b.name}"
            assert calls == (["_brute_force"] if label in meeting else []), (regime, label)


def test_near_contact_pairs_are_certified_wherever_the_origin_is():
    # The default scene in each regime of REGIMES, near contact the paper's
    # nearly intersecting objects. Each static triangle has a vertex at the
    # origin, so separating lines pass near it, where the dot products pa.n
    # and pb.n cancel; the certificate's slack sums the products' sizes
    # instead. Each distance is as many ulps off the exact one as the
    # oracle's (at most 27 at 1e-2 and 160 at 1e-3 unshifted along x). A
    # fallback is the oracle's sweep, so its distance is the oracle's, bit
    # for bit.
    for regime in REGIMES:
        for a, b, _ in placed(*regime):
            result, _ = lin_canny_distance(a, b)
            squared = exact_squared_distance(a, b)
            oracle = brute_force_triangle_distance(a, b)
            assert ulp_error(result.distance, squared) == ulp_error(oracle.distance, squared), (regime, a.name, b.name)
            if result.flags:
                assert repr(result.distance) == repr(oracle.distance), (regime, a.name, b.name)


def test_cold_walk_fallback_counts_are_pinned():
    # Measured, not required: no cold walk falls back on the first 5000
    # random pairs of seed 7. REGIMES pins the default scene's fallbacks.
    rng = random.Random(7)
    pairs = [random_separated_pair(rng)[:2] for _ in range(5000)]
    assert sum("lincanny-fallback" in lin_canny_distance(a, b)[0].flags for a, b in pairs) == 0


def test_cold_walk_starts_on_the_facing_vertex_pair():
    # A cold query answers as the query seeded with the facing vertex pair,
    # bit for bit, counters included: A's vertex furthest along cB - cA and
    # B's furthest along cA - cB, as ``support`` picks them, with the
    # centroids as sums of the three coordinates. Integer grid pairs add
    # ties, which go to the lower index, and pairs that meet.
    rng = random.Random(45)
    pairs = [random_separated_pair(rng)[:2] for _ in range(1000)]
    pairs += [
        (tri(*((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3))), random_tri(rng, 4.0).translated(6.0, 0.0))
        for _ in range(500)
    ]
    pairs += [tuple(tri(*((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3))) for _ in "ab") for _ in range(500)]
    starts = set()
    for a, b in pairs:
        ca, cb = _cold_start(_coords(a), _coords(b))
        dx = b.v0.x + b.v1.x + b.v2.x - (a.v0.x + a.v1.x + a.v2.x)
        dy = b.v0.y + b.v1.y + b.v2.y - (a.v0.y + a.v1.y + a.v2.y)
        if dx or dy:
            assert (ca, cb) == (support(a, Vector2(dx, dy))[0], support(b, Vector2(-dx, -dy))[0]), (a, b)
        else:
            assert (ca, cb) == (0, 0), (a, b)
        starts.add((ca, cb))
        seed = (vertex_feature(ca), vertex_feature(cb))
        assert _value_or_error(lin_canny_distance, a, b) == _value_or_error(lin_canny_distance, a, b, seed), (a, b)
    assert len(starts) == 9


def test_lin_canny_fallback_is_answered_by_one_sweep(monkeypatch):
    # A walk that is not certified on disjoint triangles is answered by
    # one call of the oracle's nine-edge sweep, whose answer it reports.
    sweeps = []

    def recording_sweep(a, b):
        answer = _edge_sweep(a, b)
        sweeps.append(answer)
        return answer

    # Placement runs the sweep too, so the pairs are placed first.
    pairs = placed("y", 1e-3)
    monkeypatch.setattr(geometry, "_edge_sweep", recording_sweep)
    for a, b, _ in pairs:
        result, _ = lin_canny_distance(a, b)
        if result.flags:
            break
    assert result.flags == ("lincanny-fallback",)
    assert len(sweeps) == 1
    d, pax, pay, pbx, pby, fa, fb = sweeps[0]
    assert (result.distance, result.feature_a, result.feature_b) == (d, fa, fb)
    assert (result.point_a, result.point_b) == (Point2(pax, pay), Point2(pbx, pby))


def test_contained_triangle_is_decided_by_nine_intersection_tests(monkeypatch):
    # With no edge contact, the contact witness's nine segment tests, one
    # per edge pair, and two containment tests decide the overlap; they
    # are not run twice.
    calls = []
    segment_segment = geometry._segment_segment

    def counting(*args):
        calls.append(args)
        return segment_segment(*args)

    monkeypatch.setattr(geometry, "_segment_segment", counting)
    big, small = tri((0, 0), (10, 0), (0, 10)), tri((1, 1), (2, 1), (1, 2))
    for a, b in ((big, small), (small, big)):
        calls.clear()
        r = brute_force_triangle_distance(a, b)
        assert r.distance == 0.0 and r.point_a == r.point_b == Point2(1, 1)
        assert len(calls) == 9


def test_near_touching_copies_still_count_as_contact(monkeypatch):
    # A copy shifted by the width plus a gap at or below rounding: the
    # certificate must not call that separated, so the overlap test
    # decides, as it did before the certificate existed. Obj1 to Obj9
    # rest their leftmost and rightmost vertices on y = 0, so a copy
    # shifted by exactly the width touches at a vertex; at 2**15 times
    # their size, every gap here rounds away.
    calls = _count_overlap_calls(monkeypatch)
    touching = 0
    for scale in (1.0, 2.0**15):
        for obj in default_scene().objects[:9]:
            t = obj.scaled(scale)
            xs = [p.x for p in t.vertices]
            width = max(xs) - min(xs)
            for gap in (0.0, 1e-18, 1e-15, 1e-12):
                b = t.translated(width + gap, 0.0)
                exact = brute_force_triangle_distance(t, b)
                if triangles_overlap(t, b):
                    assert exact.distance == 0.0
                    calls.clear()
                    with pytest.raises(Penetrating):
                        lin_canny_distance(t, b)
                    # The walk's contact is the oracle's overlap test's.
                    assert calls == ["_brute_force"]
                    touching += 1
                else:
                    assert scale == 1.0 and gap > 0.0 and exact.distance > 0.0
                    result, _ = lin_canny_distance(t, b)
                    assert result.distance == exact.distance
                    assert result.flags == ("lincanny-fallback",)
    assert touching > 0


@pytest.mark.parametrize("s", [1e154, 1e200, 1e300, 1e307])
def test_contained_triangles_near_the_float_range_still_overlap(s):
    # Contained triangles near the float maximum: _pair scales each pair
    # into range, so naming the contained vertex's nearest edge overflows
    # no projection, and Lin-Canny refuses the pair as overlapping rather
    # than with a ValueError.
    big = tri((0, 0), (10, 0), (0, 10)).scaled(s)
    small = tri((1, 1), (2, 1), (1, 2)).scaled(s)
    for a, b in ((big, small), (small, big)):
        assert triangles_overlap(a, b) is True
        with pytest.raises(Penetrating):
            lin_canny_distance(a, b)


def _scaled_result(r, s):
    """``r`` with its distance and witnesses scaled by ``s``."""
    point_a, point_b = Point2(r.point_a.x * s, r.point_a.y * s), Point2(r.point_b.x * s, r.point_b.y * s)
    return dataclasses.replace(r, distance=r.distance * s, point_a=point_a, point_b=point_b)


@pytest.mark.parametrize("k", [-20, 20, 260, 487, 520, 1000])
def test_scaling_by_a_power_of_two_scales_the_answers_exactly(k):
    # DEGENERATE_AREA is still an absolute area bound, so the pairs are
    # taken at 2**20 times their unit size: at every scaling every
    # triangle's area stays far above it. Up to 2^510 the kernels run on
    # raw coordinates (at 2**487 the pairs reach from 2^506 to 2^510, the
    # edge of that range); past it, up to near the float maximum (2^1022
    # here), the entries scale the pair back into range. Either way every
    # answer is the one at 2**20 times 2**k, bit for bit: the oracle's,
    # Lin-Canny's, DyOP's, the overlap test's and placement's. GJK's
    # tolerances are absolute, and below 2^20 they can decide; from there
    # up, GJK is held to this too, past its range of 2^250 with its
    # tolerances scaled with the pair.
    rng = random.Random(28)
    base = 2.0**20
    pairs = [(a, b) for a, b, _ in placed("x", 1.0)]
    pairs += [random_separated_pair(rng)[:2] for _ in range(300)]
    grid = [tri(*((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3))) for _ in range(600)]
    pairs += list(zip(grid[::2], grid[1::2]))
    s = 2.0**k
    velocity = Vector2(1.0, 0.0)
    for a, b in pairs:
        a, b = a.scaled(base), b.scaled(base)
        sa, sb = a.scaled(s), b.scaled(s)
        exact = _scaled_result(brute_force_triangle_distance(a, b), s)
        assert _bits(brute_force_triangle_distance(sa, sb)) == _bits(exact)
        assert triangles_overlap(sa, sb) is triangles_overlap(a, b)
        for query in (lambda t, u: dyop_distance(t, u, velocity), gjk_distance, lin_canny_distance):
            outcome = _value_or_error(query, a, b)
            if outcome[0] == "raised":
                assert _value_or_error(query, sa, sb) == outcome
            elif query is gjk_distance:
                if k > 0:
                    assert _bits(gjk_distance(sa, sb)) == _bits(_scaled_result(gjk_distance(a, b), s))
            elif query is lin_canny_distance:
                result, pair = lin_canny_distance(a, b)
                assert _bits(lin_canny_distance(sa, sb)) == _bits((_scaled_result(result, s), pair))
            else:
                assert _bits(query(sa, sb)) == _bits(_scaled_result(query(a, b), s))
    scene = default_scene()
    objects = tuple(o.scaled(base) for o in scene.objects)
    for axis in MovementAxis:
        unit = dataclasses.replace(scene, objects=objects, separation=base, axis=axis)
        scaled = dataclasses.replace(unit, objects=tuple(o.scaled(s) for o in objects), separation=base * s)
        for pair in enumerate_pairs(len(objects)):
            moved, static, v = place_pair(unit, pair)
            assert _bits(place_pair(scaled, pair)) == _bits((moved.scaled(s), static.scaled(s), v))


def test_lin_canny_seeded_repeat_after_fallback_is_one_pass_without_flag():
    # The first query starts from a drawn seed, since no cold walk falls
    # back on these pairs: 26 of the 300 seeded walks abort.
    rng = random.Random(27)
    fallbacks = 0
    for _ in range(300):
        a, b, _ = random_separated_pair(rng)
        first, witness = lin_canny_distance(a, b, seed=rng.choice(_SEEDS))
        fallbacks += "lincanny-fallback" in first.flags
        second, witness2 = lin_canny_distance(a, b, seed=witness)
        assert second.flags == ()
        assert second.counters.total() == 1
        assert second.distance == first.distance
        assert witness2 == witness
    assert fallbacks > 0


def test_seeded_random_pairs_are_deterministic():
    pairs1 = [random_separated_pair(random.Random(99)) for _ in range(1)]
    pairs2 = [random_separated_pair(random.Random(99)) for _ in range(1)]
    assert pairs1 == pairs2
