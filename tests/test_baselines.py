import math
import random
import sys

import pytest

from dyop2d import baselines, geometry
from dyop2d.baselines import (
    FeaturePair,
    _walk_codes,
    gjk_distance,
    lin_canny_distance,
    support,
)
from dyop2d.benchmark import default_scene, place_pair
from dyop2d.errors import DegenerateInput, Penetrating, ZeroDirection
from dyop2d.geometry import (
    FeatureId,
    FeatureKind,
    Point2,
    TestCounters,
    Triangle,
    Vector2,
    _edges,
    _edge_sweep,
    _project,
    brute_force_triangle_distance,
    edge_feature,
    triangles_overlap,
    vertex_feature,
)
from dyop2d.verify import random_separated_pair, random_triangle


def tri(a, b, c, name=None):
    return Triangle(Point2(*a), Point2(*b), Point2(*c), name)


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
    # A's vertex at x = -1e308 minus B's vertex at x = 1e308, overflows.
    a = tri((-1e308, 0), (0, 0), (0, 1))
    b = tri((1e308, 2), (1, 2), (1, 3))
    with pytest.raises(ValueError) as info:
        gjk_distance(a, b)
    assert type(info.value) is ValueError


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


def test_gjk_counts_simplex_solves():
    # One point, one segment and one triangle solve are counted as vv, ve
    # and ee; on the placed pairs most queries stop after a point and a
    # segment solve.
    scene = default_scene()
    n = len(scene.objects)
    results = [
        gjk_distance(*place_pair(scene, (i, j))[:2]) for i in range(n) for j in range(n) if i != j
    ]
    solves = [(r.counters.vv_tests, r.counters.ve_tests, r.counters.ee_tests) for r in results]
    assert len(solves) == 90
    assert tuple(map(sum, zip(*solves))) == (90, 95, 18)
    assert solves.count((1, 1, 0)) == 76
    assert not any("gjk-unconverged" in r.flags for r in results)


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
        # No active vertex: the lowest index among the support points.
        ([(_sp(2, 2), 1e-13), (_sp(1, 2), 0.0)], vertex_feature(1), vertex_feature(2)),
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
    assert witness == FeaturePair(result.feature_a, result.feature_b)


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


def _walk(a, b, counters=None, trace=None, seed=None):
    """The end pair of the walk from the seed's features (cold: vertex 0 and
    vertex 0), or None when it aborts; its evaluations are added to ``counters``."""
    ca, cb = (0, 0) if seed is None else (_code(seed.feature_a), _code(seed.feature_b))
    *end, vv, ve, ee = _walk_codes(_edges(a), _edges(b), ca, cb, trace)
    if counters is not None:
        counters.vv_tests += vv
        counters.ve_tests += ve
        counters.ee_tests += ee
    return None if end[0] is None else end


def test_walk_never_increases_and_never_revisits():
    # A vertex->edge step moves to a feature holding a strictly closer
    # point (on integer grids a float tie can round it equal, which these
    # random pairs never hit); an edge->vertex step moves to the endpoint
    # the witness was already clamped to, so it keeps the distance, unless
    # the point lay behind the edge, whose escape raises it and aborts.
    rng = random.Random(25)
    kinds = {"vertex->edge": 0, "edge->vertex": 0, "raised": 0}
    for _ in range(500):
        a, b, _ = random_separated_pair(rng)
        trace = []
        walked = _walk(a, b, trace=trace)
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
    for _ in range(300):
        a, b, _ = random_separated_pair(rng)
        walk_counters = TestCounters()
        _walk(a, b, walk_counters)
        result, witness = lin_canny_distance(a, b)
        exact = brute_force_triangle_distance(a, b)
        assert witness == FeaturePair(result.feature_a, result.feature_b)
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
    assert pair == FeaturePair(result.feature_a, result.feature_b)
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
        for f in (pair.feature_a, pair.feature_b):
            returned.setdefault((f.kind, f.index), f)
    keys = [(kind, i) for kind in FeatureKind for i in range(3)]
    assert sorted(returned, key=keys.index) == keys
    seeds = [(ka, kb) for ka in keys for kb in keys]
    outcomes = {"certified": 0, "fallback": 0}
    for a, b in pairs:
        for ka, kb in seeds:
            fresh = FeaturePair(FeatureId(*ka), FeatureId(*kb))
            reused = FeaturePair(returned[ka], returned[kb])
            assert fresh == reused and fresh.feature_a is not reused.feature_a
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
    # Every overlap test is _contact_witness: the oracle's (in its kernel
    # _brute_force) and triangles_overlap's in geometry, Lin-Canny's in
    # baselines. Each call is recorded under the name of the function that
    # made it.
    calls = []
    contact_witness = geometry._contact_witness

    def counted(edges_a, edges_b):
        calls.append(sys._getframe(1).f_code.co_name)
        return contact_witness(edges_a, edges_b)

    monkeypatch.setattr(geometry, "_contact_witness", counted)
    monkeypatch.setattr(baselines, "_contact_witness", counted)
    return calls


def test_placed_pairs_are_answered_without_the_overlap_test(monkeypatch):
    calls = _count_overlap_calls(monkeypatch)
    scene = default_scene()
    n = len(scene.objects)
    pairs = [place_pair(scene, (i, j)) for i in range(n) for j in range(n) if i != j]
    assert len(pairs) == 90
    for a, b, _ in pairs:
        brute_force_triangle_distance(a, b)
        result, _ = lin_canny_distance(a, b)
        assert "lincanny-fallback" not in result.flags
    assert calls == []


def _count_projections(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _project(*args)

    monkeypatch.setattr(geometry, "_project", counting)
    return calls


def test_sweep_projects_each_vertex_edge_pair_once(monkeypatch):
    # Each of the 18 vertex-edge pairs is projected once, not once for
    # each of the two edges that the vertex ends and starts.
    calls = _count_projections(monkeypatch)
    scene = default_scene()
    n = len(scene.objects)
    pairs = [place_pair(scene, (i, j)) for i in range(n) for j in range(n) if i != j]
    assert len(pairs) == 90
    for a, b, _ in pairs:
        calls.clear()
        assert brute_force_triangle_distance(a, b).counters.ee_tests == 9
        assert len(calls) == 18 and len(set(calls)) == 18


def test_lin_canny_fallback_sweep_projects_each_pair_once(monkeypatch):
    calls = _count_projections(monkeypatch)
    sweeps = []

    def counting_sweep(edges_a, edges_b):
        calls.clear()
        answer = _edge_sweep(edges_a, edges_b)
        sweeps.append(len(calls))
        return answer

    monkeypatch.setattr(baselines, "_edge_sweep", counting_sweep)
    rng = random.Random(26)
    for _ in range(300):
        a, b, _ = random_separated_pair(rng)
        result, _ = lin_canny_distance(a, b)
        if result.flags:
            break
    assert result.flags == ("lincanny-fallback",)
    assert sweeps == [18]


def test_contained_triangle_is_decided_by_nine_intersection_tests(monkeypatch):
    # With no edge contact, the contact witness's nine edge pairs and two
    # containment tests decide the overlap; they are not run twice.
    calls = []
    intersect = geometry._intersect

    def counting(*args):
        calls.append(args)
        return intersect(*args)

    monkeypatch.setattr(geometry, "_intersect", counting)
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
                    with pytest.raises(Penetrating):
                        lin_canny_distance(t, b)
                else:
                    assert scale == 1.0 and gap > 0.0 and exact.distance > 0.0
                    result, _ = lin_canny_distance(t, b)
                    assert result.distance == exact.distance
                    assert result.flags == ("lincanny-fallback",)
    assert "_brute_force" in calls and "lin_canny_distance" in calls


@pytest.mark.parametrize("s", [1e154, 1e200, 1e300, 1e307])
def test_contained_triangles_near_the_float_range_still_overlap(s):
    # Naming the contained vertex's nearest edge overflows a projection at
    # these scales; the overlap test alone must not need it, so Lin-Canny
    # still refuses the pair as overlapping rather than with a ValueError.
    big = tri((0, 0), (10, 0), (0, 10)).scaled(s)
    small = tri((1, 1), (2, 1), (1, 2)).scaled(s)
    for a, b in ((big, small), (small, big)):
        assert triangles_overlap(a, b) is True
        with pytest.raises(Penetrating):
            lin_canny_distance(a, b)


@pytest.mark.parametrize("k", [-20, 20])
def test_scaling_by_a_power_of_two_scales_the_answers_exactly(k):
    # DEGENERATE_AREA is still an absolute area bound, so the pairs are
    # taken at 2**20 times their unit size: at both scalings every
    # triangle's area stays far above it.
    rng = random.Random(28)
    base = 2.0**20
    scene = default_scene()
    n = len(scene.objects)
    pairs = [place_pair(scene, (i, j))[:2] for i in range(n) for j in range(n) if i != j]
    pairs += [random_separated_pair(rng)[:2] for _ in range(300)]
    grid = [tri(*((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3))) for _ in range(600)]
    pairs += list(zip(grid[::2], grid[1::2]))
    s = 2.0**k
    for a, b in pairs:
        a, b = a.scaled(base), b.scaled(base)
        sa, sb = a.scaled(s), b.scaled(s)
        exact, scaled = brute_force_triangle_distance(a, b), brute_force_triangle_distance(sa, sb)
        assert scaled.distance == exact.distance * s
        try:
            result, _ = lin_canny_distance(a, b)
        except (DegenerateInput, Penetrating) as exc:
            with pytest.raises(type(exc)):
                lin_canny_distance(sa, sb)
            continue
        scaled_result, _ = lin_canny_distance(sa, sb)
        assert scaled_result.distance == result.distance * s
        assert scaled_result.flags == result.flags


def test_lin_canny_seeded_repeat_after_fallback_is_one_pass_without_flag():
    rng = random.Random(27)
    fallbacks = 0
    for _ in range(300):
        a, b, _ = random_separated_pair(rng)
        first, witness = lin_canny_distance(a, b)
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
    assert not random_triangle(random.Random(0)).is_degenerate
