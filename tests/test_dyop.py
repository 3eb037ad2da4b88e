import math
import random

import pytest

import dyop2d.dyop as dyop_module
from dyop2d.benchmark import enumerate_pairs, place_pair
from dyop2d.dyop import (
    MovementAxis,
    build_internal_aabb,
    compute_dyop,
    dominant_axis,
    dyop_distance,
    select_candidates,
)
from dyop2d.errors import DegenerateInput, ZeroVelocity
from dyop2d.geometry import (
    DistanceResult,
    FeatureKind,
    Point2,
    TestCounters,
    Vector2,
    _segment_segment,
    brute_force_triangle_distance,
)
from dyop2d.verify import random_separated_pair
from exact_reference import exact_squared_distance, is_correctly_rounded_sqrt
from helpers import (
    OVERFLOW_SCALES,
    REGIMES,
    _bits,
    _classify_edge_point,
    _grid_triangle,
    _infinite_squares,
    _into_range,
    _not_below,
    _scaled_into_range,
    _segment_branch,
    _value_or_error,
    placed,
    random_tri,
    scaled_default_scene,
    tri,
)


def test_dominant_axis():
    assert dominant_axis(Vector2(1, 0.2)) is MovementAxis.X
    assert dominant_axis(Vector2(0.1, -5)) is MovementAxis.Y
    assert dominant_axis(Vector2(1, 1)) is MovementAxis.X  # tie goes to X
    with pytest.raises(ZeroVelocity):
        dominant_axis(Vector2(0.0, 0.0))


def test_nearest_facing_vertices_x():
    # The gap box runs between the facing vertices along the axis.
    a = tri((0, 0), (1, 2), (2, 1))
    b = tri((4, 0), (5, 2), (6, 1))
    leading, _, x_lo, _, x_hi, _, _ = build_internal_aabb(a, b, MovementAxis.X)
    assert leading == 1
    assert x_lo == 2  # trailing side: maximal x
    assert x_hi == 4  # leading side: minimal x
    assert build_internal_aabb(b, a, MovementAxis.X)[0] == 0


def test_nearest_facing_vertices_y_symmetry():
    low = tri((0, 0), (1, 0), (0, 1))
    high = low.translated(0, 5)
    leading, _, _, y_lo, _, y_hi, _ = build_internal_aabb(low, high, MovementAxis.Y)
    assert leading == 1
    assert (y_lo, y_hi) == (1, 5)
    assert build_internal_aabb(high, low, MovementAxis.Y)[0] == 0


def test_build_internal_aabb_leading_tie_rule():
    # Equal maxima: the greater minimum leads.
    a = tri((0, 0), (2, 0), (0, 1))
    b = tri((1, 3), (2, 3), (1, 4))
    assert build_internal_aabb(a, b, MovementAxis.X)[0] == 1
    assert build_internal_aabb(b, a, MovementAxis.X)[0] == 0
    # Equal extents: the second argument leads, whatever the order.
    c = a.translated(0, 5)
    assert build_internal_aabb(a, c, MovementAxis.X)[0] == 1
    assert build_internal_aabb(c, a, MovementAxis.X)[0] == 1


def test_build_internal_aabb_worked_example():
    # gap interval worked by hand: A trails with max x 2, B leads with min x 5;
    # B has the greater y-extent, so the y interval runs from A's max (4) to
    # B's min (0), inverted, and clamps to its midpoint 2.
    a = tri((0, 0), (2, 3), (1, 4))
    b = tri((5, 1), (7, 0), (6, 5))
    leading, higher, x_lo, y_lo, x_hi, y_hi, degenerate_gap = build_internal_aabb(a, b, MovementAxis.X)
    assert (x_lo, x_hi) == (2, 5)
    assert (y_lo, y_hi) == (2.0, 2.0)
    assert leading == 1
    assert higher == 1
    assert not degenerate_gap


def test_build_internal_aabb_overlapping_extents_clamps():
    a = tri((0, 0), (2, 0), (1, 1))
    b = tri((1, 3), (3, 3), (2, 4))  # x-extents overlap
    _, _, x_lo, _, x_hi, _, degenerate_gap = build_internal_aabb(a, b, MovementAxis.X)
    assert degenerate_gap
    assert x_lo == x_hi


def test_build_internal_aabb_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        build_internal_aabb(
            tri((0, 0), (1, 0), (2, 0)), tri((5, 0), (6, 0), (5, 1)), MovementAxis.X
        )


def test_build_internal_aabb_diagonal_gap_both_axes():
    # diagonal separation: both the movement and perpendicular intervals are
    # proper gaps, so the box spans the four facing extremes directly
    a = tri((0, 4), (2, 6), (1, 7))
    b = tri((5, 0), (7, 1), (6, 2))
    box = build_internal_aabb(a, b, MovementAxis.X)
    _, _, x_lo, y_lo, x_hi, y_hi, degenerate_gap = box
    assert (x_lo, x_hi) == (2, 5)
    assert (y_lo, y_hi) == (2, 4)
    assert not degenerate_gap
    assert compute_dyop(box) == (3.5, 3.0)


def test_compute_dyop_trivial_boxes():
    assert compute_dyop((1, 0, 0, 0, 2, 4, False)) == (1, 2)
    assert compute_dyop((1, 0, 3, 5, 3, 5, True)) == (3, 5)


def test_overflowed_gap_box_is_refused_by_the_candidate_rule():
    # The stages are definitions on raw coordinates. Overlapping x-extents
    # near the float range clamp to a midpoint that overflows. The box
    # keeps it and the pivot returns it; every squared distance to that
    # pivot is infinite, so the candidate rule refuses it. The query never
    # takes that pivot: it would scale the pair into range first, but its
    # y coordinates, 1 apart beside 1.79e308, would fall below 2^-500
    # there, so it refuses the pair with ValueError, as the chain of
    # stages does.
    a = tri((1.5e308, 0), (1.7e308, 0), (1.6e308, 1))
    b = tri((1.6e308, 3), (1.79e308, 3), (1.7e308, 4))
    box = build_internal_aabb(a, b, MovementAxis.X)
    assert box[2] == box[4] == math.inf and box[6]
    pivot = compute_dyop(box)
    assert pivot == (math.inf, 2.0)
    for t in (a, b):
        with pytest.raises(OverflowError, match=r"^squared distances to the pivot overflow$"):
            select_candidates(t, pivot)
    query = _value_or_error(dyop_distance, a, b, Vector2(1, 0))
    assert query == _value_or_error(_scaled_into_range(_dyop_by_stages), a, b, Vector2(1, 0))
    assert query[:2] == ("raised", ValueError) and query[2].endswith("does not scale into range")


def test_compute_dyop_midpoint():
    a = tri((0, 0), (1, 1), (0, 2))
    b = tri((2, 2), (4, 2), (3, 4))
    box = build_internal_aabb(a, b, MovementAxis.X)
    _, _, x_lo, y_lo, x_hi, y_hi, _ = box
    px, py = compute_dyop(box)
    assert px == pytest.approx(0.5 * (x_lo + x_hi), abs=0)
    assert py == pytest.approx(0.5 * (y_lo + y_hi), abs=0)


def test_compute_dyop_midpoint_identity_bit_exact():
    rng = random.Random(10)
    for _ in range(300):
        a, b, vel = random_separated_pair(rng)
        box = build_internal_aabb(a, b, dominant_axis(vel))
        _, _, x_lo, y_lo, x_hi, y_hi, _ = box
        px, py = compute_dyop(box)
        assert 2.0 * px == x_lo + x_hi
        assert 2.0 * py == y_lo + y_hi


def test_select_candidates_worked_example():
    # distances from (2, 0.5): vertex 1 is nearest, vertices 0 and 2 tie at
    # sqrt(4.25) and the tie breaks to index 0
    t = tri((0, 0), (1, 0), (0, 1))
    i, j, edge = select_candidates(t, (2, 0.5))
    assert (i, j) == (1, 0)
    assert edge == 0


def test_select_candidates_equidistant_tie():
    t = tri((0, 0), (2, 0), (1, math.sqrt(3)))
    centroid = ((t.v0.x + t.v1.x + t.v2.x) / 3.0, (t.v0.y + t.v1.y + t.v2.y) / 3.0)
    i, j, edge = select_candidates(t, centroid)
    assert (i, j) == (0, 1)
    assert edge == 0


def test_select_candidates_arity_random():
    rng = random.Random(11)
    for _ in range(400):
        t = random_tri(rng)
        pivot = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        i, j, edge = select_candidates(t, pivot)
        assert len({i, j}) == 2
        assert edge in (0, 1, 2)
        assert {i, j} == {edge, (edge + 1) % 3}


def test_dyop_distance_shifted_pair():
    a = tri((0, 0), (1, 0), (0, 1))
    b = a.translated(3, 0)
    r = dyop_distance(a, b, Vector2(1, 0))
    assert r.distance == pytest.approx(2.0, abs=1e-12)
    assert (r.counters.vv_tests, r.counters.ve_tests, r.counters.ee_tests) == (0, 0, 1)
    assert r.flags == ()


def test_dyop_distance_tie_keeps_earliest_endpoint_projection():
    # Parallel candidate edges 1 apart: A's edge 2 runs (2, 0) -> (0, 0) and
    # B's edge 0 runs (0.5, 1) -> (2.5, 1). A's first endpoint and B's first
    # endpoint both project at distance 1; A's comes first in (a, b, c, d).
    a = tri((0, 0), (2, 0), (1, -1))
    b = tri((0.5, 1), (2.5, 1), (1.5, 2))
    r = dyop_distance(a, b, Vector2(0, 1))
    assert r.distance == 1.0
    assert (r.point_a, r.point_b) == (Point2(2, 0), Point2(2, 1))
    assert (r.feature_a.kind, r.feature_a.index) == (FeatureKind.VERTEX, 2)
    assert (r.feature_b.kind, r.feature_b.index) == (FeatureKind.EDGE, 0)


def test_dyop_distance_role_symmetry():
    a = tri((0, 0), (1, 0), (0, 1))
    b = a.translated(3, 0)
    r1 = dyop_distance(a, b, Vector2(1, 0))
    r2 = dyop_distance(b, a, Vector2(-1, 0))
    assert abs(r1.distance - r2.distance) <= 1e-12


def test_dyop_distance_role_symmetry_random():
    rng = random.Random(17)
    for _ in range(300):
        a, b, vel = random_separated_pair(rng)
        r1 = dyop_distance(a, b, vel)
        r2 = dyop_distance(b, a, Vector2(-vel.dx, -vel.dy))
        assert abs(r1.distance - r2.distance) <= 1e-12


def test_dyop_distance_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        dyop_distance(
            tri((0, 0), (1, 0), (2, 0)), tri((5, 0), (6, 0), (5, 1)), Vector2(1, 0)
        )


def test_dyop_distance_refuses_overflowing_pivot():
    # The gap box runs from x = 1.65e308 to 1.7e308, so its midpoint
    # overflows. The pivot returns it, and the candidate rule refuses it.
    # The query never takes that pivot: the pair's y coordinates, 1 apart
    # beside 1.75e308, would fall below 2^-500 scaled into range, so it
    # refuses the pair with ValueError, as the chain of stages does.
    a = tri((1.6e308, 0), (1.65e308, 0), (1.6e308, 1))
    b = tri((1.7e308, 0), (1.75e308, 0), (1.7e308, 1))
    box = build_internal_aabb(a, b, MovementAxis.X)
    assert box[2] == 1.65e308 and box[4] == 1.7e308 and not box[6]
    pivot = compute_dyop(box)
    assert pivot == (math.inf, 0.5)
    with pytest.raises(OverflowError) as info:
        select_candidates(a, pivot)
    assert type(info.value) is OverflowError
    assert str(info.value) == "squared distances to the pivot overflow"
    with pytest.raises(ValueError) as info:
        dyop_distance(a, b, Vector2(1, 0))
    assert type(info.value) is ValueError
    assert str(info.value) == "a difference or length below 16384.0 does not scale into range"
    chain = _value_or_error(_scaled_into_range(_dyop_by_stages), a, b, Vector2(1, 0))
    assert chain == ("raised", ValueError, str(info.value))


def test_dyop_distance_flags_overlapping_boxes():
    a = tri((0, 0), (2, 0), (1, 1))
    b = tri((1, 3), (3, 3), (2, 4))
    r = dyop_distance(a, b, Vector2(1, 0))
    assert "overlapping-boxes" in r.flags
    # still a total function with a conservative answer
    assert r.distance >= brute_force_triangle_distance(a, b).distance - 1e-12


def test_dyop_counters_always_one_ee_test():
    rng = random.Random(12)
    for _ in range(300):
        a, b, vel = random_separated_pair(rng)
        r = dyop_distance(a, b, vel)
        assert (r.counters.vv_tests, r.counters.ve_tests, r.counters.ee_tests) == (0, 0, 1)


def test_dyop_conservative_bound_random():
    # On a disjoint pair each of DyOP's four projections is one of the
    # oracle's 18, bit for bit, so its distance is never below the oracle's:
    # on random pairs, and on the placed pairs of every regime, near contact.
    rng = random.Random(13)
    pairs = [random_separated_pair(rng) for _ in range(2000)]
    for a, b, vel in pairs + [pair for regime in REGIMES for pair in placed(*regime)]:
        assert dyop_distance(a, b, vel).distance >= brute_force_triangle_distance(a, b).distance


def _defining_vertices(feature):
    if feature.kind is FeatureKind.VERTEX:
        return {feature.index}
    return {feature.index, (feature.index + 1) % 3}


def test_dyop_exact_when_witness_survives_pruning():
    rng = random.Random(14)
    applicable = 0
    for _ in range(1500):
        a, b, vel = random_separated_pair(rng)
        oracle = brute_force_triangle_distance(a, b)
        pivot = compute_dyop(build_internal_aabb(a, b, dominant_axis(vel)))
        cand_a = set(select_candidates(a, pivot)[:2])
        cand_b = set(select_candidates(b, pivot)[:2])
        if _defining_vertices(oracle.feature_a) <= cand_a and _defining_vertices(
            oracle.feature_b
        ) <= cand_b:
            applicable += 1
            pruned = dyop_distance(a, b, vel).distance
            assert abs(pruned - oracle.distance) <= 1e-9
    assert applicable > 500  # the condition must actually trigger


def test_dyop_translation_invariance():
    rng = random.Random(15)
    for _ in range(400):
        a, b, vel = random_separated_pair(rng)
        d1 = dyop_distance(a, b, vel).distance
        dx, dy = rng.uniform(-30, 30), rng.uniform(-30, 30)
        d2 = dyop_distance(a.translated(dx, dy), b.translated(dx, dy), vel).distance
        assert abs(d1 - d2) <= 1e-9


def test_dyop_winning_features_stable_under_scaling():
    rng = random.Random(16)
    for _ in range(400):
        a, b, vel = random_separated_pair(rng)
        r = dyop_distance(a, b, vel)
        for s in (0.5, 2.0, 4.0):
            rs = dyop_distance(a.scaled(s), b.scaled(s), vel)
            assert (rs.feature_a, rs.feature_b) == (r.feature_a, r.feature_b)


def _candidate_edges(a, b, velocity):
    """(box, edge_a, edge_b, ends): the gap box, the candidate edge indices, and
    the candidate edges' endpoints a, b of A and c, d of B, by the public stages."""
    box = build_internal_aabb(a, b, dominant_axis(velocity))
    pivot = compute_dyop(box)
    edge_a = select_candidates(a, pivot)[2]
    edge_b = select_candidates(b, pivot)[2]
    ea, eb = a.edge(edge_a), b.edge(edge_b)
    return box, edge_a, edge_b, (ea.a.x, ea.a.y, ea.b.x, ea.b.y, eb.a.x, eb.a.y, eb.b.x, eb.b.y)


def _dyop_by_stages(a, b, velocity):
    """``dyop_distance`` as the chain of its public stages."""
    box, edge_a, edge_b, ends = _candidate_edges(a, b, velocity)
    d, pax, pay, pbx, pby, t_a, t_b, _ = _segment_segment(*ends)
    return DistanceResult(
        d,
        Point2(pax, pay),
        Point2(pbx, pby),
        _classify_edge_point(edge_a, t_a),
        _classify_edge_point(edge_b, t_b),
        TestCounters(0, 0, 1),
        ("overlapping-boxes",) if box[6] else (),
    )


def _gap_case(a, b, velocity):
    """"gap" when the gap box has positive width on an axis, so that the two
    triangles' boxes are apart, "no gap" when it has none; None when the
    gap box refuses the pair."""
    try:
        _, _, x_lo, y_lo, x_hi, y_hi, _ = build_internal_aabb(a, b, dominant_axis(velocity))
    except ValueError:
        return None
    return "gap" if x_lo < x_hi or y_lo < y_hi else "no gap"


def _segment_case(a, b, velocity):
    """``_segment_branch`` on the candidate edges; None when an earlier stage
    refuses the pair."""
    try:
        ends = _candidate_edges(a, b, velocity)[3]
    except ValueError:
        return None
    return _segment_branch(ends)


def _tied_extents(a, b):
    """("tied extents", axis) for each axis on which the two triangles'
    extents tie at both ends, and ("tied maxima", axis) where their maxima
    tie and their minima differ."""
    ties = set()
    for axis, coord in ((MovementAxis.X, lambda p: p.x), (MovementAxis.Y, lambda p: p.y)):
        lo_a, _, hi_a = sorted(map(coord, a.vertices))
        lo_b, _, hi_b = sorted(map(coord, b.vertices))
        if hi_a == hi_b:
            ties.add(("tied extents" if lo_a == lo_b else "tied maxima", axis))
    return ties


def _tied_squares(a, b, velocity):
    """The ties among each triangle's squared distances to the pivot that
    the candidate rule sorts: "all three", "two nearest" or "two farthest"
    equal. A pair the gap box refuses has none, and neither has a triangle
    with two or more infinite squares, which the rule refuses unsorted."""
    try:
        px, py = compute_dyop(build_internal_aabb(a, b, dominant_axis(velocity)))
    except ValueError:
        return set()
    ties = set()
    for t in (a, b):
        near, mid, far = sorted((p.x - px) * (p.x - px) + (p.y - py) * (p.y - py) for p in t.vertices)
        if mid < math.inf and (near == mid or mid == far):
            ties.add("all three" if near == far else "two nearest" if near == mid else "two farthest")
    return ties


def _stage_cases():
    yield from placed("x", 1.0)
    rng = random.Random(17)
    for _ in range(2000):
        yield random_separated_pair(rng)
    for _ in range(2000):
        # Ties, touching, overlapping and degenerate triangles, zero velocities.
        velocity = Vector2(rng.randint(-2, 2), rng.randint(-2, 2))
        yield _grid_triangle(rng), _grid_triangle(rng), velocity
    for scale, shift in OVERFLOW_SCALES:
        for _ in range(100):
            a, b, velocity = random_separated_pair(rng)
            a, b = a.scaled(scale), b.scaled(scale)
            yield a.translated(shift, 0.0), b.translated(shift, 0.0), velocity
            if shift:
                # An overflowed pivot y with a finite pivot x.
                yield a.translated(0.0, shift), b.translated(0.0, shift), velocity
    for _ in range(200):
        # Needles: candidate edges shorter than 1.5e-162, whose squared
        # lengths underflow to 0 (the projections' zero-length branches),
        # on triangles whose far vertex stays within reach of the pivot.
        e, g, far = rng.uniform(1e-163, 1.4e-162), rng.uniform(1e-151, 1e-149), rng.uniform(1e151, 1e152)
        fx, fy, transpose = rng.choice((1.0, -1.0)), rng.choice((1.0, -1.0)), rng.random() < 0.5

        def pt(x, y):
            return (fy * y, fx * x) if transpose else (fx * x, fy * y)

        a, b = tri(pt(0.0, 0.0), pt(e, 0.0), pt(0.0, far)), tri(pt(-g, 0.0), pt(-g, -e), pt(-far, 0.0))
        velocity = Vector2(1.0, 0.0) if rng.random() < 0.5 else Vector2(0.0, 1.0)
        yield a, b, velocity
        yield b, a, velocity
    for pair in (((1.5e308, 0), (1.7e308, 0), (1.6e308, 1)), ((1.6e308, 3), (1.79e308, 3), (1.7e308, 4))), (
        ((1.6e308, 0), (1.65e308, 0), (1.6e308, 1)),
        ((1.7e308, 0), (1.75e308, 0), (1.7e308, 1)),
    ):
        # Unit y features beside 1.7e308: too wide to scale into range.
        yield tri(*pair[0]), tri(*pair[1]), Vector2(1.0, 0.0)
    for _ in range(2000):
        # The integer grid centred on the origin at a scale whose squared
        # distances to the pivot stay finite while the segment test's
        # products would overflow: the query scales it into range.
        a, b = (_grid_triangle(rng).translated(-2, -2).scaled(4e153) for _ in range(2))
        yield a, b, Vector2(1.0, 0.0) if rng.random() < 0.5 else Vector2(0.0, 1.0)


def test_dyop_distance_is_the_chain_of_its_stages():
    # Distance, witnesses, features, counters and flags bit for bit, or the
    # same exception and message. Only the refusal of a degenerate triangle
    # names the entry point that refused it. A pair past 2^510 is answered
    # as the chain answers it scaled into range by a power of two, scaled
    # back, or refused as too wide to scale; the branches reached are
    # counted on the pair the kernel sees.
    seen = set()
    chain = _scaled_into_range(_dyop_by_stages)
    for a, b, velocity in _stage_cases():
        query = _value_or_error(dyop_distance, a, b, velocity)
        staged = _value_or_error(chain, a, b, velocity)
        if query[:2] == ("raised", DegenerateInput):
            assert query[2] == "pruned distance requires non-degenerate triangles"
            assert staged == ("raised", DegenerateInput, "internal box requires non-degenerate triangles")
        else:
            assert query == staged, (a, b, velocity)
        seen.add(query[1] if query[0] == "raised" else "overlapping-boxes" in query[1][-1])
        if query[0] == "ok" and "overlapping-boxes" in query[1][-1]:
            seen.add(("overlapping-boxes", dominant_axis(velocity)))
        a, b, up, refusal = _into_range(a, b)
        if up != 1.0:
            seen.add("past the range")
        if refusal is not None:
            seen.add("too wide")
            continue
        seen.add(_segment_case(a, b, velocity))
        seen.add(_gap_case(a, b, velocity))
        seen.update(_tied_extents(a, b))
        seen.update(("squares tie", tie) for tie in _tied_squares(a, b, velocity))
        # In range no squared distance to the pivot overflows.
        assert not _infinite_squares(a, b, velocity), (a, b)
    # Every branch of the kernel is reached. A projection record of c or d
    # naming a vertex of A's edge ties with the earlier record of a or b,
    # which keeps the tie.
    assert seen >= {ZeroVelocity, DegenerateInput, ValueError, True, False, "past the range", "too wide"}
    assert seen >= {"crossing", "touching c", "touching d", "touching a", "touching b"}
    assert "zero-length edges" in seen
    assert seen >= {"gap", "no gap"}
    names = ("t = 0", "t = 1", "interior")
    assert seen >= {(record, name) for record in ("record a", "record b") for name in names}
    assert seen >= {("record c", "interior"), ("record d", "interior")}
    assert seen >= {
        (flag, axis) for flag in ("overlapping-boxes", "tied extents", "tied maxima") for axis in MovementAxis
    }
    # Every tie class of the candidate rule's stable sort.
    assert seen >= {("squares tie", tie) for tie in ("all three", "two nearest", "two farthest")}


def _counted_segment_tests(monkeypatch):
    """Count the calls ``_dyop`` makes of each segment test it may run."""
    calls = {"_segment_projections": 0, "_segment_segment": 0}
    for name in calls:

        def counted(*ends, name=name, test=getattr(dyop_module, name)):
            calls[name] += 1
            return test(*ends)

        monkeypatch.setattr(dyop_module, name, counted)
    return calls


def test_dyop_runs_the_contact_half_only_without_a_gap(monkeypatch):
    # A gap box with a gap puts the candidate edges' boxes apart, and the
    # projections alone answer; the full segment test runs exactly where the
    # gap box has no gap. Every placed pair of the default scene has a gap.
    # Placed along y, every pair's extents overlap along x, so the gap along
    # y alone decides. At s = 1e-6 the slanted Obj10 faces leave some pairs
    # without a gap.
    along_x, along_y, near = placed("x", 1.0), placed("y", 1.0), placed("x", 1e-6)
    calls = _counted_segment_tests(monkeypatch)
    for a, b, velocity in along_x:
        dyop_distance(a, b, velocity)
    assert calls == {"_segment_projections": 90, "_segment_segment": 0}
    for a, b, velocity in along_y:
        _, _, x_lo, _, x_hi, _, _ = build_internal_aabb(a, b, MovementAxis.Y)
        assert x_lo == x_hi and _gap_case(a, b, velocity) == "gap", (a, b)
        dyop_distance(a, b, velocity)
    assert calls == {"_segment_projections": 180, "_segment_segment": 0}
    cases = {"gap": 0, "no gap": 0}
    for a, b, velocity in near:
        before = dict(calls)
        dyop_distance(a, b, velocity)
        case = _gap_case(a, b, velocity)
        full = calls["_segment_segment"] - before["_segment_segment"]
        assert (full, calls["_segment_projections"] - before["_segment_projections"]) == (
            (1, 0) if case == "no gap" else (0, 1)
        ), (a, b)
        cases[case] += 1
    assert cases["gap"] > 0 and cases["no gap"] > 0, cases


def test_dyop_answers_candidate_edges_along_one_line():
    # A's edge 2 and B's edge 2, the candidate edges, lie along one line,
    # 16.6 apart along it. Their rounded orientations have a crossing's
    # signs: read as a crossing, DyOP answered 0.0 at a point on A's edge
    # alone, below the exact distance. The gap box has a gap, so the
    # projections answer, and the segment test agrees with them.
    a = tri(
        (2.7987413600600863, -13.693828960038513),
        (1.4976327289902551, -20.512149104722212),
        (10.728301239295456, -4.8149245982123325),
    )
    b = tri(
        (21.796941215657906, 7.578877486940073),
        (118.39442385560025, 80.16620063493616),
        (74.41233737613427, 66.49350548436607),
    )
    velocity = Vector2(1.0, 0.0)
    result = dyop_distance(a, b, velocity)
    assert _gap_case(a, b, velocity) == "gap"
    assert _bits(result) == _bits(_dyop_by_stages(a, b, velocity))
    assert is_correctly_rounded_sqrt(result.distance, exact_squared_distance(a, b))
    assert result.distance > 16.6


def test_dyop_does_not_depend_on_the_movement_axis():
    # The axis only chooses which gap interval's inversion sets the
    # overlapping-boxes flag. Queried along x and along y, distance,
    # witnesses, features and counters agree bit for bit, or both queries
    # raise the same exception and message. Inputs: the default scene placed
    # along y, 2000 random pairs and the chain test's cases (the scene
    # placed along x among them).
    def cases():
        yield from placed("y", 1.0)
        rng = random.Random(23)
        for _ in range(2000):
            yield random_separated_pair(rng)
        yield from _stage_cases()

    flagged = {axis: 0 for axis in MovementAxis}
    for a, b, _ in cases():
        outcomes = []
        for axis, velocity in ((MovementAxis.X, Vector2(1.0, 0.0)), (MovementAxis.Y, Vector2(0.0, 1.0))):
            outcome = _value_or_error(dyop_distance, a, b, velocity)
            if outcome[0] == "ok":
                *answer, flags = outcome[1]
                overlapping = build_internal_aabb(a, b, axis)[6]
                assert flags == (("overlapping-boxes",) if overlapping else ()), (a, b, axis)
                flagged[axis] += overlapping
                outcome = "ok", tuple(answer)
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1], (a, b)
    assert flagged[MovementAxis.X] != flagged[MovementAxis.Y]


def test_dyop_refuses_only_where_its_candidate_choice_is_undecided():
    # On raw coordinates near the float range a squared distance to the
    # pivot can overflow to inf. The candidate rule, a definition on raw
    # coordinates, refuses with OverflowError exactly where two or more of
    # one triangle's squares are infinite, which leaves its nearest two
    # undecided; one infinite square marks the farthest vertex. The query
    # scales a pair past 2^510 into range, where every square is finite and
    # every choice decided, so it answers every pair, never below the exact
    # distance.
    seen = set()
    for scale in (1e150, 1e154, 2e154):
        rng = random.Random(9)
        for _ in range(300):
            a, b, velocity = random_separated_pair(rng)
            a, b = a.scaled(scale), b.scaled(scale)
            px, py = compute_dyop(build_internal_aabb(a, b, dominant_axis(velocity)))
            for t in (a, b):
                squares = [(p.x - px) * (p.x - px) + (p.y - py) * (p.y - py) for p in t.vertices]
                infinite = squares.count(math.inf)
                try:
                    select_candidates(t, (px, py))
                except OverflowError:
                    assert infinite > 1, (a, b)
                    seen.add("refused")
                else:
                    assert infinite <= 1, (a, b)
                    seen.add("one infinite square" if infinite else "finite")
            r = dyop_distance(a, b, velocity)
            assert _not_below(r.distance, exact_squared_distance(a, b)), (a, b)
    assert seen == {"refused", "one infinite square", "finite"}
    # The default scene at 9e153 places all 90 pairs (6 before its pairs
    # were scaled into range), and DyOP answers them as at unit scale:
    # correctly rounded on all but Obj10->Obj6, which pruning misses.
    scene = scaled_default_scene(9e153)
    inexact = []
    for pair in enumerate_pairs(len(scene.objects)):
        a, b, velocity = place_pair(scene, pair)
        r = dyop_distance(a, b, velocity)
        if not is_correctly_rounded_sqrt(r.distance, exact_squared_distance(a, b)):
            inexact.append(f"{a.name}->{b.name}")
    assert inexact == ["Obj10->Obj6"]


def _near_tie_pairs(rng, count):
    """(a, b, velocity, (px, py)): B has two vertices exactly on one circle
    about the pivot, at lattice offsets (p, q) and (r, s) with
    p² + q² = r² + s², scaled by 2**-27 so that every coordinate and offset
    is exact while their squares must round. A and B's third vertex w fix
    the pivot; draws that move it are dropped."""
    pairs = []
    grid = 2.0**-20
    while len(pairs) < count:
        a = tri(*((rng.randint(-(2**20), -1) * grid, rng.randint(-(2**20), 0) * grid) for _ in range(3)))
        w = (rng.randint(1, 2**19) * grid, rng.randint(1, 2**19) * grid)
        px = 0.5 * (max(v.x for v in a.vertices) + w[0])
        py = 0.5 * (max(v.y for v in a.vertices) + w[1])
        m, n, k, l = (rng.randint(2**12, 2**14) for _ in range(4))
        # (m² + n²)(k² + l²) = (mk - nl)² + (ml + nk)² = (mk + nl)² + (ml - nk)²
        offsets = [(abs(m * k - n * l), m * l + n * k), (m * k + n * l, abs(m * l - n * k))]
        rng.shuffle(offsets)
        b = tri(w, *((px + dx * 2.0**-27, py + dy * 2.0**-27) for dx, dy in offsets))
        if a.is_degenerate or b.is_degenerate:
            continue
        if compute_dyop(build_internal_aabb(a, b, MovementAxis.X)) == (px, py):
            pairs.append((a, b, Vector2(1.0, 0.0), (px, py)))
    return pairs


def _vertex_order(t, px, py, square):
    """t's vertex indices by their squared distance to (px, py), then index."""
    d = [square(v.x - px) + square(v.y - py) for v in t.vertices]
    return sorted(range(3), key=lambda i: (d[i], i))


def test_dyop_near_ties_follow_the_products():
    # Where two vertices sit at the same exact distance from the pivot, the
    # rounded squares decide which one is nearer. The kernel and its stages
    # take them as products, which IEEE multiplication rounds correctly; a
    # libm ``pow`` behind ``** 2`` does not always, and orders some of these
    # pairs the other way.
    flipped = 0
    for a, b, velocity, (px, py) in _near_tie_pairs(random.Random(26), 300):
        assert _value_or_error(dyop_distance, a, b, velocity) == _value_or_error(_dyop_by_stages, a, b, velocity)
        by_products = _vertex_order(b, px, py, lambda e: e * e)
        flipped += _vertex_order(b, px, py, lambda e: e**2) != by_products
        assert select_candidates(b, (px, py))[:2] == tuple(by_products[:2])
    assert flipped > 0


def test_select_candidates_breaks_a_near_tie_by_products():
    # 5328760² + 189818574² == 189628800² + 10020226² exactly. The triangle
    # is counter-clockwise as given, so vertex 1 sits on the pivot and
    # vertices 0 and 2 tie. As products both squares round to
    # 3.605948671853107e16, so the tie keeps the lower index, vertex 0;
    # glibc 2.36's ``** 2`` rounds vertex 0's sum one ulp higher, which
    # would make vertex 2 the nearer one and edge 1 the candidate.
    p, q, r, s = 5328760.0, 189818574.0, 189628800.0, 10020226.0
    assert p * p + q * q == r * r + s * s
    assert select_candidates(tri((p, q), (0.0, 0.0), (r, s)), (0.0, 0.0)) == (1, 0, 0)
