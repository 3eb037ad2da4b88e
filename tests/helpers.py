"""Helpers that several test modules share: triangle and pair builders,
the default scene placed once per regime with the facts pinned for each,
the kernels' ranges, comparable answers, and definitions written out for
the tests to hold the package to.

No test module imports another; each imports what it shares from here.
"""

import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

from dyop2d import baselines
from dyop2d.benchmark import Scene, default_scene, enumerate_pairs, place_pair
from dyop2d.dyop import MovementAxis, build_internal_aabb, compute_dyop, dominant_axis
from dyop2d.errors import DegenerateInput, ZeroVelocity
from dyop2d.geometry import (
    DEGENERATE_AREA,
    FeatureId,
    FeatureKind,
    Point2,
    Triangle,
    _contact_witness,
    _nearest_edge_feature,
    _orient,
    _point_in_triangle,
    _project,
    _segment_segment,
    _within_extent,
)
from dyop2d.verify import random_separated_pair
from exact_reference import squared_distance_to_segment


def tri(a, b, c, name=None):
    return Triangle(Point2(*a), Point2(*b), Point2(*c), name)


def vertex_feature(i: int) -> FeatureId:
    return FeatureId(FeatureKind.VERTEX, i)


def edge_feature(i: int) -> FeatureId:
    return FeatureId(FeatureKind.EDGE, i)


def _classify_edge_point(edge_index: int, t: float) -> FeatureId:
    """The feature that a witness at parameter t on edge ``edge_index`` lies
    on: the edge's start vertex at t = 0, its end vertex at t = 1, else the
    edge itself."""
    if t == 0.0:
        return vertex_feature(edge_index)
    if t == 1.0:
        return vertex_feature((edge_index + 1) % 3)
    return edge_feature(edge_index)


def random_tri(rng, span=1.0):
    """A non-degenerate triangle with vertices uniform in the box [0, span]^2."""
    while True:
        t = tri(
            (rng.uniform(0, span), rng.uniform(0, span)),
            (rng.uniform(0, span), rng.uniform(0, span)),
            (rng.uniform(0, span), rng.uniform(0, span)),
        )
        if not t.is_degenerate:
            return t


def boxes_apart(a, b):
    """Whether the bounding boxes of the coordinates ``a`` and ``b`` have a
    strict gap along x or y, which proves the triangles disjoint."""
    xa, ya, xb, yb = a[0::2], a[1::2], b[0::2], b[1::2]
    return max(xa) < min(xb) or max(xb) < min(xa) or max(ya) < min(yb) or max(yb) < min(ya)


def mover_frames(rng, trajectories):
    """Frames (a, static, heading) of a mover stepped past a static triangle:
    per trajectory two ``random_tri`` triangles, a heading within 0.6 rad of
    the x axis and a sideways offset, then 12 steps of 0.25. A frame is kept,
    as the mover's and the static's coordinates and the heading (ux, uy),
    where the two are disjoint but their boxes overlap."""
    for _ in range(trajectories):
        static, mover = _coords(random_tri(rng)), _coords(random_tri(rng))
        theta, lateral = rng.uniform(-0.6, 0.6), rng.uniform(-0.5, 0.5)
        ux, uy = math.cos(theta), math.sin(theta)
        for k in range(12):
            along = 0.25 * k - 1.5
            dx, dy = ux * along - uy * lateral, uy * along + ux * lateral
            a = tuple(v + dy if i % 2 else v + dx for i, v in enumerate(mover))
            if not boxes_apart(a, static) and _contact_witness(a, static) is None:
                yield a, static, (ux, uy)


def _grid_triangle(rng):
    return Triangle(*(Point2(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)))


def _threshold_triangles():
    # Signed area 0.5 * h: h = 2e-12 puts it exactly at DEGENERATE_AREA.
    h = 2 * DEGENERATE_AREA
    return [
        tri((0, 0), (1, 0), (0, math.nextafter(h, 0.0))),
        tri((0, 0), (1, 0), (0, h)),
        tri((0, 0), (1, 0), (0, math.nextafter(h, 1.0))),
    ]


def _degeneracy_cases():
    rng = random.Random(41)
    cases = [random_tri(rng) for _ in range(200)]
    cases += [tri((0, 0), (0, 1), (1, 0)), tri((0, 0), (1, 0), (2, 0)), tri((1, 1), (1, 1), (1, 1))]
    for t in _threshold_triangles():
        # Each at-threshold triangle clockwise too, and shifted off the origin.
        clockwise = tri((t.v0.x, t.v0.y), (t.v2.x, t.v2.y), (t.v1.x, t.v1.y))
        cases += [t, clockwise, t.translated(3.0, -5.0)]
    return cases


# Two unit-size triangles whose edges 0 cross nearly along one line, where
# the product difference r x s of the two edge directions rounds to 0: a
# crossing point divided out by it does not exist.
NEAR_COLLINEAR_PAIR = (
    tri(
        (-0.2791745560846477, -0.04256874895973306),
        (0.13408577991610393, -1.6193413336394855),
        (1.134085779916104, -0.8309550413096093),
    ),
    tri(
        (-0.23151370849149377, -0.2244161494984298),
        (-0.01459101376893257, -1.0520730239601677),
        (0.9854089862310674, -0.6382445867292988),
    ),
)


def degenerate_scene():
    # B is collinear: DyOP and GJK refuse it, while the oracle measures it.
    return Scene(
        (tri((0, 0), (1, 0), (0, 1), "A"), tri((0, 0), (1, 0), (2, 0), "B")),
        1.0,
        MovementAxis.X,
    )


def scaled_default_scene(s, names=None):
    # The default scene's objects (all, or those named) scaled by s about
    # the origin, with the separation scaled by s too.
    scene = default_scene()
    objects = tuple(o.scaled(s) for o in scene.objects if names is None or o.name in names)
    return dataclasses.replace(scene, objects=objects, separation=scene.separation * s)


def placed(axis, s, shift=0.0):
    """The default scene's 90 (a, b, velocity) triples in the regime
    (axis, s, shift): placed along ``axis`` ("x" or "y") at separation
    ``s``, then both triangles translated by (shift, shift). Each regime is
    placed once; call this before monkeypatching what placement runs, such
    as the sweep."""
    return _placed(axis, float(s), float(shift))


@functools.cache
def _placed(axis, s, shift):
    scene = dataclasses.replace(default_scene(), axis=MovementAxis(axis), separation=s)
    pairs = (place_pair(scene, pair) for pair in enumerate_pairs(len(scene.objects)))
    if shift == 0.0:
        return tuple(pairs)
    return tuple((a.translated(shift, shift), b.translated(shift, shift), v) for a, b, v in pairs)


def cost_inputs(random_pairs):
    """The input sets of ``opcount``, ``bytecodes`` and ``kerneltime``, one
    table row each, as lists of (a, b, velocity) by label: the default
    scene's placed pairs along x at separations 1 and 1e-3 and along y at
    1, and the first ``random_pairs`` seed-7 random pairs."""
    rng = random.Random(7)
    return {
        "placed pairs, s = 1": placed("x", 1.0),
        "near contact, s = 1e-3": placed("x", 1e-3),
        "placed along y, s = 1": placed("y", 1.0),
        f"random pairs (first {random_pairs})": [random_separated_pair(rng) for _ in range(random_pairs)],
    }


def regime_id(regime):
    """A test id for the regime (axis, s, shift): "x-0.001", or "x-0.001-5.0" when shifted."""
    axis, s, shift = regime
    return f"{axis}-{s}" + (f"-{shift}" if shift else "")


def movers(statics):
    """Pair labels "ObjI->ObjJ" of the default scene from {mover number: static numbers}."""
    return {f"Obj{i}->Obj{j}" for i, js in statics.items() for j in js}


# From s = 1e-2 on along x, a slanted Obj10 face leaves DyOP no gap along x
# against seven statics (ROADMAP item 7).
_OBJ10_WITHOUT_GAP = movers({10: [2, 3, 4, 5, 6, 8, 9]})
_MISSED_ALONG_X = movers({10: [6]})

# The facts that each regime (axis, s, shift) of the default scene is pinned
# to, measured and not required, on ``placed(*regime)``. A label is the
# pair's "mover->static"; test_regimes computes each fact from the queries.
# - lincanny_fallbacks: pairs whose cold walk falls back to the oracle's
#   sweep (near contact, ROADMAP item 6);
# - fallbacks_with_meeting_boxes: the fallbacks whose triangles' bounding
#   boxes meet or touch. The oracle's kernel answers the others by its
#   sweep alone, as a box gap proves a pair disjoint; only these reach the
#   certificate, which rejects each of their sweeps, and so the overlap
#   test (along x at 1e-6 they are the pairs that leave DyOP no gap);
# - dyop_misses: pairs where DyOP strays from s by more than the bench's
#   MISMATCH_TOLERANCE * s, as its pruning drops the winning feature pair;
# - overlapping_boxes: pairs whose gap box DyOP flags overlapping-boxes;
# - lincanny_step_totals and gjk_solve_totals: the (vv, ve, ee) counters
#   summed over the pairs, and lincanny_step_histogram the number of walks
#   by evaluations made (one: the walk ends on the facing vertex pair it
#   starts from);
# - gjk_one_point: the queries that stop after one point solve, on the
#   facing vertex pair that the walk starts from too; gjk_unconverged:
#   pairs flagged gjk-unconverged (none in any regime).
REGIMES = {
    ("x", 1.0, 0.0): {
        "lincanny_fallbacks": set(),
        "dyop_misses": _MISSED_ALONG_X,
        "overlapping_boxes": set(),
        "lincanny_step_totals": (91, 15, 6),
        "lincanny_step_histogram": {1: 81, 2: 3, 4: 5, 5: 1},
        "gjk_solve_totals": (90, 9, 6),
        "gjk_one_point": 81,
        "gjk_unconverged": set(),
    },
    ("x", 1e-2, 0.0): {
        "lincanny_fallbacks": set(),
        "dyop_misses": _MISSED_ALONG_X,
        "overlapping_boxes": _OBJ10_WITHOUT_GAP,
        "gjk_unconverged": set(),
    },
    ("x", 1e-3, 0.0): {
        "lincanny_fallbacks": movers({10: [1, 6, 7]}),
        "fallbacks_with_meeting_boxes": movers({10: [6]}),
        "dyop_misses": _MISSED_ALONG_X,
        "overlapping_boxes": _OBJ10_WITHOUT_GAP,
        "gjk_unconverged": set(),
    },
    ("x", 1e-6, 0.0): {
        "lincanny_fallbacks": movers({10: range(1, 10)}),
        "fallbacks_with_meeting_boxes": _OBJ10_WITHOUT_GAP,
        "dyop_misses": _MISSED_ALONG_X,
        "overlapping_boxes": _OBJ10_WITHOUT_GAP,
        "gjk_unconverged": set(),
    },
    ("x", 1e-2, 5.0): {"lincanny_fallbacks": set(), "gjk_unconverged": set()},
    ("x", 1e-3, 5.0): {"lincanny_fallbacks": set(), "gjk_unconverged": set()},
    ("x", 1e-6, 5.0): {
        "lincanny_fallbacks": movers({10: [2, 3, 5, 6, 8, 9]}),
        "fallbacks_with_meeting_boxes": movers({10: [2, 3, 5, 6, 8, 9]}),
        "gjk_unconverged": set(),
    },
    ("y", 1.0, 0.0): {
        "lincanny_fallbacks": set(),
        "dyop_misses": movers({2: [4, 8], 3: [4, 8], 4: [8], 5: [3, 4, 7, 8], 6: [3, 4, 8], 8: [4], 9: [3, 4, 7, 8], 10: [3, 4, 8]}),
        "overlapping_boxes": set(),
        "gjk_unconverged": set(),
    },
    ("y", 1e-2, 0.0): {
        "lincanny_fallbacks": movers({2: [8], 3: [8], 4: [8, 10], 10: [8]}),
        "fallbacks_with_meeting_boxes": movers({4: [10]}),
        "gjk_unconverged": set(),
    },
    ("y", 1e-3, 0.0): {
        "lincanny_fallbacks": movers({2: [8], 3: [5, 8], 4: [8, 10], 5: [7, 9], 6: [9], 9: [3, 6], 10: [8, 9]}),
        "fallbacks_with_meeting_boxes": movers({3: [5], 4: [10]}),
        "gjk_unconverged": set(),
    },
    ("y", 1e-6, 0.0): {
        "lincanny_fallbacks": movers(
            {
                2: [5, 8, 9, 10],
                3: [1, 2, 5, 6, 7, 8, 9, 10],
                4: [1, 5, 6, 8, 9, 10],
                5: [7, 9, 10],
                6: [9, 10],
                8: [1, 2, 3, 5, 6, 7, 9, 10],
                9: [3, 6, 10],
                10: [8, 9],
            }
        ),
        "fallbacks_with_meeting_boxes": movers(
            {2: [5, 9, 10], 3: [1, 2, 5, 6, 7, 9, 10], 4: [1, 5, 6, 9, 10], 5: [10], 6: [10], 8: [1, 2, 3, 5, 6, 7, 9, 10], 9: [10]}
        ),
        "gjk_unconverged": set(),
    },
}


def _coords(t):
    """The triangle's six coordinates (x0, y0, x1, y1, x2, y2), the layout every kernel reads."""
    return tuple(v for p in t.vertices for v in (p.x, p.y))


def _edge_list(c):
    """The three edges (ax, ay, bx, by) of the coordinates ``c``, edge i from vertex i to (i + 1) % 3."""
    return tuple((c + c)[2 * i : 2 * i + 4] for i in range(3))


def _bits(value):
    """A comparable form of an answer that tells -0.0 from 0.0 and 3 from 3.0."""
    if isinstance(value, (int, float)):
        return repr(value)
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value).__name__,) + tuple(_bits(getattr(value, f.name)) for f in fields)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _value_or_error(fn, *args):
    """("ok", the answer's ``_bits``) or ("raised", the exception's type, its message)."""
    try:
        return "ok", _bits(fn(*args))
    except Exception as exc:
        return "raised", type(exc), str(exc)


# The kernels' ranges, as exponents of two: 2^510 for the oracle, DyOP,
# Lin-Canny, the overlap test and placement, 2^250 for GJK. Each public entry
# scales a pair past its kernel's range into it by one power of two.
RANGE_EXPONENT, GJK_RANGE_EXPONENT = 510, 250
RANGE = 2.0**RANGE_EXPONENT


def _pair_size(a, b):
    return max(abs(v) for t in (a, b) for p in t.vertices for v in (p.x, p.y))


def _too_wide(xs, ys, values, k, exponent):
    """The ValueError with which an entry refuses to scale by 2**k, into the
    range 2^exponent, a pair with x coordinates ``xs``, y coordinates ``ys``
    and lengths ``values`` when some two coordinates along one axis, or a
    value, are nonzero and less than 2^(10 - exponent) apart once scaled;
    else None. Taken exactly, over every two coordinates."""
    floor = Fraction(2) ** (10 - exponent - k)
    gaps = [Fraction(u) - Fraction(v) for axis in (xs, ys) for u, v in itertools.combinations(axis, 2)]
    if any(0 < abs(g) < floor for g in gaps + [Fraction(v) for v in values]):
        return ValueError(f"a difference or length below {float(floor)!r} does not scale into range")
    return None


def _into_range(a, b, exponent=RANGE_EXPONENT):
    """(a, b, up, refusal): the pair scaled by the power of two that brings
    its largest coordinate into [2^(exponent - 1), 2^exponent), the power
    that scales back, and ``_too_wide``'s ValueError for it; a pair in
    range as it is, with up = 1.0 and no refusal. DEGENERATE_AREA bounds
    the area in the pair's own units, so the scaled triangles keep the
    flags of the pair."""
    size = _pair_size(a, b)
    if size <= 2.0**exponent:
        return a, b, 1.0, None
    k = exponent - math.frexp(size)[1]
    points = [p for t in (a, b) for p in t.vertices]
    refusal = _too_wide([p.x for p in points], [p.y for p in points], (), k, exponent)
    scaled = a.scaled(2.0**k), b.scaled(2.0**k)
    for t, original in zip(scaled, (a, b)):
        object.__setattr__(t, "is_degenerate", original.is_degenerate)
    return *scaled, 2.0**-k, refusal


def _scaled_into_range(fn, exponent=RANGE_EXPONENT):
    """``fn`` on a pair run on it ``_into_range``, with the distance and
    witnesses of its answer scaled back. An answer may come first in a
    tuple. A pair too wide to scale raises its refusal, unless ``fn``
    refuses it first as degenerate or for a zero velocity, as the entries
    do before they scale."""

    def run(a, b, *args):
        a, b, up, refusal = _into_range(a, b, exponent)
        try:
            answer = fn(a, b, *args)
        except (DegenerateInput, ZeroVelocity):
            raise
        except Exception:
            if refusal is None:
                raise
        if refusal is not None:
            raise refusal
        if up == 1.0:
            return answer
        r = answer[0] if isinstance(answer, tuple) else answer
        r = dataclasses.replace(
            r,
            distance=r.distance * up,
            point_a=Point2(r.point_a.x * up, r.point_a.y * up),
            point_b=Point2(r.point_b.x * up, r.point_b.y * up),
        )
        return (r, *answer[1:]) if isinstance(answer, tuple) else r

    return run


# (scale, shift) of pairs whose intermediate values overflow near the float range.
OVERFLOW_SCALES = [(1e150, 0.0), (1e154, 0.0), (1e155, 0.0), (1e300, 0.0), (1.0, 1.7e308), (1e307, 8e307)]


def _infinite_squares(a, b, velocity):
    """The most squared distances to the pivot, as products, that overflow
    to inf in one triangle; None when the gap box refuses the pair. An
    overflowed pivot is not refused: all three squares to it are inf."""
    try:
        px, py = compute_dyop(build_internal_aabb(a, b, dominant_axis(velocity)))
    except ValueError:
        return None
    return max(
        sum((p.x - px) * (p.x - px) + (p.y - py) * (p.y - py) == math.inf for p in t.vertices) for t in (a, b)
    )


def _not_below(distance, squared, slack=1e-12):
    """Whether ``distance`` is at least the exact root of ``squared``, less a
    relative ``slack``."""
    return Fraction(distance) ** 2 >= squared * Fraction(1.0 - slack) ** 2


def _on_segment(px, py, ax, ay, bx, by, rel=2.0**-50):
    """Whether point p lies on the closed segment ab up to rounding: taken
    exactly, no farther from it than ``rel`` of ab's largest coordinate."""
    return squared_distance_to_segment(px, py, ax, ay, bx, by) <= (Fraction(rel) * max(map(abs, (ax, ay, bx, by)))) ** 2


def _on_edge(p, t, i):
    """Whether point p lies on edge i of triangle ``t`` up to rounding."""
    a, b = t.vertex(i), t.vertex((i + 1) % 3)
    return _on_segment(p.x, p.y, a.x, a.y, b.x, b.y)


def _signs_cross(o1, o2, o3, o4):
    """True when c and d lie strictly on opposite sides of ab (o1, o2) and
    a and b strictly on opposite sides of cd (o3, o4)."""
    return (o1 > 0.0) != (o2 > 0.0) and o1 != 0.0 and o2 != 0.0 and (o3 > 0.0) != (o4 > 0.0) and o3 != 0.0 and o4 != 0.0


def _intersect(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float, dx: float, dy: float
) -> tuple[float, float] | None:
    """Intersection point of closed segments ab and cd, or None if disjoint.

    Endpoint contact and collinear overlap count as intersecting; the
    returned witness for those cases is the first touching endpoint in
    (c, d, a, b) order. The four orientations are ``_orient``'s
    expressions written out on the directions r = b - a and s = d - c.
    A strict crossing lies at t = o3 / (o3 - o4) along ab, from the
    signed areas of a and b against cd (Ericson, Real-Time Collision
    Detection, 2004, 5.1.9.1). The branch runs only when o3 and o4 are
    nonzero and of opposite sign, so the rounded |o3 - o4| is at least
    |o3| > 0 and 0 <= t <= 1; in range (at most 2^510) it stays at or
    below about 2^1023. The point is finite and on ab up to one rounding.
    Segments that share a point have bounding boxes that meet, so a
    crossing also needs the boxes to meet: where one segment lies wholly
    on one side of the other along x or y, the orientations' signs are
    rounding noise, not a crossing.
    """
    apart = max(ax, bx) < min(cx, dx) or max(cx, dx) < min(ax, bx)
    apart = apart or max(ay, by) < min(cy, dy) or max(cy, dy) < min(ay, by)
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    o1 = rx * (cy - ay) - ry * (cx - ax)
    o2 = rx * (dy - ay) - ry * (dx - ax)
    o3 = sx * (ay - cy) - sy * (ax - cx)
    o4 = sx * (by - cy) - sy * (bx - cx)
    if _signs_cross(o1, o2, o3, o4) and not apart:
        t = o3 / (o3 - o4)
        return ax + t * rx, ay + t * ry
    if o1 == 0.0 and _within_extent(ax, ay, bx, by, cx, cy):
        return cx, cy
    if o2 == 0.0 and _within_extent(ax, ay, bx, by, dx, dy):
        return dx, dy
    if o3 == 0.0 and _within_extent(cx, cy, dx, dy, ax, ay):
        return ax, ay
    if o4 == 0.0 and _within_extent(cx, cy, dx, dy, bx, by):
        return bx, by
    return None


def _flat_branch_accepts(a, px, py):
    """Whether the triangle coordinates ``a`` have exactly zero orientation
    and the point (px, py) has a zero orientation against one of their
    edges, within its extent: the zero-orientation branch that
    ``_point_in_triangle`` does without, kept as a definition."""
    return _orient(*a) == 0.0 and any(
        _orient(ax, ay, bx, by, px, py) == 0.0 and _within_extent(ax, ay, bx, by, px, py)
        for ax, ay, bx, by in _edge_list(a)
    )


def _contact_witness_with_flat_branch(a, b):
    """``_contact_witness`` written out with that branch back in its
    containment test: the nine edge pairs' ``_segment_segment`` in
    row-major order, then B's vertex 0 in A, then A's vertex 0 in B."""

    def contains(t, px, py):
        return _flat_branch_accepts(t, px, py) if _orient(*t) == 0.0 else _point_in_triangle(t, px, py)

    for i, ea in enumerate(_edge_list(a)):
        for j, eb in enumerate(_edge_list(b)):
            _, hx, hy, _, _, _, _, contact = _segment_segment(*ea, *eb)
            if contact:
                return hx, hy, edge_feature(i), edge_feature(j)
    if contains(a, b[0], b[1]):
        return b[0], b[1], _nearest_edge_feature(a, b[0], b[1]), vertex_feature(0)
    if contains(b, a[0], a[1]):
        return a[0], a[1], vertex_feature(0), _nearest_edge_feature(b, a[0], a[1])
    return None


def _t_name(t):
    return "t = 0" if t == 0.0 else ("t = 1" if t == 1.0 else "interior")


def _segment_branch(ends):
    """The branch of the segment test that ends (ax, ay, bx, by, cx, cy, dx, dy)
    reach, in range: a proper crossing, the touching endpoint that witnesses
    a contact (c, d, a, b are tried in that order), two edges whose squared
    lengths underflow to 0, or the winning projection record with the
    parameter of the point it projects to."""
    ax, ay, bx, by, cx, cy, dx, dy = ends
    hit = _intersect(*ends)
    if hit is not None:
        for name, end in (("c", (cx, cy)), ("d", (dx, dy)), ("a", (ax, ay)), ("b", (bx, by))):
            if hit == end:
                return "touching " + name
        return "crossing"
    _, pax, pay, pbx, pby, t_a, t_b, _ = _segment_segment(*ends)
    rx, ry, sx, sy = bx - ax, by - ay, dx - cx, dy - cy
    if rx * rx + ry * ry == 0.0 and sx * sx + sy * sy == 0.0:
        return "zero-length edges"
    if t_a == 0.0 and (pax, pay) == (ax, ay):
        return "record a", _t_name(t_b)
    if t_a == 1.0 and (pax, pay) == (bx, by):
        return "record b", _t_name(t_b)
    if t_b == 0.0 and (pbx, pby) == (cx, cy):
        return "record c", _t_name(t_a)
    return "record d", _t_name(t_a)


def _cold_start(a, b):
    """The codes of the cold walk's start pair on the coordinates ``a`` and
    ``b``: A's vertex furthest along cB - cA and B's furthest along cA - cB,
    the centroid directions taken as sums of the three coordinates; ties
    go to the lower index."""
    dx = b[0] + b[2] + b[4] - (a[0] + a[2] + a[4])
    dy = b[1] + b[3] + b[5] - (a[1] + a[3] + a[5])
    ca = max((0, 1, 2), key=lambda i: a[2 * i] * dx + a[2 * i + 1] * dy)
    cb = min((0, 1, 2), key=lambda j: b[2 * j] * dx + b[2 * j + 1] * dy)
    return ca, cb


def _walk_by_definition(a, b, ca, cb, trace=None, seen=None):
    """Lin-Canny's walk over feature codes on the triangles' coordinates
    ``a`` and ``b``, composed of ``_project`` and ``_segment_segment`` with a
    ``set`` of visited pairs.

    Vertex i has code i, edge i code 3 + i and a pair code ca * 6 + cb.
    Returns (d, pa.x, pa.y, pb.x, pb.y, code_a, code_b, vv, ve, ee): the
    pair whose witnesses each lie in the other feature's outer Voronoi
    region, and the evaluations made by kind; d is None when a step
    increases the distance or revisits a pair. ``trace`` gets
    (feature_a, feature_b, d) per step, and ``seen`` the kinds of
    evaluation and escape and how the walk ended.
    """
    seen = set() if seen is None else seen
    edges_a, edges_b = _edge_list(a), _edge_list(b)

    def escape(edges, code, px, py):
        # None when p lies in the feature's outer Voronoi region, else the
        # code to move to.
        if code < 3:
            # a is the vertex, b the next one and c, starting edge code - 1
            # (mod 3), the previous one. p leaves along the edge with the
            # larger positive dot per unit length, ties to the vertex's own edge.
            ax, ay, bx, by = edges[code]
            cx, cy, _, _ = edges[code - 1]
            own = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
            previous = (px - ax) * (cx - ax) + (py - ay) * (cy - ay)
            if own > 0.0 and (
                previous <= 0.0 or own / math.hypot(bx - ax, by - ay) >= previous / math.hypot(cx - ax, cy - ay)
            ):
                seen.add("vertex-to-own-edge")
                return 3 + code
            if previous > 0.0:
                seen.add("vertex-to-previous-edge")
                return 3 + (code + 2) % 3
            return None
        i = code - 3
        ax, ay, bx, by = edges[i]
        ux, uy = bx - ax, by - ay
        t = (px - ax) * ux + (py - ay) * uy
        if t < 0.0:
            seen.add("edge-to-start")
            return i
        if t > ux * ux + uy * uy:
            seen.add("edge-to-end")
            return (i + 1) % 3
        if (px - ax) * uy - (py - ay) * ux < 0.0:
            da = math.hypot(px - ax, py - ay)
            db = math.hypot(px - bx, py - by)
            seen.add("behind-to-start" if da <= db else "behind-to-end")
            return i if da <= db else (i + 1) % 3
        return None

    def zero_length(edge):
        ax, ay, bx, by = edge
        if (bx - ax) * (bx - ax) + (by - ay) * (by - ay) == 0.0:
            seen.add("zero-length-edge")

    visited = set()
    prev = math.inf
    vv = ve = ee = 0
    while True:
        key = ca * 6 + cb
        if key in visited:
            seen.add("revisit")
            break
        visited.add(key)
        if ca < 3:
            pax, pay, _, _ = edges_a[ca]
            if cb < 3:
                seen.add("vv")
                vv += 1
                pbx, pby, _, _ = edges_b[cb]
                d = math.hypot(pax - pbx, pay - pby)
            else:
                seen.add("ve")
                ve += 1
                zero_length(edges_b[cb - 3])
                d, pbx, pby, _ = _project(pax, pay, *edges_b[cb - 3])
        elif cb < 3:
            seen.add("ev")
            ve += 1
            pbx, pby, _, _ = edges_b[cb]
            zero_length(edges_a[ca - 3])
            d, pax, pay, _ = _project(pbx, pby, *edges_a[ca - 3])
        else:
            seen.add("ee")
            ee += 1
            d, pax, pay, pbx, pby, _, _, _ = _segment_segment(*edges_a[ca - 3], *edges_b[cb - 3])
        if trace is not None:
            trace.append((baselines._FEATURES[ca], baselines._FEATURES[cb], d))
        if d > prev:
            seen.add("increase")
            break
        prev = d
        step = escape(edges_a, ca, pbx, pby)
        if step is not None:
            ca = step
            continue
        step = escape(edges_b, cb, pax, pay)
        if step is not None:
            cb = step
            continue
        return d, pax, pay, pbx, pby, ca, cb, vv, ve, ee
    return None, 0.0, 0.0, 0.0, 0.0, ca, cb, vv, ve, ee
