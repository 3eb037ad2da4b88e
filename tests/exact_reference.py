"""Exact distances and contact in rational arithmetic, to judge the float algorithms by.

Every float is a dyadic rational, so the coordinates of a pair of
triangles become integers once multiplied by one common power of two,
and every predicate below is decided on those integers without rounding.
Scaling by a positive constant keeps every orientation's sign and every
comparison, and it multiplies squared distances by the constant's
square, which ``exact_squared_distance`` divides back out.

For disjoint triangles the squared distance is the minimum over the 18
vertex–edge pairs: each vertex of one triangle against each edge of the
other, the edge's parameter clamped to [0, 1]. (Two disjoint convex
polygons are closest at a vertex of one of them.) Two closed triangles
meet exactly when two of their edges share a point or a vertex of one
lies in the other (Shewchuk, DCG 1997, on exact predicates as the judge
of float geometry). A float distance is then judged against the square
root of the exact squared distance in ulps, the floats between it and
the correctly rounded root.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

from dyop2d.geometry import Triangle


def _on_grid(*values: float) -> tuple[list[tuple[int, int]], int]:
    """The points (x, y) of the flat ``values`` (x, y, x, y, ...) on the
    integer grid, and the power of two that the values were multiplied by
    to put them there, the least that makes every one an integer."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    return list(zip(ints[0::2], ints[1::2])), scale


def _flat(*triangles: Triangle) -> list[float]:
    return [v for t in triangles for p in t.vertices for v in (p.x, p.y)]


def _edges(points):
    return ((points[0], points[1]), (points[1], points[2]), (points[2], points[0]))


def _point_segment_squared(p, a, b):
    """The squared distance from point p to the closed segment ab, each an
    exact (x, y) pair: an int for integer coordinates, else a Fraction."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    along, length = px * dx + py * dy, dx * dx + dy * dy
    if along <= 0:
        return px * px + py * py
    if along >= length:
        qx, qy = p[0] - b[0], p[1] - b[1]
        return qx * qx + qy * qy
    cross = dx * py - dy * px
    return Fraction(cross * cross) / length


def exact_squared_distance(a: Triangle, b: Triangle) -> Fraction:
    """The squared distance of two disjoint triangles, without rounding."""
    points, scale = _on_grid(*_flat(a, b))
    va, vb = points[:3], points[3:]
    least = min(
        _point_segment_squared(p, *edge)
        for ends, corners in ((va, vb), (vb, va))
        for edge in _edges(corners)
        for p in ends
    )
    return Fraction(least) / (scale * scale)


def _orientation(a, b, c) -> int:
    """1 if a, b, c turn left, -1 if right, 0 if collinear."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def segments_meet(a, b, c, d) -> bool:
    """Whether the closed segments ab and cd share a point: each pair of
    endpoints on opposite sides of, or on, the other's line, and, where all
    four lie on one line, the segments' boxes meeting."""
    o1, o2, o3, o4 = _orientation(a, b, c), _orientation(a, b, d), _orientation(c, d, a), _orientation(c, d, b)
    if o1 == o2 == o3 == o4 == 0:
        return all(max(min(a[k], b[k]), min(c[k], d[k])) <= min(max(a[k], b[k]), max(c[k], d[k])) for k in (0, 1))
    return o1 * o2 <= 0 and o3 * o4 <= 0


def _in_triangle(p, points) -> bool:
    area = _orientation(*points)
    if area == 0:
        # A triangle without area is the union of its edges.
        return any(segments_meet(p, p, *edge) for edge in _edges(points))
    return all(_orientation(*edge, p) * area >= 0 for edge in _edges(points))


def point_in_triangle(x: float, y: float, t: Triangle) -> bool:
    """Whether the point (x, y) lies in the closed triangle ``t``."""
    (p, *points), _ = _on_grid(x, y, *_flat(t))
    return _in_triangle(p, points)


def squared_distance_to_segment(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> Fraction:
    """The squared distance from the point (px, py) to the closed segment
    from (ax, ay) to (bx, by), without rounding."""
    (p, a, b), scale = _on_grid(px, py, ax, ay, bx, by)
    return Fraction(_point_segment_squared(p, a, b)) / (scale * scale)


def exact_segments_meet(*ends: float) -> bool:
    """``segments_meet`` on the float ends ax, ay, bx, by, cx, cy, dx, dy."""
    return segments_meet(*_on_grid(*ends)[0])


def triangles_meet(a: Triangle, b: Triangle) -> bool:
    """Whether the closed triangles a and b share a point, decided exactly."""
    points, _ = _on_grid(*_flat(a, b))
    va, vb = points[:3], points[3:]
    return (
        any(segments_meet(*ea, *eb) for ea in _edges(va) for eb in _edges(vb))
        or any(_in_triangle(p, vb) for p in va)
        or any(_in_triangle(q, va) for q in vb)
    )


def is_correctly_rounded_sqrt(x: float, squared: Fraction) -> bool:
    """True if x is the float nearest the square root of ``squared``: the
    root lies between the midpoints from x to its two float neighbours."""
    below = (Fraction(math.nextafter(x, 0.0)) + Fraction(x)) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    return below * below <= squared <= above * above


def rounded_sqrt(squared: Fraction) -> float:
    """The correctly rounded square root of a positive rational."""
    # 4^e brings the rational near 1, where a float holds it: its root
    # times 2^e is within an ulp or two of the answer.
    e = (squared.numerator.bit_length() - squared.denominator.bit_length()) // 2
    x = math.ldexp(math.sqrt(squared / Fraction(4) ** e), e)
    while not is_correctly_rounded_sqrt(x, squared):
        middle = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        x = math.nextafter(x, math.inf if middle * middle < squared else 0.0)
    return x


def _ordinal(x: float) -> int:
    # Positive floats sort as their bit patterns do.
    return struct.unpack("<q", struct.pack("<d", x))[0]


def ulp_error(x: float, squared: Fraction) -> int:
    """How many floats x lies above (positive) or below (negative) the
    correctly rounded square root of ``squared``; both are positive."""
    return _ordinal(x) - _ordinal(rounded_sqrt(squared))
