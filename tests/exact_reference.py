"""Exact distances in rational arithmetic, to judge the float algorithms by.

Every float is a rational, so the squared distance between two triangles
with float vertices is a rational that ``fractions.Fraction`` computes
without rounding. For disjoint triangles it is the minimum over the 18
vertex–edge pairs: each vertex of one triangle against each edge of the
other, the edge's parameter clamped to [0, 1]. (Two disjoint convex
polygons are closest at a vertex of one of them.) A float distance is
then judged against the square root of that rational in ulps, the
floats between it and the correctly rounded root.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

from dyop2d.geometry import Triangle


def _vertices(t: Triangle) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(v.x), Fraction(v.y)) for v in (t.v0, t.v1, t.v2)]


def _point_segment_squared(p, a, b) -> Fraction:
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    length = dx * dx + dy * dy
    t = min(max((px * dx + py * dy) / length, Fraction(0)), Fraction(1)) if length else Fraction(0)
    ex, ey = px - t * dx, py - t * dy
    return ex * ex + ey * ey


def exact_squared_distance(a: Triangle, b: Triangle) -> Fraction:
    """The squared distance of two disjoint triangles, without rounding."""
    va, vb = _vertices(a), _vertices(b)
    return min(
        _point_segment_squared(p, edge[0], edge[1])
        for points, corners in ((va, vb), (vb, va))
        for edge in ((corners[0], corners[1]), (corners[1], corners[2]), (corners[2], corners[0]))
        for p in points
    )


def is_correctly_rounded_sqrt(x: float, squared: Fraction) -> bool:
    """True if x is the float nearest the square root of ``squared``: the
    root lies between the midpoints from x to its two float neighbours."""
    below = (Fraction(math.nextafter(x, 0.0)) + Fraction(x)) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    return below * below <= squared <= above * above


def rounded_sqrt(squared: Fraction) -> float:
    """The correctly rounded square root of a positive rational."""
    x = math.sqrt(float(squared))  # within an ulp or two of the answer
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
