"""Randomized cross-check of the pruned distance against the exact oracle.

Where each rule is stated:

- the sweep: what it counts as a mismatch and as a violation, why a
  violation is a fault, and what a trial builds: ``run_verify``;
- the draw, and why its coordinates stay finite: ``_separated_coords``,
  from one triangle at a time drawn by ``_random_coords``;
- the same draw built into ``Triangle``s: ``random_separated_pair``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import hypot

from .dyop import _X, _Y, MovementAxis, _dyop
from .errors import DegenerateInput
from .geometry import Point2, Triangle, Vector2, _brute_force, _Coords, _winding

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class VerifyReport:
    trials: int
    mismatches: int
    max_overestimate: float
    conservative_violations: int
    tolerance: float

    @property
    def mismatch_rate(self) -> float:
        return self.mismatches / self.trials


def _random_coords(rng: random.Random) -> _Coords:
    """A non-degenerate triangle with vertices uniform in the unit box, as its
    six coordinates in counter-clockwise order; six ``random()`` calls per
    draw, redrawn until it is not degenerate, both decided by ``_winding``
    as ``Triangle`` decides them."""
    random_ = rng.random
    while True:
        x0, y0, x1, y1, x2, y2 = random_(), random_(), random_(), random_(), random_(), random_()
        clockwise, degenerate = _winding(x0, y0, x1, y1, x2, y2)
        if not degenerate:
            return (x0, y0, x2, y2, x1, y1) if clockwise else (x0, y0, x1, y1, x2, y2)


def _separated_coords(rng: random.Random) -> tuple[_Coords, _Coords, bool, MovementAxis]:
    """(a, b, degenerate_b, axis): the draw ``random_separated_pair`` builds
    its triangles from.

    The second triangle is pushed along a random axis by its diameter plus
    ``uniform(0.0, 2.0)``; draws whose boxes still overlap on that axis are
    redrawn. So every coordinate lies in [0, 4.5): a ``random()`` draw plus
    a push of at most the unit box's diameter plus 2, and every witness is
    finite. Its degeneracy is decided by ``_winding`` on the pushed
    coordinates, as ``Triangle`` does on construction. Its winding needs
    no second look: the draw's area exceeds DEGENERATE_AREA, and rounding
    the pushed coordinates moves the computed area by less than 1e-14, so
    the pushed triangle is still counter-clockwise.
    """
    a = x0, y0, x1, y1, x2, y2 = _random_coords(rng)
    ax_hi, ay_hi = max(x0, x1, x2), max(y0, y1, y2)
    while True:
        x0, y0, x1, y1, x2, y2 = _random_coords(rng)
        along_x = rng.random() < 0.5
        offset = max(hypot(x0 - x1, y0 - y1), hypot(x0 - x2, y0 - y2), hypot(x1 - x2, y1 - y2))
        offset += rng.uniform(0.0, 2.0)
        if along_x:
            x0, x1, x2 = x0 + offset, x1 + offset, x2 + offset
            separated = min(x0, x1, x2) > ax_hi
        else:
            y0, y1, y2 = y0 + offset, y1 + offset, y2 + offset
            separated = min(y0, y1, y2) > ay_hi
        if separated:
            break
    degenerate_b = _winding(x0, y0, x1, y1, x2, y2)[1]
    return a, (x0, y0, x1, y1, x2, y2), degenerate_b, _X if along_x else _Y


def _triangle(c: _Coords) -> Triangle:
    x0, y0, x1, y1, x2, y2 = c
    return Triangle(Point2(x0, y0), Point2(x1, y1), Point2(x2, y2))


def random_separated_pair(
    rng: random.Random,
) -> tuple[Triangle, Triangle, Vector2]:
    """Two disjoint triangles with boxes strictly separated along an axis,
    and the unit velocity along it: ``_separated_coords``'s draw."""
    a, b, _, axis = _separated_coords(rng)
    velocity = Vector2(1.0, 0.0) if axis is _X else Vector2(0.0, 1.0)
    return _triangle(a), _triangle(b), velocity


def run_verify(trials: int, seed: int, tolerance: float = DEFAULT_TOLERANCE) -> VerifyReport:
    """Compare the pruned distance to the oracle on ``trials`` random pairs.

    Each pair is drawn as ``random_separated_pair`` draws it, as six
    coordinates per triangle, and answered by the kernels that
    ``brute_force_triangle_distance`` and ``dyop_distance`` run, so a
    trial builds no ``Triangle``, ``Point2``, ``TestCounters`` or
    ``DistanceResult``. A drawn witness is always finite, so the one
    refusal of the public queries that a draw can meet is kept: a second
    triangle made degenerate by its push raises ``DegenerateInput``, as
    ``dyop_distance`` does.

    A drawn pair is strictly separated along an axis, so its bounding
    boxes have a gap, and ``_brute_force`` answers it by the sweep alone:
    the exact distance is the minimum of ``_edge_sweep``'s 18
    projections. The sweep itself is called only in ``geometry``.

    A mismatch is a pruned distance more than ``tolerance`` from the
    exact one. A violation is one below it, with no slack. On the box gap
    DyOP's one segment test is ``_segment_projections``. Each of its four
    projections is one of the sweep's 18, bit for bit: the same
    differences, directions, quotients and ``hypot`` arguments, up to
    sign, and B's projections onto A's edge are exactly the sweep's -s.
    So DyOP's distance cannot fall below the oracle's, and a violation is
    a fault.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1: {trials}")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and at least 0: {tolerance!r}")
    rng = random.Random(seed)
    mismatches = 0
    violations = 0
    max_over = 0.0
    for _ in range(trials):
        a, b, degenerate_b, axis = _separated_coords(rng)
        exact = _brute_force(a, b)[0]
        if degenerate_b:
            raise DegenerateInput("pruned distance requires non-degenerate triangles")
        pruned = _dyop(a, b, axis)[0]
        if pruned < exact:
            violations += 1
        over = pruned - exact
        if over > max_over:
            max_over = over
        if abs(pruned - exact) > tolerance:
            mismatches += 1
    return VerifyReport(
        trials=trials,
        mismatches=mismatches,
        max_overestimate=max_over,
        conservative_violations=violations,
        tolerance=tolerance,
    )
