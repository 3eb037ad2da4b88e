"""Randomized cross-check of the pruned distance against the exact oracle.

The pruned algorithm minimizes over a subset of the oracle's feature
pairs, so it can overestimate but never underestimate. This sweep
generates seeded random axis-separated pairs and measures both the
mismatch rate (overestimates beyond tolerance) and the count of
conservative-bound violations, which must be zero on a correct build.

Each trial runs on flat coordinates: the generator draws a pair as the
six counter-clockwise coordinates of each triangle, the layout that
every kernel reads, and the oracle's sweep and DyOP's own kernel answer
it, so a trial builds no ``Triangle``, ``Point2`` or ``DistanceResult``.
Every draw's bounding boxes have a gap, so the oracle answers it by its
sweep alone, and the sweep's distance is the oracle's. Every
coordinate lies in [0, 4.5): a ``random()`` draw plus a push of at most
the unit box's diameter plus 2. So every witness is finite, and the one
refusal of the public queries that a draw can meet is a second triangle
made degenerate by rounding its pushed coordinates.
``random_separated_pair`` is the same draw stream, built into
``Triangle``s.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import hypot

from .dyop import _X, _Y, MovementAxis, _dyop
from .errors import DegenerateInput
from .geometry import Point2, Triangle, Vector2, _Coords, _edge_sweep, _winding

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
    redrawn. Its degeneracy is decided by ``_winding`` on the pushed
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
    """Two disjoint triangles with boxes strictly separated along an axis.

    The second triangle is pushed along a random axis by at least its
    own diameter; samples whose boxes still overlap on that axis are
    rejected and redrawn.
    """
    a, b, _, axis = _separated_coords(rng)
    velocity = Vector2(1.0, 0.0) if axis is _X else Vector2(0.0, 1.0)
    return _triangle(a), _triangle(b), velocity


def run_verify(trials: int, seed: int, tolerance: float = DEFAULT_TOLERANCE) -> VerifyReport:
    """Compare the pruned distance to the oracle on ``trials`` random pairs.

    Each pair is drawn as ``random_separated_pair`` draws it and answered
    by the oracle's sweep and the kernel that ``dyop_distance`` runs. A
    drawn witness is always finite, so the one refusal of the public
    queries that a draw can meet is kept: a second triangle made
    degenerate by its push raises ``DegenerateInput``, as
    ``dyop_distance`` does.

    The exact distance is ``_edge_sweep``'s, the minimum of its 18
    projections. A drawn pair is strictly separated along an axis (its
    least coordinate on B exceeds its greatest on A), so its bounding
    boxes have a gap there. ``_brute_force`` tests exactly that gap first
    and, finding it, answers by the sweep alone, with no certificate and
    no overlap test; so the sweep's distance is the oracle's, bit for
    bit, and the trial skips the oracle's box test and answer tuple.

    A violation is a pruned distance below the exact one, with no slack.
    On the box gap DyOP's one segment test is ``_segment_projections``.
    Each of its four projections is one of the sweep's 18, bit for bit:
    the same differences, directions, quotients and ``hypot`` arguments,
    up to sign, and B's projections onto A's edge are exactly the sweep's
    -s. So DyOP's distance cannot fall below the oracle's, and a
    violation is a fault.
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
        exact = _edge_sweep(a, b)[0]
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
