"""Randomized cross-check of the pruned distance against the exact oracle.

The pruned algorithm minimizes over a subset of the oracle's feature
pairs, so it can overestimate but never underestimate. This sweep
generates seeded random axis-separated pairs and measures both the
mismatch rate (overestimates beyond tolerance) and the count of
conservative-bound violations, which must be zero on a correct build.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .dyop import dyop_distance
from .geometry import Point2, Triangle, Vector2, brute_force_triangle_distance

CONSERVATIVE_SLACK = 1e-12
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


def random_triangle(rng: random.Random) -> Triangle:
    """A non-degenerate triangle with vertices uniform in the unit box."""
    while True:
        tri = Triangle(
            Point2(rng.random(), rng.random()),
            Point2(rng.random(), rng.random()),
            Point2(rng.random(), rng.random()),
        )
        if not tri.is_degenerate:
            return tri


def _diameter(tri: Triangle) -> float:
    vs = tri.vertices
    return max(
        math.hypot(vs[i].x - vs[j].x, vs[i].y - vs[j].y)
        for i in range(3)
        for j in range(i + 1, 3)
    )


def random_separated_pair(
    rng: random.Random,
) -> tuple[Triangle, Triangle, Vector2]:
    """Two disjoint triangles with boxes strictly separated along an axis.

    The second triangle is pushed along a random axis by at least its
    own diameter; samples whose boxes still overlap on that axis are
    rejected and redrawn.
    """
    first = random_triangle(rng)
    while True:
        second = random_triangle(rng)
        along_x = rng.random() < 0.5
        offset = _diameter(second) + rng.uniform(0.0, 2.0)
        if along_x:
            second = second.translated(offset, 0.0)
            a_hi = max(first.v0.x, first.v1.x, first.v2.x)
            b_lo = min(second.v0.x, second.v1.x, second.v2.x)
        else:
            second = second.translated(0.0, offset)
            a_hi = max(first.v0.y, first.v1.y, first.v2.y)
            b_lo = min(second.v0.y, second.v1.y, second.v2.y)
        if b_lo > a_hi:
            return first, second, Vector2(1.0, 0.0) if along_x else Vector2(0.0, 1.0)


def run_verify(trials: int, seed: int, tolerance: float = DEFAULT_TOLERANCE) -> VerifyReport:
    """Compare the pruned distance to the oracle on ``trials`` random pairs."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1: {trials}")
    rng = random.Random(seed)
    mismatches = 0
    violations = 0
    max_over = 0.0
    for _ in range(trials):
        first, second, velocity = random_separated_pair(rng)
        exact = brute_force_triangle_distance(first, second).distance
        pruned = dyop_distance(first, second, velocity).distance
        if pruned < exact - CONSERVATIVE_SLACK:
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
