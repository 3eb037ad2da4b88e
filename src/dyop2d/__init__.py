"""2D narrow-phase proximity queries for triangles.

Exact brute-force distance, a pivot-point pruned distance, GJK and
Lin-Canny baselines, and a pairing benchmark with a verification sweep.
Everything else is imported from its submodule.
"""

from .baselines import gjk_distance, lin_canny_distance
from .benchmark import default_scene, place_pair
from .dyop import dyop_distance
from .geometry import Point2, Triangle, Vector2, brute_force_triangle_distance
from .verify import random_separated_pair, run_verify

__version__ = "0.1.0"

__all__ = [
    "Point2",
    "Triangle",
    "Vector2",
    "brute_force_triangle_distance",
    "default_scene",
    "dyop_distance",
    "gjk_distance",
    "lin_canny_distance",
    "place_pair",
    "random_separated_pair",
    "run_verify",
]
