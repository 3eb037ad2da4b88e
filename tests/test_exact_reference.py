"""Every algorithm's distance judged in ulps against the exact rational one."""

import math
import random
from fractions import Fraction

from dyop2d.benchmark import ALGORITHMS
from dyop2d.geometry import Point2, Triangle
from dyop2d.verify import random_separated_pair
from exact_reference import exact_squared_distance, is_correctly_rounded_sqrt, rounded_sqrt, ulp_error
from helpers import placed


def tri(a, b, c):
    return Triangle(Point2(*a), Point2(*b), Point2(*c))


def test_exact_squared_distance_of_known_pairs():
    unit = tri((0, 0), (1, 0), (0, 1))
    # Vertex to vertex, vertex to edge interior, and a vertex whose float
    # coordinates are not the decimal 0.6 that they were written as.
    assert exact_squared_distance(unit, tri((3, 0), (4, 0), (3, 1))) == 4
    assert exact_squared_distance(tri((0, 0), (3, 0), (0, 3)), tri((2, 2), (5, 2), (2, 5))) == Fraction(1, 2)
    squared = exact_squared_distance(unit, tri((0.6, 0.6), (2, 0.6), (0.6, 2)))
    assert squared == (2 * Fraction(0.6) - 1) ** 2 / 2 != Fraction(1, 50)


def test_correct_rounding_is_decided_exactly():
    assert is_correctly_rounded_sqrt(math.sqrt(2.0), Fraction(2))
    assert not is_correctly_rounded_sqrt(math.nextafter(math.sqrt(2.0), 2.0), Fraction(2))
    assert rounded_sqrt(Fraction(1, 2)) == math.sqrt(0.5)
    x = math.sqrt(0.5)
    assert ulp_error(math.nextafter(math.nextafter(x, 1.0), 1.0), Fraction(1, 2)) == 2
    assert ulp_error(math.nextafter(x, 0.0), Fraction(1, 2)) == -1


def _errors(pairs):
    """{algorithm: [ulp error per pair]}."""
    errors = {name: [] for name in ALGORITHMS}
    for a, b, velocity in pairs:
        squared = exact_squared_distance(a, b)
        for name, query in ALGORITHMS.items():
            errors[name].append(ulp_error(query(a, b, velocity).distance, squared))
    return errors


def test_placed_pairs_are_answered_correctly_rounded():
    # GJK, cold Lin-Canny and the oracle are exact on every placed pair of
    # the default scene; DyOP on all but the one pair that it overestimates.
    pairs = placed("x", 1.0)
    errors = _errors(pairs)
    for name in ("gjk", "lincanny", "oracle"):
        assert errors[name] == [0] * 90, name
    missed = {(a.name, b.name): e for (a, b, _), e in zip(pairs, errors["dyop"]) if e != 0}
    assert set(missed) <= {("Obj10", "Obj6")}
    assert all(e > 0 for e in missed.values())


def test_random_pairs_stay_within_their_measured_ulp_bounds():
    rng = random.Random(7)
    random_pair_errors = _errors(random_separated_pair(rng) for _ in range(1500))
    # Measured on the 1500 random pairs of seed 7: the oracle and Lin-Canny
    # are correctly rounded on 1107 and at most 7 ulp off, GJK on 1066 and
    # at most 16 ulp off.
    for name, bound, exact in (("oracle", 7, 1107), ("lincanny", 7, 1107), ("gjk", 16, 1066)):
        errors = random_pair_errors[name]
        assert max(abs(e) for e in errors) <= bound, name
        assert errors.count(0) >= exact, name
    # DyOP may overestimate by any amount, since it prunes feature pairs,
    # but it answers from the oracle's own primitive tests, so it falls
    # below the exact distance by no more than the oracle's 7 ulp (the
    # measured worst is 4).
    assert min(random_pair_errors["dyop"]) >= -7
