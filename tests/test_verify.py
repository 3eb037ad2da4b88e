"""The verify sweep and its draw stream.

``run_verify`` draws each pair as flat coordinates and answers it through
the oracle's and DyOP's kernels; ``random_separated_pair`` builds the same
draw into ``Triangle``s. The stream is pinned by a digest, each scripted
draw to the pair it defines, and the sweep to a recount through the
public queries: the same report and the same exceptions.
"""

import hashlib
import itertools
import math
import random
import sys
from collections import Counter

import pytest

from dyop2d import dyop, geometry, verify
from dyop2d.errors import DegenerateInput
from dyop2d.dyop import dyop_distance
from dyop2d.geometry import Point2, TestCounters, Triangle, Vector2, brute_force_triangle_distance
from dyop2d.verify import VerifyReport, random_separated_pair, run_verify
from helpers import _coords, _degeneracy_cases


class _Scripted(random.Random):
    """Replays ``draws`` from ``random()``, which ``uniform`` also calls."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)
        self.used = 0

    def random(self):
        value = self.draws[self.used]
        self.used += 1
        return value


def _pair_bits(pair):
    a, b, velocity = pair
    return repr((a, b, velocity)), a.is_degenerate, b.is_degenerate


# SHA-256 of 5000 pairs drawn from each seed, with the generator's state
# after them: the draw stream of the original object-based generator.
STREAM_DIGESTS = {
    0: "dd019ab74d6c163052905ed605bea0dd2e874eec1d40d3031119051bc93daaad",
    1: "fda77dc952fb1914e27dec1924bdc912250c152d660facdf82a09d9c8f373d80",
    2024: "6e32e7a308761ba3bfdcea3be2c7db338c7ad0a5b7c5d1f4a2a441b00da4fe99",
}


@pytest.mark.parametrize("seed", sorted(STREAM_DIGESTS))
def test_separated_pairs_and_rng_state_match_the_frozen_generator(seed):
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(5000):
        digest.update(repr(_pair_bits(random_separated_pair(rng))).encode())
    digest.update(repr(rng.getstate()).encode())
    assert digest.hexdigest() == STREAM_DIGESTS[seed]


def _recount(trials, seed, tolerance):
    """``run_verify``'s report, recounted through ``random_separated_pair``
    and the public oracle and DyOP queries."""
    rng = random.Random(seed)
    mismatches = violations = 0
    max_over = 0.0
    for _ in range(trials):
        a, b, velocity = random_separated_pair(rng)
        exact = brute_force_triangle_distance(a, b).distance
        pruned = dyop_distance(a, b, velocity).distance
        violations += pruned < exact
        max_over = max(max_over, pruned - exact)
        mismatches += abs(pruned - exact) > tolerance
    return VerifyReport(trials, mismatches, max_over, violations, tolerance)


@pytest.mark.parametrize("tolerance", [verify.DEFAULT_TOLERANCE, 0.0])
def test_run_verify_matches_the_frozen_sweep(tolerance):
    for seed in range(50):
        report, recount = run_verify(200, seed, tolerance), _recount(200, seed, tolerance)
        assert report == recount, seed
        assert repr(report.max_overestimate) == repr(recount.max_overestimate), seed


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
def test_run_verify_refuses_a_non_finite_or_negative_tolerance(tolerance):
    with pytest.raises(ValueError, match=r"^tolerance must be finite and at least 0: "):
        run_verify(200, 7, tolerance)


FIRST = [0.1, 0.1, 0.3, 0.1, 0.1, 0.3]
SECOND = [0.0, 0.0, 0.2, 0.0, 0.0, 0.2]
# A thin second triangle (0, 0), (b, 0), (b/2, h) whose area, 1e-12 and one
# ulp, rounds to DEGENERATE_AREA once its x coordinates are pushed along X.
_B, _H, _U = 0.6199492873699654, 3.226070326630549e-12, 0.922324996665417
CROSSING = [0.0, 0.0, _B, 0.0, _B / 2, _H]

SCRIPTS = {
    # Collinear vertices have area 0, so the first draw is redrawn.
    "collinear-first": [0.1, 0.1, 0.2, 0.2, 0.3, 0.3] + FIRST + SECOND + [0.25, 0.5],
    # Clockwise draws are returned with v1 and v2 swapped.
    "clockwise": [0.1, 0.1, 0.1, 0.3, 0.3, 0.1] + [0.0, 0.0, 0.0, 0.2, 0.2, 0.0] + [0.25, 0.5],
    # Pushed by its diameter alone, the second box still overlaps the first's
    # x extent [0.1, 0.9], so the second triangle and the push are redrawn.
    "overlap-redrawn": [0.1, 0.1, 0.9, 0.1, 0.1, 0.3] + SECOND + [0.25, 0.0] + SECOND + [0.25, 0.9],
    "y-axis": FIRST + SECOND + [0.75, 0.5],
    "degenerate-after-push": FIRST + CROSSING + [0.25, _U],
}


# The draws that each script's pair is built from: the first triangle, the
# second before its push, the axis of the push and its uniform draw u.
ACCEPTED = {
    "collinear-first": (FIRST, SECOND, "x", 0.5),
    "clockwise": ([0.1, 0.1, 0.1, 0.3, 0.3, 0.1], [0.0, 0.0, 0.0, 0.2, 0.2, 0.0], "x", 0.5),
    "overlap-redrawn": ([0.1, 0.1, 0.9, 0.1, 0.1, 0.3], SECOND, "x", 0.9),
    "y-axis": (FIRST, SECOND, "y", 0.5),
    "degenerate-after-push": (FIRST, CROSSING, "x", _U),
}


def _accepted_pair(first, second, axis, u):
    """The pair the generator defines: the second triangle pushed along the
    axis by its diameter plus uniform(0, 2), which is 2u."""
    a, b = (Triangle(Point2(*c[0:2]), Point2(*c[2:4]), Point2(*c[4:6])) for c in (first, second))
    push = max(math.hypot(p.x - q.x, p.y - q.y) for p, q in itertools.combinations(b.vertices, 2)) + 2.0 * u
    if axis == "x":
        return a, b.translated(push, 0.0), Vector2(1.0, 0.0)
    return a, b.translated(0.0, push), Vector2(0.0, 1.0)


@pytest.mark.parametrize("name", SCRIPTS)
def test_scripted_draws_match_the_frozen_generator(name):
    draws = SCRIPTS[name]
    rng = _Scripted(draws)
    pair = random_separated_pair(rng)
    assert _pair_bits(pair) == _pair_bits(_accepted_pair(*ACCEPTED[name]))
    assert rng.used == len(draws)
    a, b, velocity = pair
    if name == "clockwise":
        assert (a.v1, a.v2) == (Point2(0.3, 0.1), Point2(0.1, 0.3))
        assert (b.v1, b.v2) == (Point2(0.2 + b.v0.x, 0.0), Point2(b.v0.x, 0.2))
    assert (velocity.dx, velocity.dy) == ((0.0, 1.0) if name == "y-axis" else (1.0, 0.0))
    assert b.is_degenerate == (name == "degenerate-after-push")


def test_random_ring_rejects_exactly_the_draws_triangle_flags_degenerate():
    # Each case in both windings, then one clearly non-degenerate draw.
    for t in _degeneracy_cases():
        v0, v1, v2 = t.vertices
        for order in ((v0, v1, v2), (v0, v2, v1)):
            drawn = Triangle(*order)
            rng = _Scripted([c for v in order for c in (v.x, v.y)] + FIRST)
            coords = verify._random_coords(rng)
            if drawn.is_degenerate:
                first = (0.1, 0.1, 0.3, 0.1, 0.1, 0.3)
                assert rng.used == 12 and coords == first
            else:
                assert rng.used == 6 and coords == _coords(drawn)


def test_a_second_triangle_degenerate_after_its_push_is_refused_by_both_sweeps(monkeypatch):
    draws = SCRIPTS["degenerate-after-push"]
    x0, y0, x1, y1, x2, y2 = CROSSING
    assert not Triangle(Point2(x0, y0), Point2(x1, y1), Point2(x2, y2)).is_degenerate
    # Both the sweep and its recount through the public queries.
    monkeypatch.setattr(random, "Random", lambda seed: _Scripted(draws))
    for sweep in (run_verify, _recount):
        with pytest.raises(DegenerateInput):
            sweep(1, 0, verify.DEFAULT_TOLERANCE)


def test_run_verify_builds_no_triangle_point_or_answer(monkeypatch):
    # Nor counters: DyOP's and the oracle's kernels return shared ones. A
    # profile hook counts the calls of tuple.__new__, which _answer, GJK
    # and Lin-Canny build their tuples with.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def profile(frame, event, arg):
        if event == "c_call" and arg is tuple.__new__:
            calls["tuple.__new__"] += 1

    monkeypatch.setattr(Triangle, "__post_init__", counting("Triangle", Triangle.__post_init__))
    monkeypatch.setattr(Point2, "__new__", staticmethod(counting("Point2", Point2.__new__)))
    monkeypatch.setattr(TestCounters, "__new__", staticmethod(counting("TestCounters", TestCounters.__new__)))
    answer = counting("_answer", geometry._answer)
    monkeypatch.setattr(geometry, "_answer", answer)
    monkeypatch.setattr(dyop, "_answer", answer)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_verify(200, 7)
        assert calls == Counter()
        # The counters count: one public pair, one public query and one
        # counters object use them all.
        a, b, _ = random_separated_pair(random.Random(7))
        brute_force_triangle_distance(a, b)
        TestCounters(0, 0, 1)
    finally:
        sys.setprofile(previous)
    assert set(calls) == {"Triangle", "Point2", "_answer", "TestCounters", "tuple.__new__"}


def test_run_verify_counts_a_pruned_distance_below_the_oracle(monkeypatch):
    # DyOP can only overestimate, so its kernel never answers below the
    # oracle. One patched to answer the oracle's distance less 1e-6, less
    # 1e-13 and plus 0.25 on three trials is counted: two violations, since
    # any answer below the oracle's is one, two mismatches beyond the 1e-9
    # tolerance, and a maximum overestimate of 0.25.
    shifts = iter([-1e-6, -1e-13, 0.25])

    def pruned(a, b, axis):
        return (geometry._brute_force(a, b)[0] + next(shifts),)

    monkeypatch.setattr(verify, "_dyop", pruned)
    report = run_verify(3, 1)
    assert (report.trials, report.conservative_violations, report.mismatches) == (3, 2, 2)
    assert report.max_overestimate == pytest.approx(0.25, abs=1e-15)
