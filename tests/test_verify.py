"""The verify sweep against a frozen copy of its object-based original.

``run_verify`` draws each pair as flat coordinates and answers it through
the oracle's and DyOP's kernels; ``random_separated_pair`` builds the same
draw into ``Triangle``s. Both must match ``seed_reference``'s copies of the
sweep, which build every pair through ``Triangle`` and answer it with whole
queries: the same triangles from the same draws, the same report, and the
same exceptions.
"""

import math
import random
import types
from collections import Counter

import pytest

import seed_reference as ref
from dyop2d import dyop, geometry, verify
from dyop2d.errors import DegenerateInput
from dyop2d.geometry import Point2, Triangle, brute_force_triangle_distance
from dyop2d.verify import random_separated_pair, run_verify
from test_equivalence import _coords
from test_geometry import _degeneracy_cases


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


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_separated_pairs_and_rng_state_match_the_frozen_generator(seed):
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    for _ in range(5000):
        assert _pair_bits(random_separated_pair(new_rng)) == _pair_bits(ref.random_separated_pair(old_rng))
    assert new_rng.getstate() == old_rng.getstate()


@pytest.mark.parametrize("tolerance", [verify.DEFAULT_TOLERANCE, 0.0])
def test_run_verify_matches_the_frozen_sweep(tolerance):
    for seed in range(50):
        new, old = run_verify(200, seed, tolerance), ref.run_verify(200, seed, tolerance)
        assert new == old, seed
        assert repr(new.max_overestimate) == repr(old.max_overestimate), seed


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


@pytest.mark.parametrize("name", SCRIPTS)
def test_scripted_draws_match_the_frozen_generator(name):
    draws = SCRIPTS[name]
    new_rng, old_rng = _Scripted(draws), _Scripted(draws)
    new = random_separated_pair(new_rng)
    assert _pair_bits(new) == _pair_bits(ref.random_separated_pair(old_rng))
    assert new_rng.used == old_rng.used == len(draws)
    a, b, velocity = new
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
    for module in (verify, ref):
        monkeypatch.setattr(module, "random", types.SimpleNamespace(Random=lambda seed: _Scripted(draws)))
        with pytest.raises(DegenerateInput):
            module.run_verify(1, 0)


def test_run_verify_builds_no_triangle_point_or_answer(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Triangle, "__post_init__", counting("Triangle", Triangle.__post_init__))
    monkeypatch.setattr(Point2, "__post_init__", counting("Point2", Point2.__post_init__))
    answer = counting("_answer", geometry._answer)
    monkeypatch.setattr(geometry, "_answer", answer)
    monkeypatch.setattr(dyop, "_answer", answer)
    run_verify(200, 7)
    assert calls == Counter()
    # The wrappers count: one public pair and one public query use all three.
    a, b, _ = random_separated_pair(random.Random(7))
    brute_force_triangle_distance(a, b)
    assert set(calls) == {"Triangle", "Point2", "_answer"}


def test_run_verify_counts_a_pruned_distance_below_the_oracle(monkeypatch):
    # DyOP can only overestimate, so its kernel never answers below the
    # oracle. One patched to answer the oracle's distance less 1e-6, less
    # 1e-13 (within CONSERVATIVE_SLACK) and plus 0.25 on three trials is
    # counted: one violation, two mismatches beyond the 1e-9 tolerance, and
    # a maximum overestimate of 0.25.
    shifts = iter([-1e-6, -1e-13, 0.25])

    def pruned(a, b, axis):
        return (verify._brute_force(a, b)[0] + next(shifts),)

    monkeypatch.setattr(verify, "_dyop", pruned)
    report = run_verify(3, 1)
    assert (report.trials, report.conservative_violations, report.mismatches) == (3, 1, 2)
    assert report.max_overestimate == pytest.approx(0.25, abs=1e-15)
