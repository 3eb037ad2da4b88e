"""Seeded inputs for the benchmark's three workloads.

Each workload function takes the imported ``dyop2d`` package and the workload seed
and returns the groups of queries the measuring loop runs. Building is
the benchmark's set-up: it calls the program only through its public
entry points (``default_scene``, ``place_pair``, ``random_separated_pair``,
``Triangle``, ``Point2``, ``Vector2``) and pairs every input with the
frozen oracle's exact distance, so that no timed query ever waits on a
reference answer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from time import perf_counter_ns

import frozen_oracle

# Placement promises the configured separation to this accuracy.
PLACEMENT_TOLERANCE = 1e-9

# random-verify: VERIFY_CHUNKS calls of run_verify(VERIFY_CHUNK_TRIALS, chunk_seed).
# Its 12000 pairs keep the seed-to-seed spread of the DyOP mismatch rate
# (about 7% of pairs) near 6% of its value. One chunk in VERIFY_QUERIED_EVERY
# also has its pairs queried one by one, to time each algorithm and to
# check run_verify's mismatch count against the frozen oracle.
VERIFY_CHUNKS = 120
VERIFY_CHUNK_TRIALS = 100
VERIFY_QUERIED_EVERY = 4

# coherent-sweep: many short trajectories rather than a few long ones,
# because consecutive frames share their pruning outcome and only
# independent trajectories shrink the spread of the mismatch rate.
SWEEP_TRAJECTORIES = 1000
SWEEP_FRAMES = 12
SWEEP_STEP = 0.05
SWEEP_MAX_ANGLE = 0.6  # radians off the x axis; keeps x the dominant axis
SWEEP_REACH = 1.6  # frames start up to this far before or after the static triangle
SWEEP_LATERAL = 1.0  # sideways offset of the path from the static triangle
SWEEP_MIN_AREA = 1e-3  # redraw slivers, far above the cut-off where DyOP and the baselines refuse a triangle


Coords = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


@dataclass
class Item:
    """One query input: two dyop2d triangles, DyOP's relative velocity, and the exact answer."""

    a: object
    b: object
    v: object
    coords_a: Coords
    coords_b: Coords
    ref: float  # frozen-oracle distance


@dataclass
class Group:
    """Items queried back to back.

    ``verify_seed`` marks a random-verify chunk, timed as
    ``run_verify(verify_trials, verify_seed)``; its items, when present,
    are the pairs that call draws. ``seeded`` marks a coherent-sweep
    trajectory, where Lin-Canny starts from the previous frame's witness
    pair.
    """

    items: list[Item]
    verify_seed: int | None = None
    verify_trials: int = 0
    seeded: bool = False


@dataclass
class Inputs:
    groups: list[Group]
    # Program outputs produced during set-up that failed their check.
    failures: list[str] = field(default_factory=list)
    checks: int = 0


class SetupHooks:
    """What a workload function does around its program calls; by default, nothing."""

    def call(self, name: str, fn, *args):
        return fn(*args)

    def tick(self) -> None:
        """Called after each input is built."""


class SetupTrace(SetupHooks):
    """Records a span around each program call made during set-up."""

    def __init__(self, tracer, parent: int) -> None:
        self.tracer = tracer
        self.parent = parent

    def call(self, name: str, fn, *args):
        t0 = perf_counter_ns()
        out = fn(*args)
        self.tracer.add(name, self.parent, -1, t0, perf_counter_ns())
        return out


def _item(a, b, v) -> Item:
    ca, cb = (tuple((p.x, p.y) for p in tri.vertices) for tri in (a, b))
    return Item(a, b, v, ca, cb, frozen_oracle.distance(ca, cb))


def paper_scene(lib, seed: int, hooks: SetupHooks = SetupHooks()) -> Inputs:
    """All 90 ordered pairs of the default scene, placed at the scene's separation.

    The scene is fixed, so the seed only orders the passes.
    """
    scene = lib.default_scene()
    n = len(scene.objects)
    inputs = Inputs([])
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b, v = hooks.call("benchmark.place_pair", lib.place_pair, scene, (i, j))
            item = _item(a, b, v)
            inputs.checks += 1
            if abs(item.ref - scene.separation) > PLACEMENT_TOLERANCE:
                inputs.failures.append(
                    f"place_pair({i}, {j}) placed at {item.ref!r}, not {scene.separation!r}"
                )
            inputs.groups.append(Group([item]))
            hooks.tick()
    return inputs


def random_verify(lib, seed: int, hooks: SetupHooks = SetupHooks()) -> Inputs:
    """Chunks of run_verify; every VERIFY_QUERIED_EVERY-th one with its pairs regenerated."""
    rng = random.Random(seed)
    inputs = Inputs([])
    for c in range(VERIFY_CHUNKS):
        chunk_seed = rng.getrandbits(32)
        items = []
        if c % VERIFY_QUERIED_EVERY == 0:
            # run_verify seeds random.Random(chunk_seed) and draws one pair per trial.
            pair_rng = random.Random(chunk_seed)
            for _ in range(VERIFY_CHUNK_TRIALS):
                items.append(_item(*hooks.call("verify.pair_gen", lib.random_separated_pair, pair_rng)))
                hooks.tick()
        inputs.groups.append(Group(items, verify_seed=chunk_seed, verify_trials=VERIFY_CHUNK_TRIALS))
    return inputs


def _random_coords(rng: random.Random) -> Coords:
    while True:
        c = tuple((rng.random(), rng.random()) for _ in range(3))
        (x0, y0), (x1, y1), (x2, y2) = c
        if abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)) > 2.0 * SWEEP_MIN_AREA:
            return c


def _triangle(lib, c: Coords):
    return lib.Triangle(lib.Point2(*c[0]), lib.Point2(*c[1]), lib.Point2(*c[2]))


def coherent_sweep(lib, seed: int, hooks: SetupHooks = SetupHooks()) -> Inputs:
    """Short trajectories of a mover stepping past a static triangle.

    Each trajectory draws a static and a mover triangle in the unit box,
    a heading within SWEEP_MAX_ANGLE of the x axis, a sideways offset and
    a start point, then takes SWEEP_FRAMES steps of SWEEP_STEP. Frames in
    which the triangles overlap are dropped, since Lin-Canny and DyOP
    answer only for disjoint shapes.
    """
    rng = random.Random(seed)
    inputs = Inputs([])
    for _ in range(SWEEP_TRAJECTORIES):
        static = _random_coords(rng)
        mover = _random_coords(rng)
        mx = sum(p[0] for p in mover) / 3.0
        my = sum(p[1] for p in mover) / 3.0
        sx = sum(p[0] for p in static) / 3.0
        sy = sum(p[1] for p in static) / 3.0
        theta = rng.uniform(-SWEEP_MAX_ANGLE, SWEEP_MAX_ANGLE)
        ux, uy = math.cos(theta), math.sin(theta)
        lateral = rng.uniform(-SWEEP_LATERAL, SWEEP_LATERAL)
        along = rng.uniform(-SWEEP_REACH, SWEEP_REACH - SWEEP_FRAMES * SWEEP_STEP)
        b = _triangle(lib, static)
        v = lib.Vector2(ux, uy)
        items = []
        for k in range(SWEEP_FRAMES):
            s = along + k * SWEEP_STEP
            dx = sx - mx + ux * s - uy * lateral
            dy = sy - my + uy * s + ux * lateral
            ca = tuple((x + dx, y + dy) for x, y in mover)
            ref = frozen_oracle.distance(ca, static)
            if ref == 0.0:
                continue
            items.append(Item(_triangle(lib, ca), b, v, ca, static, ref))
            hooks.tick()
        if items:
            inputs.groups.append(Group(items, seeded=True))
    return inputs


WORKLOADS = {
    "paper-scene": paper_scene,
    "random-verify": random_verify,
    "coherent-sweep": coherent_sweep,
}


def fingerprint(inputs: Inputs) -> int:
    """A digest of everything a build produced, to show repeated set-ups agree."""
    return hash(
        tuple(
            (g.verify_seed, g.verify_trials, g.seeded, tuple((it.coords_a, it.coords_b, it.ref) for it in g.items))
            for g in inputs.groups
        )
    )
