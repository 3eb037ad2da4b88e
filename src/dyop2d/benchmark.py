"""Benchmark protocol: named triangles, all ordered pairings, fixed separation.

A scene holds n named triangles; the plan runs every ordered pair
(mover, static) once, n*(n-1) queries total. Before each query the mover
is translated along the negative movement axis, by an offset found in
closed form, until the exact distance is the scene's separation, so every
algorithm answers the same question. The offset kernel, ``_offset``, is
straight-line code on the two triangles' coordinates, in range as every
kernel's are (``geometry._pair`` scales a pair past 2^510 into range
first): it
computes each of the 9 vertex-vertex disk exits and each of the 18
vertex-edge strip crossings once, each edge's direction, slope and
length once, and keeps a running maximum. Wall times use a monotonic clock
(one warm-up, median of the repeats); primitive-test counters are
recorded alongside as the machine-independent cost metric.

Each record is the JSON object the ``bench`` command writes, from
measurement on: a dict keyed by CSV_COLUMNS, in that order. A failed
record carries an "error:<kind>" flag (record_failed), distance None and
zero counters. write_records_csv is the one CSV writer, for the records
and for the ``plot`` series.

ALGORITHMS maps each algorithm name to its query. build_report turns the
records into the comparison report as the JSON document the ``bench``
command writes: each baseline's time as a percentage of DyOP's, per pair
and summarized, and the counter totals per algorithm. Only the oracle
counts in DyOP's unit, the ee test, so ``counter_pct`` holds the oracle
alone.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .baselines import gjk_distance, lin_canny_distance
from .dyop import MovementAxis, dyop_distance
from .errors import IncompleteRecords, Penetrating, PlacementFailure
from .geometry import (
    DistanceResult,
    Point2,
    Triangle,
    Vector2,
    _Coords,
    _pair,
    brute_force_triangle_distance,
)

# Each entry looks its function up when called, so patching the
# module-level name reaches every query.
ALGORITHMS: dict[str, Callable[[Triangle, Triangle, Vector2], DistanceResult]] = {
    "dyop": lambda mover, static, velocity: dyop_distance(mover, static, velocity),
    "gjk": lambda mover, static, velocity: gjk_distance(mover, static),
    "lincanny": lambda mover, static, velocity: lin_canny_distance(mover, static)[0],
    "oracle": lambda mover, static, velocity: brute_force_triangle_distance(mover, static),
}
DEFAULT_ALGORITHMS = ("dyop", "gjk", "lincanny")
# What an algorithm may raise on a pair: DegenerateInput, ZeroVelocity,
# ZeroDirection and a non-finite witness are ValueErrors.
ALGORITHM_ERRORS = (ValueError, Penetrating)
# Both tolerances are fractions of the scene separation, so a scene scaled
# by any factor that its coordinates survive places and checks alike.
MISMATCH_TOLERANCE = 1e-6
PLACEMENT_TOLERANCE = 1e-9
CSV_COLUMNS = (
    "pair_a",
    "pair_b",
    "algorithm",
    "median_ns",
    "vv_tests",
    "ve_tests",
    "ee_tests",
    "distance",
    "flags",
)


@dataclass(frozen=True)
class Scene:
    """Named triangles plus the separation and movement axis used for placement."""

    objects: tuple[Triangle, ...]
    separation: float
    axis: MovementAxis

    def __post_init__(self) -> None:
        if not self.objects:
            raise ValueError("scene needs at least one object")
        names = [t.name for t in self.objects]
        if any(not n for n in names):
            raise ValueError("every scene object needs a name")
        if len(set(names)) != len(names):
            duplicate = next(n for k, n in enumerate(names) if n in names[:k])
            raise ValueError(f"duplicate object name: {duplicate}")
        if not self.separation > 0.0:
            raise ValueError(f"separation must be positive: {self.separation}")


def enumerate_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All ordered pairs (mover, static) without self-pairs, in row-major order."""
    if n < 1:
        raise ValueError(f"object count must be at least 1: {n}")
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def _tri(name: str, a: tuple[float, float], b: tuple[float, float], c: tuple[float, float]) -> Triangle:
    return Triangle(Point2(*a), Point2(*b), Point2(*c), name)


def default_scene() -> Scene:
    """The checked-in ten-object scene: varied shapes, scales 0.5 to 4 units."""
    return Scene(
        objects=(
            _tri("Obj1", (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
            _tri("Obj2", (0.0, 0.0), (2.0, 0.0), (1.0, 1.7320508075688772)),
            _tri("Obj3", (0.0, 0.0), (3.0, 0.0), (2.6, 0.8)),
            _tri("Obj4", (0.0, 0.0), (4.0, 0.0), (2.0, 0.15)),
            _tri("Obj5", (0.0, 0.0), (0.5, 0.0), (0.22, 0.45)),
            _tri("Obj6", (0.0, 0.0), (1.2, 0.0), (0.3, 3.5)),
            _tri("Obj7", (0.0, 0.0), (2.5, 0.0), (0.0, 1.5)),
            _tri("Obj8", (0.0, 0.0), (3.8, 0.0), (3.1, 1.0)),
            _tri("Obj9", (0.0, 0.0), (0.8, 0.0), (0.4, 0.6928203230275509)),
            _tri("Obj10", (0.0, 0.0), (1.8, 0.3), (0.5, 1.6)),
        ),
        separation=1.0,
        axis=MovementAxis.X,
    )


def _offset(a: _Coords, b: _Coords, ux: float, uy: float, r: float) -> float:
    """Largest t at which the mover A, translated by -t*u, is within r of
    the static triangle B; -inf when no t is. The coordinates and r are in
    range, at most 2^510 in magnitude.

    u is (1, 0) or (0, 1), so u.u is exactly 1 and a disk exit needs no
    division. The points within r of an edge are the disks of radius r
    around its ends and the strip of half-width r along it, so t is the
    last exit of a mover vertex, moving along -u, from a disk around a
    static vertex or from a static edge's strip, or of a static vertex,
    moving along +u, from a mover edge's strip. That is 9 disk exits and
    18 strip crossings, each computed once: a static vertex leaves the
    disk around a mover vertex where that vertex leaves its own, since w
    and u both change sign and the cross and dot products keep their
    floats. Each edge's direction and slope are computed once, and its
    squared length and r * sqrt of it once where the slope is not zero,
    as only then does it have crossings. A crossing counts only between
    the edge's ends. Ties keep the first exit in the order of the
    18 vertex-edge pairs (mover vertices against static edges, then static
    vertices against mover edges; an edge's end disks before its strip),
    so a zero offset keeps that exit's sign.
    """
    sqrt, copysign = math.sqrt, math.copysign
    ax0, ay0, ax1, ay1, ax2, ay2 = a
    bx0, by0, bx1, by1, bx2, by2 = b
    nx, ny = -ux, -uy
    rr = r * r
    # Each edge's direction, its slope against the direction its crossing
    # vertices move in, and, where it crosses, its squared length and the
    # strip's half-width scaled by its length.
    ex0, ey0 = bx1 - bx0, by1 - by0
    es0 = ex0 * ny - ey0 * nx
    if es0 != 0.0:
        ed0 = ex0 * ex0 + ey0 * ey0
        eh0 = copysign(r * sqrt(ed0), es0)
    ex1, ey1 = bx2 - bx1, by2 - by1
    es1 = ex1 * ny - ey1 * nx
    if es1 != 0.0:
        ed1 = ex1 * ex1 + ey1 * ey1
        eh1 = copysign(r * sqrt(ed1), es1)
    ex2, ey2 = bx0 - bx2, by0 - by2
    es2 = ex2 * ny - ey2 * nx
    if es2 != 0.0:
        ed2 = ex2 * ex2 + ey2 * ey2
        eh2 = copysign(r * sqrt(ed2), es2)
    fx0, fy0 = ax1 - ax0, ay1 - ay0
    fs0 = fx0 * uy - fy0 * ux
    if fs0 != 0.0:
        fd0 = fx0 * fx0 + fy0 * fy0
        fh0 = copysign(r * sqrt(fd0), fs0)
    fx1, fy1 = ax2 - ax1, ay2 - ay1
    fs1 = fx1 * uy - fy1 * ux
    if fs1 != 0.0:
        fd1 = fx1 * fx1 + fy1 * fy1
        fh1 = copysign(r * sqrt(fd1), fs1)
    fx2, fy2 = ax0 - ax2, ay0 - ay2
    fs2 = fx2 * uy - fy2 * ux
    if fs2 != 0.0:
        fd2 = fx2 * fx2 + fy2 * fy2
        fh2 = copysign(r * sqrt(fd2), fs2)
    best = -math.inf
    for px, py in ((ax0, ay0), (ax1, ay1), (ax2, ay2)):
        wx, wy = px - bx0, py - by0
        c = nx * wy - ny * wx
        disc = rr - c * c
        if disc >= 0.0:
            t = sqrt(disc) - (nx * wx + ny * wy)
            if t > best:
                best = t
        wx, wy = px - bx1, py - by1
        c = nx * wy - ny * wx
        disc = rr - c * c
        if disc >= 0.0:
            t = sqrt(disc) - (nx * wx + ny * wy)
            if t > best:
                best = t
        if es0 != 0.0:
            t = (eh0 - ex0 * (py - by0) + ey0 * (px - bx0)) / es0
            if t > best and 0.0 <= ex0 * (px + t * nx - bx0) + ey0 * (py + t * ny - by0) <= ed0:
                best = t
        wx, wy = px - bx2, py - by2
        c = nx * wy - ny * wx
        disc = rr - c * c
        if disc >= 0.0:
            t = sqrt(disc) - (nx * wx + ny * wy)
            if t > best:
                best = t
        if es1 != 0.0:
            t = (eh1 - ex1 * (py - by1) + ey1 * (px - bx1)) / es1
            if t > best and 0.0 <= ex1 * (px + t * nx - bx1) + ey1 * (py + t * ny - by1) <= ed1:
                best = t
        if es2 != 0.0:
            t = (eh2 - ex2 * (py - by2) + ey2 * (px - bx2)) / es2
            if t > best and 0.0 <= ex2 * (px + t * nx - bx2) + ey2 * (py + t * ny - by2) <= ed2:
                best = t
    for qx, qy in ((bx0, by0), (bx1, by1), (bx2, by2)):
        if fs0 != 0.0:
            t = (fh0 - fx0 * (qy - ay0) + fy0 * (qx - ax0)) / fs0
            if t > best and 0.0 <= fx0 * (qx + t * ux - ax0) + fy0 * (qy + t * uy - ay0) <= fd0:
                best = t
        if fs1 != 0.0:
            t = (fh1 - fx1 * (qy - ay1) + fy1 * (qx - ax1)) / fs1
            if t > best and 0.0 <= fx1 * (qx + t * ux - ax1) + fy1 * (qy + t * uy - ay1) <= fd1:
                best = t
        if fs2 != 0.0:
            t = (fh2 - fx2 * (qy - ay2) + fy2 * (qx - ax2)) / fs2
            if t > best and 0.0 <= fx2 * (qx + t * ux - ax2) + fy2 * (qy + t * uy - ay2) <= fd2:
                best = t
    return best


def place_pair(
    scene: Scene, pair: tuple[int, int]
) -> tuple[Triangle, Triangle, Vector2]:
    """Translate the mover along the negative axis until the exact distance
    equals the scene separation s; the static object keeps its canonical pose.

    The offset is the largest at which the distance is at most s. No
    vertex-edge pair is nearer than the triangles and one realizes s > 0
    there, so it is the last exit, over the 18 pairs, of a vertex moving
    along the axis from the band of radius s around an edge of the other
    triangle. ``_offset`` finds it from 9 disk exits and 18 strip
    crossings, each computed once; a pair with a coordinate or a
    separation past 2^510 is searched scaled into range by one power of
    two, and its offset scaled back. One oracle call checks it to
    PLACEMENT_TOLERANCE * s. A pair that cannot be placed, or whose placed
    coordinates leave the float range, raises PlacementFailure naming it.
    """
    i, j = pair
    n = len(scene.objects)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError(f"invalid pair: {pair}")
    mover, static, s = scene.objects[i], scene.objects[j], scene.separation
    ux, uy = (1.0, 0.0) if scene.axis is MovementAxis.X else (0.0, 1.0)
    try:
        a, b, f = _pair(mover, static, length=s)
        offset = _offset(a, b, ux, uy, s * f) / f
        if offset == -math.inf:
            raise PlacementFailure(
                f"pair {mover.name}->{static.name} cannot reach separation {s} along {scene.axis.value}"
            )
        moved = mover.translated(-offset, 0.0) if ux else mover.translated(0.0, -offset)
        gap = brute_force_triangle_distance(moved, static).distance - s
    except ValueError as exc:
        # A pair too wide to scale into range, or an offset or a placed
        # coordinate past the float range.
        raise PlacementFailure(f"pair {mover.name}->{static.name} cannot be placed: {exc}") from exc
    if abs(gap) > PLACEMENT_TOLERANCE * s:
        raise PlacementFailure(f"pair {mover.name}->{static.name} placed {gap:+.3g} off separation {s}")
    return moved, static, Vector2(ux, uy)


def run_benchmark(
    scene: Scene,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    repeats: int = 1000,
) -> list[dict]:
    """Time every algorithm on every ordered pair of the scene.

    Per (pair, algorithm): one untimed warm-up, then ``repeats`` timed
    runs on the monotonic clock, keeping the median. Each record is the
    JSON object ``bench`` writes, keyed by CSV_COLUMNS in that order, with
    the flags as a list. Distances and counters are deterministic; a
    record whose distance strays more than MISMATCH_TOLERANCE times the
    exact value from it is flagged "mismatch", and an algorithm error (one
    of ALGORITHM_ERRORS) produces a record flagged "error:<kind>", with
    distance None and zero counters, instead of aborting the run. The exact
    value is the scene separation s, which place_pair has checked against
    the oracle to PLACEMENT_TOLERANCE * s.

    The plan is checked before any pair is placed: an empty, unknown or
    repeated algorithm, then repeats below 1, then a scene of fewer than
    two objects, which has no pair, raise ValueError.
    """
    if not algorithms:
        raise ValueError("no algorithm given")
    for k, algorithm in enumerate(algorithms):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {algorithm} (choose from {', '.join(ALGORITHMS)})")
        if algorithm in algorithms[:k]:
            raise ValueError(f"repeated algorithm: {algorithm}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1: {repeats}")
    if len(scene.objects) < 2:
        raise ValueError(f"a scene needs at least two objects to benchmark: it has {len(scene.objects)}")

    records: list[dict] = []
    for i, j in enumerate_pairs(len(scene.objects)):
        moving, static, velocity = place_pair(scene, (i, j))
        names = (scene.objects[i].name, scene.objects[j].name)
        for algorithm in algorithms:
            query = ALGORITHMS[algorithm]
            begin = time.perf_counter_ns()
            try:
                result = query(moving, static, velocity)
            except ALGORITHM_ERRORS as exc:
                median_ns = float(max(time.perf_counter_ns() - begin, 1))
                counts, distance, flags = (0, 0, 0), None, [f"error:{type(exc).__name__}"]
            else:
                times = []
                for _ in range(repeats):
                    t0 = time.perf_counter_ns()
                    result = query(moving, static, velocity)
                    times.append(time.perf_counter_ns() - t0)
                median_ns = float(statistics.median(times))
                c = result.counters
                counts = (c.vv_tests, c.ve_tests, c.ee_tests)
                distance, flags = result.distance, list(result.flags)
                if abs(distance - scene.separation) > MISMATCH_TOLERANCE * scene.separation:
                    flags.append("mismatch")
            values = (*names, algorithm, median_ns, *counts, distance, flags)
            records.append(dict(zip(CSV_COLUMNS, values)))
    return records


def record_failed(record: dict) -> bool:
    """True for a record whose algorithm raised: it carries an "error:" flag."""
    return any(f.startswith("error:") for f in record["flags"])


def _csv_cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(value)
    return value


def write_records_csv(path: str, header: tuple[str, ...], rows: Iterable[Iterable]) -> None:
    """The header, then one line per row; a None cell is written empty and a
    list cell as its items joined by ';'."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def percentage_diff(t_baseline: float, t_dyop: float) -> float:
    """Baseline time as a percentage of the pruned algorithm's time."""
    if not (t_baseline > 0.0 and t_dyop > 0.0):
        raise ValueError("times must be positive")
    return t_baseline / t_dyop * 100.0


def build_report(records: list[dict]) -> dict:
    """Aggregate timing records into the baseline-vs-pruned comparison.

    The report is the JSON document ``bench`` writes: per-pair ratios
    (pct) and differences (delta_pct = pct - 100) of each baseline's time
    against the pruned algorithm's, their max/min/mean per baseline,
    counter totals per algorithm, the oracle's counter total over DyOP's,
    and the mismatch and failure counts.

    Requires a successful pruned-algorithm record for every pair and at
    least one baseline algorithm; raises IncompleteRecords otherwise.
    Failed records are counted but excluded from percentages.
    """
    by_pair: dict[tuple[str, str], dict[str, dict]] = {}
    for r in records:
        by_pair.setdefault((r["pair_a"], r["pair_b"]), {})[r["algorithm"]] = r

    baselines = sorted({r["algorithm"] for r in records if r["algorithm"] != "dyop"})
    if not baselines:
        raise IncompleteRecords("a baseline algorithm is required for comparison")
    for pair, group in by_pair.items():
        rec = group.get("dyop")
        if rec is None or record_failed(rec):
            raise IncompleteRecords(f"missing dyop record for pair {pair}")

    pairs: list[dict] = []
    pct_by_baseline: dict[str, list[float]] = {b: [] for b in baselines}
    for (pair_a, pair_b), group in by_pair.items():
        dyop_ns = group["dyop"]["median_ns"]
        baseline_ns: dict[str, float] = {}
        pct: dict[str, float] = {}
        delta: dict[str, float] = {}
        for b in baselines:
            rec = group.get(b)
            if rec is None or record_failed(rec):
                continue
            baseline_ns[b] = rec["median_ns"]
            ratio = percentage_diff(rec["median_ns"], dyop_ns)
            pct[b] = ratio
            delta[b] = ratio - 100.0
            pct_by_baseline[b].append(ratio)
        pairs.append(
            {
                "pair_a": pair_a,
                "pair_b": pair_b,
                "dyop_ns": dyop_ns,
                "baseline_ns": baseline_ns,
                "pct": pct,
                "delta_pct": delta,
            }
        )

    summary = {
        b: {"max_pct": max(vals), "min_pct": min(vals), "mean_pct": statistics.fmean(vals)}
        for b, vals in pct_by_baseline.items()
        if vals
    }
    if not summary:
        raise IncompleteRecords("no successful baseline records to compare")

    counter_totals: dict[str, dict[str, int]] = {}
    for r in records:
        if record_failed(r):
            continue
        tot = counter_totals.setdefault(
            r["algorithm"], {"vv_tests": 0, "ve_tests": 0, "ee_tests": 0, "total": 0}
        )
        for key in ("vv_tests", "ve_tests", "ee_tests"):
            tot[key] += r[key]
            tot["total"] += r[key]

    # GJK counts simplex solves and Lin-Canny walk steps, so only the
    # oracle's total shares DyOP's unit, the ee test.
    dyop_total = counter_totals["dyop"]["total"]
    oracle_total = counter_totals.get("oracle", {}).get("total", 0)
    counter_pct: dict[str, float] = {}
    if dyop_total and oracle_total:
        counter_pct["oracle"] = oracle_total / dyop_total * 100.0

    return {
        "pairs": pairs,
        "summary": summary,
        "counter_totals": counter_totals,
        "counter_pct": counter_pct,
        "mismatches": sum(1 for r in records if "mismatch" in r["flags"]),
        "failed": sum(1 for r in records if record_failed(r)),
    }
