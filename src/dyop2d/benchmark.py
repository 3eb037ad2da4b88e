"""Benchmark protocol: named triangles, all ordered pairings, fixed separation.

A scene holds n named triangles; the plan runs every ordered pair
(mover, static) once, n*(n-1) queries total. Before each query the mover
is translated along the negative movement axis, by an offset found in
closed form, until the exact distance is the scene's separation, so every
algorithm answers the same question. Wall times use a monotonic clock
(one warm-up, median of the repeats); primitive-test counters are
recorded alongside as the machine-independent cost metric.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass

from .baselines import gjk_distance, lin_canny_distance
from .dyop import MovementAxis, dyop_distance
from .errors import (
    DegenerateInput,
    IncompleteRecords,
    Penetrating,
    PlacementFailure,
    ZeroVelocity,
)
from .geometry import (
    DistanceResult,
    Point2,
    TestCounters,
    Triangle,
    Vector2,
    _edges,
    _far_exit,
    brute_force_triangle_distance,
)

ALGORITHMS = ("dyop", "gjk", "lincanny", "oracle")
DEFAULT_ALGORITHMS = ("dyop", "gjk", "lincanny")
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
            raise ValueError("scene object names must be unique")
        if not self.separation > 0.0:
            raise ValueError(f"separation must be positive: {self.separation}")


@dataclass(frozen=True)
class PairingPlan:
    pairs: tuple[tuple[int, int], ...]


def enumerate_pairs(n: int) -> PairingPlan:
    """All ordered pairs (mover, static) without self-pairs, in row-major order."""
    if n < 1:
        raise ValueError(f"object count must be at least 1: {n}")
    return PairingPlan(
        tuple((i, j) for i in range(n) for j in range(n) if i != j)
    )


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


def place_pair(
    scene: Scene, pair: tuple[int, int]
) -> tuple[Triangle, Triangle, Vector2]:
    """Translate the mover along the negative axis until the exact distance
    equals the scene separation s; the static object keeps its canonical pose.

    The offset is the largest at which the distance is at most s. No
    vertex-edge pair is nearer than the triangles and one realizes s > 0
    there, so it is the last exit, over the 18 pairs, of a vertex moving
    along the axis from the band of radius s around an edge of the other
    triangle. One oracle call checks it to PLACEMENT_TOLERANCE.
    """
    i, j = pair
    n = len(scene.objects)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError(f"invalid pair: {pair}")
    mover, static, s = scene.objects[i], scene.objects[j], scene.separation
    ux, uy = (1.0, 0.0) if scene.axis is MovementAxis.X else (0.0, 1.0)
    edges_m, edges_s = _edges(mover), _edges(static)
    offset = max(
        [_far_exit(px, py, -ux, -uy, *e, s) for px, py, _, _ in edges_m for e in edges_s]
        + [_far_exit(qx, qy, ux, uy, *e, s) for qx, qy, _, _ in edges_s for e in edges_m]
    )
    label = f"pair {mover.name}->{static.name}"
    if offset == -math.inf:
        raise PlacementFailure(f"{label} cannot reach separation {s} along {scene.axis.value}")
    moved = mover.translated(-offset, 0.0) if ux else mover.translated(0.0, -offset)
    gap = brute_force_triangle_distance(moved, static).distance - s
    if abs(gap) > PLACEMENT_TOLERANCE:
        raise PlacementFailure(f"{label} placed {gap:+.3g} off separation {s}")
    return moved, static, Vector2(ux, uy)


@dataclass(frozen=True)
class TimingRecord:
    """One (pair, algorithm) measurement."""

    pair: tuple[str, str]
    algorithm: str
    median_ns: float
    counters: TestCounters
    distance: float | None
    flags: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return any(f.startswith("error:") for f in self.flags)


def _run_algorithm(
    algorithm: str, moving: Triangle, static: Triangle, velocity: Vector2
) -> DistanceResult:
    if algorithm == "dyop":
        return dyop_distance(moving, static, velocity)
    if algorithm == "gjk":
        return gjk_distance(moving, static)
    if algorithm == "lincanny":
        return lin_canny_distance(moving, static)[0]
    if algorithm == "oracle":
        return brute_force_triangle_distance(moving, static)
    raise ValueError(f"unknown algorithm: {algorithm}")


def run_benchmark(
    scene: Scene,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    repeats: int = 1000,
) -> list[TimingRecord]:
    """Time every algorithm on every ordered pair of the scene.

    Per (pair, algorithm): one untimed warm-up, then ``repeats`` timed
    runs on the monotonic clock, keeping the median. Distances and
    counters are deterministic; a record whose distance strays more than
    MISMATCH_TOLERANCE from the exact value is flagged "mismatch", and
    algorithm errors produce a record flagged "error:<kind>" instead of
    aborting the run.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1: {repeats}")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {algorithm}")

    plan = enumerate_pairs(len(scene.objects))
    records: list[TimingRecord] = []
    for i, j in plan.pairs:
        moving, static, velocity = place_pair(scene, (i, j))
        reference = brute_force_triangle_distance(moving, static).distance
        names = (scene.objects[i].name or "", scene.objects[j].name or "")
        for algorithm in algorithms:
            begin = time.perf_counter_ns()
            try:
                result = _run_algorithm(algorithm, moving, static, velocity)
            except (DegenerateInput, Penetrating, ZeroVelocity) as exc:
                elapsed = max(time.perf_counter_ns() - begin, 1)
                records.append(
                    TimingRecord(
                        names,
                        algorithm,
                        float(elapsed),
                        TestCounters(),
                        None,
                        (f"error:{type(exc).__name__}",),
                    )
                )
                continue
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                result = _run_algorithm(algorithm, moving, static, velocity)
                times.append(time.perf_counter_ns() - t0)
            flags = result.flags
            if abs(result.distance - reference) > MISMATCH_TOLERANCE:
                flags = flags + ("mismatch",)
            records.append(
                TimingRecord(
                    names,
                    algorithm,
                    float(statistics.median(times)),
                    result.counters,
                    result.distance,
                    flags,
                )
            )
    return records


def record_fields(r: TimingRecord) -> dict:
    """The record as JSON values keyed by CSV_COLUMNS; a failed record has distance None."""
    c = r.counters
    values = (
        r.pair[0],
        r.pair[1],
        r.algorithm,
        r.median_ns,
        c.vv_tests,
        c.ve_tests,
        c.ee_tests,
        r.distance,
        list(r.flags),
    )
    return dict(zip(CSV_COLUMNS, values))


def _csv_cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(value)
    return value


def write_records_csv(records: list[TimingRecord], path: str) -> None:
    """One row per record: the values of record_fields, with a missing distance
    written as an empty cell and the flags joined by ';'."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_csv_cell(v) for v in record_fields(r).values()])


def percentage_diff(t_baseline: float, t_dyop: float) -> float:
    """Baseline time as a percentage of the pruned algorithm's time."""
    if not (t_baseline > 0.0 and t_dyop > 0.0):
        raise ValueError("times must be positive")
    return t_baseline / t_dyop * 100.0


@dataclass(frozen=True)
class PairTiming:
    pair: tuple[str, str]
    dyop_ns: float
    baseline_ns: dict[str, float]
    pct: dict[str, float]
    delta_pct: dict[str, float]


@dataclass(frozen=True)
class BaselineSummary:
    max_pct: float
    min_pct: float
    mean_pct: float


@dataclass(frozen=True)
class ComparisonReport:
    """Per-pair percentage ratios of each baseline against the pruned
    algorithm, with max/min/mean summaries, counter totals, and both the
    ratio (pct) and difference (delta_pct = pct - 100) readings."""

    pairs: tuple[PairTiming, ...]
    summary: dict[str, BaselineSummary]
    counter_totals: dict[str, dict[str, int]]
    counter_pct: dict[str, float]
    mismatches: int
    failed: int

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "pair_a": p.pair[0],
                    "pair_b": p.pair[1],
                    "dyop_ns": p.dyop_ns,
                    "baseline_ns": p.baseline_ns,
                    "pct": p.pct,
                    "delta_pct": p.delta_pct,
                }
                for p in self.pairs
            ],
            "summary": {
                name: {
                    "max_pct": s.max_pct,
                    "min_pct": s.min_pct,
                    "mean_pct": s.mean_pct,
                }
                for name, s in self.summary.items()
            },
            "counter_totals": self.counter_totals,
            "counter_pct": self.counter_pct,
            "mismatches": self.mismatches,
            "failed": self.failed,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ComparisonReport":
        return ComparisonReport(
            pairs=tuple(
                PairTiming(
                    pair=(p["pair_a"], p["pair_b"]),
                    dyop_ns=p["dyop_ns"],
                    baseline_ns=dict(p["baseline_ns"]),
                    pct=dict(p["pct"]),
                    delta_pct=dict(p["delta_pct"]),
                )
                for p in doc["pairs"]
            ),
            summary={
                name: BaselineSummary(s["max_pct"], s["min_pct"], s["mean_pct"])
                for name, s in doc["summary"].items()
            },
            counter_totals={k: dict(v) for k, v in doc["counter_totals"].items()},
            counter_pct=dict(doc["counter_pct"]),
            mismatches=doc["mismatches"],
            failed=doc["failed"],
        )


def build_report(records: list[TimingRecord]) -> ComparisonReport:
    """Aggregate timing records into the baseline-vs-pruned comparison.

    Requires a successful pruned-algorithm record for every pair and at
    least one baseline algorithm; raises IncompleteRecords otherwise.
    Failed records are counted but excluded from percentages.
    """
    by_pair: dict[tuple[str, str], dict[str, TimingRecord]] = {}
    order: list[tuple[str, str]] = []
    for r in records:
        if r.pair not in by_pair:
            by_pair[r.pair] = {}
            order.append(r.pair)
        by_pair[r.pair][r.algorithm] = r

    baselines = sorted(
        {r.algorithm for r in records if r.algorithm != "dyop"}
    )
    if not baselines:
        raise IncompleteRecords("a baseline algorithm is required for comparison")
    for pair in order:
        rec = by_pair[pair].get("dyop")
        if rec is None or rec.failed:
            raise IncompleteRecords(f"missing dyop record for pair {pair}")

    pairs: list[PairTiming] = []
    pct_by_baseline: dict[str, list[float]] = {b: [] for b in baselines}
    for pair in order:
        group = by_pair[pair]
        dyop_rec = group["dyop"]
        baseline_ns: dict[str, float] = {}
        pct: dict[str, float] = {}
        delta: dict[str, float] = {}
        for b in baselines:
            rec = group.get(b)
            if rec is None or rec.failed:
                continue
            baseline_ns[b] = rec.median_ns
            ratio = percentage_diff(rec.median_ns, dyop_rec.median_ns)
            pct[b] = ratio
            delta[b] = ratio - 100.0
            pct_by_baseline[b].append(ratio)
        pairs.append(PairTiming(pair, dyop_rec.median_ns, baseline_ns, pct, delta))

    summary = {
        b: BaselineSummary(max(vals), min(vals), statistics.fmean(vals))
        for b, vals in pct_by_baseline.items()
        if vals
    }
    if not summary:
        raise IncompleteRecords("no successful baseline records to compare")

    counter_totals: dict[str, dict[str, int]] = {}
    for r in records:
        if r.failed:
            continue
        tot = counter_totals.setdefault(
            r.algorithm, {"vv_tests": 0, "ve_tests": 0, "ee_tests": 0, "total": 0}
        )
        tot["vv_tests"] += r.counters.vv_tests
        tot["ve_tests"] += r.counters.ve_tests
        tot["ee_tests"] += r.counters.ee_tests
        tot["total"] += r.counters.total()

    counter_pct: dict[str, float] = {}
    dyop_total = counter_totals.get("dyop", {}).get("total", 0)
    if dyop_total > 0:
        for b in baselines:
            b_total = counter_totals.get(b, {}).get("total", 0)
            if b_total > 0:
                counter_pct[b] = b_total / dyop_total * 100.0

    mismatches = sum(1 for r in records if "mismatch" in r.flags)
    failed = sum(1 for r in records if r.failed)
    return ComparisonReport(
        pairs=tuple(pairs),
        summary=summary,
        counter_totals=counter_totals,
        counter_pct=counter_pct,
        mismatches=mismatches,
        failed=failed,
    )
