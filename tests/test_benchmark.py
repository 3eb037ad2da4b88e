import dataclasses
import random

import pytest

import seed_reference as ref
from dyop2d import benchmark
from dyop2d.benchmark import (
    CSV_COLUMNS,
    MISMATCH_TOLERANCE,
    Scene,
    build_report,
    default_scene,
    enumerate_pairs,
    percentage_diff,
    place_pair,
    record_failed,
    run_benchmark,
)
from dyop2d.dyop import MovementAxis
from dyop2d.errors import IncompleteRecords, PlacementFailure
from dyop2d.geometry import Point2, Triangle, brute_force_triangle_distance


def tri(name, a, b, c):
    return Triangle(Point2(*a), Point2(*b), Point2(*c), name)


def small_scene(separation=1.0, axis=MovementAxis.X):
    return Scene(
        objects=(
            tri("A", (0, 0), (1, 0), (0, 1)),
            tri("B", (0, 0), (2, 0), (1, 1.2)),
            tri("C", (0, 0), (0.8, 0.1), (0.2, 0.9)),
        ),
        separation=separation,
        axis=axis,
    )


@pytest.mark.parametrize("n,count", [(1, 0), (2, 2), (5, 20), (10, 90)])
def test_enumerate_pairs_count(n, count):
    pairs = enumerate_pairs(n)
    assert len(pairs) == count
    assert len(set(pairs)) == count
    assert all(i != j for i, j in pairs)


def test_enumerate_pairs_row_major():
    assert enumerate_pairs(3) == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def test_enumerate_pairs_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_pairs(0)


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene((tri("A", (0, 0), (1, 0), (0, 1)),), 0.0, MovementAxis.X)
    with pytest.raises(ValueError):
        Scene(
            (
                tri("A", (0, 0), (1, 0), (0, 1)),
                tri("A", (0, 0), (2, 0), (0, 2)),
            ),
            1.0,
            MovementAxis.X,
        )


def test_default_scene_shape():
    scene = default_scene()
    assert len(scene.objects) == 10
    names = [t.name for t in scene.objects]
    assert names == [f"Obj{i}" for i in range(1, 11)]
    assert all(not t.is_degenerate for t in scene.objects)
    assert scene.separation == 1.0
    assert scene.axis is MovementAxis.X


def test_default_scene_deterministic():
    assert default_scene() == default_scene()


def test_place_pair_hits_separation():
    scene = small_scene()
    for pair in enumerate_pairs(3):
        moving, static, velocity = place_pair(scene, pair)
        got = brute_force_triangle_distance(moving, static).distance
        assert abs(got - scene.separation) <= 1e-9
        assert (velocity.dx, velocity.dy) == (1.0, 0.0)


def test_place_pair_custom_separation():
    scene = small_scene(separation=2.0)
    moving, static, _ = place_pair(scene, (0, 1))
    got = brute_force_triangle_distance(moving, static).distance
    assert abs(got - 2.0) <= 1e-9


def test_place_pair_y_axis():
    scene = small_scene(axis=MovementAxis.Y)
    moving, static, velocity = place_pair(scene, (1, 2))
    got = brute_force_triangle_distance(moving, static).distance
    assert abs(got - 1.0) <= 1e-9
    assert (velocity.dx, velocity.dy) == (0.0, 1.0)


def test_place_pair_swapped_differs():
    scene = small_scene()
    m1, s1, _ = place_pair(scene, (0, 1))
    m2, s2, _ = place_pair(scene, (1, 0))
    assert s1.name == "B" and s2.name == "A"
    assert m1.name == "A" and m2.name == "B"


def test_place_pair_rejects_bad_pair():
    scene = small_scene()
    with pytest.raises(ValueError):
        place_pair(scene, (0, 0))
    with pytest.raises(ValueError):
        place_pair(scene, (0, 9))


def test_place_pair_reaches_distant_canonical_poses():
    # The mover starts 19 units left of the static triangle; placement must
    # move it 18 units right, whatever the triangles' own widths.
    mover = tri("M", (-20, 0), (-19, 0), (-20, 1))
    static = tri("S", (0, 0), (1, 0), (0, 1))
    scene = Scene((mover, static), 1.0, MovementAxis.X)
    moved, _, _ = place_pair(scene, (0, 1))
    assert [(p.x, p.y) for p in moved.vertices] == [(-2.0, 0.0), (-1.0, 0.0), (-2.0, 1.0)]
    assert brute_force_triangle_distance(moved, static).distance == 1.0


def test_place_pair_refuses_unreachable_pair():
    # The static triangle sits 4 units above the mover, so no x offset brings
    # them within 1 of each other.
    scene = Scene(
        (tri("M", (0, 0), (1, 0), (0, 1)), tri("S", (0, 5), (1, 5), (0, 6))),
        1.0,
        MovementAxis.X,
    )
    with pytest.raises(PlacementFailure, match="M->S"):
        place_pair(scene, (0, 1))


def test_place_pair_refuses_an_offset_that_the_oracle_check_disagrees_with(monkeypatch):
    # The offset search is right, but an oracle that reads half a unit more
    # than the truth puts the placed pair off the separation.
    real = benchmark.brute_force_triangle_distance
    monkeypatch.setattr(
        benchmark,
        "brute_force_triangle_distance",
        lambda a, b: dataclasses.replace(real(a, b), distance=real(a, b).distance + 0.5),
    )
    with pytest.raises(PlacementFailure, match=r"^pair Obj1->Obj2 placed \+0\.5 off separation "):
        place_pair(default_scene(), (0, 1))


def _perpendicular_gap(a, b, axis):
    """Gap between the extents across the axis: the least distance the pair
    reaches over all offsets along it."""
    coord = (lambda p: p.y) if axis is MovementAxis.X else (lambda p: p.x)
    ca, cb = [coord(p) for p in a.vertices], [coord(p) for p in b.vertices]
    return max(min(cb) - max(ca), min(ca) - max(cb), 0.0)


def test_place_pair_matches_bisection_on_random_scenes():
    rng = random.Random(2024)
    placed = refused = 0
    for _ in range(40):
        objects = []
        while len(objects) < 3:
            t = tri(f"T{len(objects)}", *((rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)))
            if not t.is_degenerate:
                objects.append(t)
        axis = rng.choice((MovementAxis.X, MovementAxis.Y))
        scene = Scene(tuple(objects), rng.choice((0.1, 0.5, 1.0, 2.0, 5.0)), axis)
        for pair in enumerate_pairs(3):
            mover, static = objects[pair[0]], objects[pair[1]]
            try:
                frozen = ref.place_pair(scene, pair)[0]
            except PlacementFailure:
                frozen = None
            if _perpendicular_gap(mover, static, axis) > scene.separation:
                with pytest.raises(PlacementFailure):
                    place_pair(scene, pair)
                assert frozen is None
                refused += 1
                continue
            moved, _, _ = place_pair(scene, pair)
            got = brute_force_triangle_distance(moved, static).distance
            assert abs(got - scene.separation) <= 1e-9
            if frozen is not None:
                for p, q in zip(moved.vertices, frozen.vertices):
                    assert abs(p.x - q.x) <= 1e-9 and abs(p.y - q.y) <= 1e-9
            placed += 1
    assert placed > 0 and refused > 0


def test_run_benchmark_record_count_and_order():
    scene = small_scene()
    records = run_benchmark(scene, algorithms=("dyop", "gjk", "lincanny"), repeats=2)
    assert len(records) == 6 * 3
    assert [r["algorithm"] for r in records[:3]] == ["dyop", "gjk", "lincanny"]
    assert (records[0]["pair_a"], records[0]["pair_b"]) == ("A", "B")
    assert all(tuple(r) == CSV_COLUMNS for r in records)


def test_run_benchmark_dyop_counters():
    records = run_benchmark(small_scene(), algorithms=("dyop",), repeats=1)
    for r in records:
        assert (r["vv_tests"], r["ve_tests"], r["ee_tests"]) == (0, 0, 1)


def test_run_benchmark_calls_oracle_once_per_pair(monkeypatch):
    # place_pair's check is the only oracle call: records are compared
    # against the separation it has already confirmed.
    import dyop2d.benchmark as benchmark

    calls = []
    oracle = benchmark.brute_force_triangle_distance

    def counting(a, b):
        calls.append(None)
        return oracle(a, b)

    monkeypatch.setattr(benchmark, "brute_force_triangle_distance", counting)
    run_benchmark(default_scene(), ("dyop",), 1)
    assert len(calls) == 90


def test_run_benchmark_oracle_counters():
    records = run_benchmark(small_scene(), algorithms=("oracle",), repeats=1)
    for r in records:
        assert r["ee_tests"] == 9


def test_run_benchmark_distances_deterministic():
    scene = small_scene()
    r1 = run_benchmark(scene, algorithms=("dyop", "gjk"), repeats=1)
    r2 = run_benchmark(scene, algorithms=("dyop", "gjk"), repeats=1)
    for r in r1 + r2:
        del r["median_ns"]
    assert r1 == r2


def test_run_benchmark_mismatch_flagging():
    # mismatch flags may only mark conservative overestimates of the pruned
    # algorithm, never baseline disagreement
    records = run_benchmark(default_scene(), repeats=1)
    for r in records:
        if "mismatch" in r["flags"]:
            assert r["algorithm"] == "dyop"
            assert r["distance"] > 1.0 + MISMATCH_TOLERANCE


def degenerate_scene():
    # B is collinear: DyOP and GJK refuse it, while the oracle measures it.
    return Scene(
        (tri("A", (0, 0), (1, 0), (0, 1)), tri("B", (0, 0), (1, 0), (2, 0))),
        1.0,
        MovementAxis.X,
    )


def test_run_benchmark_records_a_failed_query():
    records = run_benchmark(degenerate_scene(), algorithms=("gjk", "oracle"), repeats=1)
    assert [(r["pair_a"], r["pair_b"], r["algorithm"]) for r in records] == [
        ("A", "B", "gjk"),
        ("A", "B", "oracle"),
        ("B", "A", "gjk"),
        ("B", "A", "oracle"),
    ]
    for r in records:
        assert tuple(r) == CSV_COLUMNS
        if r["algorithm"] == "gjk":
            assert record_failed(r)
            assert r["flags"] == ["error:DegenerateInput"]
            assert r["distance"] is None
            assert (r["vv_tests"], r["ve_tests"], r["ee_tests"]) == (0, 0, 0)
        else:
            assert not record_failed(r)
            assert r["flags"] == []
            assert abs(r["distance"] - 1.0) <= 1e-9
            assert r["ee_tests"] == 9


def scaled_default_scene(s, names=None):
    # The default scene's objects (all, or those named) scaled by s about
    # the origin, with the separation scaled by s too.
    scene = default_scene()
    objects = tuple(o.scaled(s) for o in scene.objects if names is None or o.name in names)
    return dataclasses.replace(scene, objects=objects, separation=scene.separation * s)


def test_run_benchmark_records_an_overflowing_query():
    # At 0.9e154, DyOP's squared distances overflow on this pair.
    scene = scaled_default_scene(0.9e154, ("Obj1", "Obj5"))
    records = run_benchmark(scene, algorithms=("dyop", "gjk"), repeats=1)
    dyop_records = [r for r in records if r["algorithm"] == "dyop"]
    assert len(dyop_records) == 2
    for r in dyop_records:
        assert r["flags"] == ["error:OverflowError"]
        assert r["distance"] is None
        assert (r["vv_tests"], r["ve_tests"], r["ee_tests"]) == (0, 0, 0)


@pytest.mark.parametrize("k", [7, 12, 100, 153])
def test_run_benchmark_flags_do_not_depend_on_the_scene_scale(k):
    # Placement and the mismatch check are relative to the separation, so
    # every pair places at any scale the coordinates survive, and each
    # record is flagged as at unit scale.
    algorithms = ("dyop", "gjk", "lincanny", "oracle")
    unscaled = run_benchmark(default_scene(), algorithms, repeats=1)
    scaled = run_benchmark(scaled_default_scene(10.0**k), algorithms, repeats=1)
    assert len(scaled) == 90 * len(algorithms)
    assert [r["flags"] for r in scaled] == [r["flags"] for r in unscaled]


def test_run_benchmark_rejects_bad_args():
    with pytest.raises(ValueError):
        run_benchmark(small_scene(), repeats=0)
    with pytest.raises(ValueError):
        run_benchmark(small_scene(), algorithms=("nope",), repeats=1)


def test_percentage_diff():
    assert percentage_diff(100.0, 100.0) == 100.0
    assert percentage_diff(200.0, 100.0) == 200.0
    assert percentage_diff(75.0, 100.0) == 75.0
    with pytest.raises(ValueError):
        percentage_diff(0.0, 1.0)


def _record(pair, algorithm, ns, distance=1.0, flags=(), counts=(4, 4, 1)):
    return dict(zip(CSV_COLUMNS, (*pair, algorithm, ns, *counts, distance, list(flags))))


def test_build_report_constant_times():
    records = []
    for pair in (("A", "B"), ("B", "A")):
        records.append(_record(pair, "dyop", 500.0))
        records.append(_record(pair, "gjk", 500.0))
    report = build_report(records)
    s = report["summary"]["gjk"]
    assert s["max_pct"] == s["min_pct"] == s["mean_pct"] == 100.0
    assert all(p["pct"]["gjk"] == 100.0 for p in report["pairs"])
    assert all(p["delta_pct"]["gjk"] == 0.0 for p in report["pairs"])


def test_build_report_single_pair_ratio():
    records = [
        _record(("A", "B"), "dyop", 1000.0),
        _record(("A", "B"), "lincanny", 2059.3),
    ]
    report = build_report(records)
    s = report["summary"]["lincanny"]
    assert s["max_pct"] == s["min_pct"] == pytest.approx(205.93)


def test_build_report_has_wall_and_counter_summaries():
    records = [
        _record(("A", "B"), "dyop", 1000.0),
        _record(("A", "B"), "gjk", 700.0),
        _record(("A", "B"), "oracle", 900.0),
    ]
    report = build_report(records)
    assert "gjk" in report["summary"]
    # GJK counts simplex solves, not ee tests: only the oracle's counter ratio is kept
    assert report["counter_pct"] == {"oracle": 100.0}
    assert report["counter_totals"]["dyop"]["total"] == 9
    assert report["summary"]["gjk"]["max_pct"] >= report["summary"]["gjk"]["mean_pct"]
    assert report["summary"]["gjk"]["mean_pct"] >= report["summary"]["gjk"]["min_pct"]


def test_build_report_requires_baseline():
    with pytest.raises(IncompleteRecords):
        build_report([_record(("A", "B"), "dyop", 1000.0)])


def test_build_report_requires_dyop_everywhere():
    records = [
        _record(("A", "B"), "dyop", 1000.0),
        _record(("A", "B"), "gjk", 700.0),
        _record(("B", "A"), "gjk", 700.0),
    ]
    with pytest.raises(IncompleteRecords):
        build_report(records)


def test_build_report_counts_failures():
    records = [
        _record(("A", "B"), "dyop", 1000.0),
        _record(("A", "B"), "gjk", 700.0),
        _record(("A", "B"), "lincanny", 5.0, None, ("error:Penetrating",), (0, 0, 0)),
    ]
    report = build_report(records)
    assert report["failed"] == 1
    assert "lincanny" not in report["summary"]
