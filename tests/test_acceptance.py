"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them inline)."""

import csv
import json
import random
import time

import pytest

from dyop2d.baselines import gjk_distance, lin_canny_distance
from dyop2d.benchmark import (
    build_report,
    default_scene,
    enumerate_pairs,
    place_pair,
    run_benchmark,
)
from dyop2d.cli import main
from dyop2d.dyop import build_internal_aabb, compute_dyop, dominant_axis, dyop_distance, select_candidates
from dyop2d.geometry import brute_force_triangle_distance
from dyop2d.verify import random_separated_pair, random_triangle, run_verify


def _report(criterion, ok):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    out_csv = str(tmp / "records.csv")
    out_json = str(tmp / "report.json")
    start = time.perf_counter()
    code = main(
        ["bench", "--repeats", "100", "--out-csv", out_csv, "--out-json", out_json]
    )
    elapsed = time.perf_counter() - start
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(out_json) as fh:
        report_doc = json.load(fh)
    return {
        "code": code,
        "elapsed": elapsed,
        "header": rows[0],
        "rows": rows[1:],
        "report": report_doc,
    }


def test_criterion_1_pairing_protocol(bench_run):
    dyop_rows = [r for r in bench_run["rows"] if r[2] == "dyop"]
    pairs = {(r[0], r[1]) for r in dyop_rows}
    ok = (
        len(dyop_rows) == 90
        and len(pairs) == 90
        and all(a != b for a, b in pairs)
        and len(bench_run["rows"]) == 270
        and bench_run["elapsed"] < 10.0
        and bench_run["code"] in (0, 5)
    )
    _report("1 pairing protocol: 90 ordered dyop queries, <10s at repeats=100", ok)


def test_criterion_2_vertex_test_reduction(bench_run):
    header = bench_run["header"]
    vv = header.index("vv_tests")
    ve = header.index("ve_tests")
    ee = header.index("ee_tests")
    dyop_rows = [r for r in bench_run["rows"] if r[2] == "dyop"]
    dyop_ok = all(
        (int(r[vv]), int(r[ve]), int(r[ee])) == (0, 0, 1) for r in dyop_rows
    ) and len(dyop_rows) == 90
    oracle_records = run_benchmark(default_scene(), algorithms=("oracle",), repeats=1)
    oracle_ok = all(r["ee_tests"] == 9 for r in oracle_records)
    _report("2 vertex-test reduction: dyop 1 edge pair vs oracle 9 edge pairs", dyop_ok and oracle_ok)


def test_criterion_3_conservative_bound():
    start = time.perf_counter()
    report = run_verify(trials=10000, seed=1)
    elapsed = time.perf_counter() - start
    ok = report.conservative_violations == 0 and elapsed < 5.0
    _report(
        f"3 conservative bound: 0 violations in 10000 trials "
        f"(mismatch rate {report.mismatch_rate:.4f}, {elapsed:.2f}s)",
        ok,
    )


def test_verify_document_is_pinned():
    # The oracle and DyOP on 10,000 seeded pairs: any change to either
    # answer moves one of these values.
    report = run_verify(trials=10000, seed=1)
    assert (report.trials, report.mismatches, report.conservative_violations) == (10000, 673, 0)
    assert repr(report.max_overestimate) == "0.4667220283239716"


def test_criterion_4_baseline_oracle_equivalence():
    rng = random.Random(2)
    start = time.perf_counter()
    worst_gjk = worst_lc = 0.0
    for _ in range(10000):
        a, b, _ = random_separated_pair(rng)
        exact = brute_force_triangle_distance(a, b).distance
        worst_gjk = max(worst_gjk, abs(gjk_distance(a, b).distance - exact))
        worst_lc = max(worst_lc, abs(lin_canny_distance(a, b)[0].distance - exact))
    elapsed = time.perf_counter() - start
    ok = worst_gjk <= 1e-7 and worst_lc <= 1e-7 and elapsed < 10.0
    _report(
        f"4 baseline equivalence: gjk err {worst_gjk:.2e}, lincanny err {worst_lc:.2e} "
        f"on 10000 pairs ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_5_placement_exactness():
    scene = default_scene()
    worst = 0.0
    for pair in enumerate_pairs(len(scene.objects)):
        moving, static, _ = place_pair(scene, pair)
        got = brute_force_triangle_distance(moving, static).distance
        worst = max(worst, abs(got - scene.separation))
    ok = worst <= 1e-9
    _report(f"5 placement exactness: worst |d - 1.0| = {worst:.2e} over 90 pairs", ok)


def test_criterion_6_property_suites():
    rng = random.Random(3)
    ok = True
    for _ in range(400):
        a, b = random_triangle(rng), random_triangle(rng)
        d_ab = brute_force_triangle_distance(a, b).distance
        d_ba = brute_force_triangle_distance(b, a).distance
        ok = ok and abs(d_ab - d_ba) <= 1e-12
        dx, dy = rng.uniform(-40, 40), rng.uniform(-40, 40)
        d_t = brute_force_triangle_distance(a.translated(dx, dy), b.translated(dx, dy)).distance
        ok = ok and abs(d_t - d_ab) <= 1e-9
        s = rng.uniform(0.2, 20.0)
        d_s = brute_force_triangle_distance(a.scaled(s), b.scaled(s)).distance
        if d_ab > 0:
            ok = ok and abs(d_s - s * d_ab) / (s * d_ab) <= 1e-9
        else:
            ok = ok and d_s == 0.0
    for _ in range(400):
        a, b, vel = random_separated_pair(rng)
        box = build_internal_aabb(a, b, dominant_axis(vel))
        mid = compute_dyop(box).point
        ok = ok and 2.0 * mid.x == box.box.min.x + box.box.max.x
        ok = ok and 2.0 * mid.y == box.box.min.y + box.box.max.y
        verts_a, edge_a = select_candidates(a, compute_dyop(box))
        ok = ok and len(set(verts_a)) == 2 and edge_a in (0, 1, 2)
        r = dyop_distance(a, b, vel)
        ok = ok and (r.counters.vv_tests, r.counters.ve_tests, r.counters.ee_tests) == (0, 0, 1)
    for n in (1, 2, 5, 10):
        ok = ok and len(enumerate_pairs(n)) == n * (n - 1)
    _report("6 property suites: symmetry/translation/scaling, midpoint, arity, pairing", ok)


def test_criterion_7_report_well_formedness():
    records = run_benchmark(default_scene(), repeats=3)
    report = build_report(records)
    ok = bool(report["summary"])
    for pair in report["pairs"]:
        for pct in pair["pct"].values():
            ok = ok and pct > 0.0
    for s in report["summary"].values():
        ok = ok and s["max_pct"] >= s["mean_pct"] >= s["min_pct"] > 0.0
    # both the ratio and the difference reading are emitted per pair
    for pair in report["pairs"]:
        for name, pct in pair["pct"].items():
            ok = ok and pair["delta_pct"][name] == pct - 100.0
    _report(
        "7 report well-formedness: percentages positive, max>=mean>=min, "
        "ratio and delta emitted (reference speed ratios are not reproducible claims)",
        ok,
    )
