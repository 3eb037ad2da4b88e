import codecs
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyop2d
from dyop2d import benchmark
from dyop2d import dyop as dyop_module
from dyop2d.baselines import gjk_distance, lin_canny_distance
from dyop2d.cli import main
from dyop2d.sceneio import load_scene, write_scene
from dyop2d.benchmark import CSV_COLUMNS, Scene
from dyop2d.dyop import MovementAxis, dyop_distance
from dyop2d.geometry import Point2, Triangle, Vector2, brute_force_triangle_distance
from dyop2d.verify import VerifyReport
from helpers import NEAR_COLLINEAR_PAIR, degenerate_scene, scaled_default_scene


def tri(name, a, b, c):
    return Triangle(Point2(*a), Point2(*b), Point2(*c), name)


@pytest.fixture
def scene_file(tmp_path):
    scene = Scene(
        objects=(
            tri("A", (0, 0), (1, 0), (0, 1)),
            tri("B", (0, 0), (2, 0), (1, 1.2)),
            tri("C", (0, 0), (0.8, 0.1), (0.2, 0.9)),
        ),
        separation=1.0,
        axis=MovementAxis.X,
    )
    path = tmp_path / "scene.json"
    write_scene(scene, str(path))
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_dist_oracle_default_scene(capsys):
    code = main(["dist", "--a", "Obj1", "--b", "Obj2", "--algo", "oracle"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pair"] == ["Obj1", "Obj2"]
    assert doc["algorithm"] == "oracle"
    assert doc["distance"] >= 0.0
    assert set(doc["counters"]) == {"vv_tests", "ve_tests", "ee_tests"}


# The plain query of each algorithm, called without the command line.
DIRECT = {
    "dyop": lambda a, b: dyop_distance(a, b, Vector2(1.0, 0.0)),
    "gjk": gjk_distance,
    "lincanny": lambda a, b: lin_canny_distance(a, b)[0],
    "oracle": brute_force_triangle_distance,
}


@pytest.mark.parametrize("algorithm", list(benchmark.ALGORITHMS))
def test_dist_each_algorithm_matches_direct_call(tmp_path, capsys, algorithm):
    # Disjoint triangles, which every algorithm answers (Lin-Canny refuses overlap).
    scene = Scene(
        objects=(
            tri("A", (0, 0), (1, 0), (0, 1)),
            tri("B", (3, 0), (5, 0), (4, 1.5)),
        ),
        separation=1.0,
        axis=MovementAxis.X,
    )
    path = str(tmp_path / "scene.json")
    write_scene(scene, path)
    code = main(["dist", "--scene", path, "--a", "A", "--b", "B", "--algo", algorithm])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algorithm"] == algorithm
    a, b = load_scene(path).objects
    assert doc["distance"] == DIRECT[algorithm](a, b).distance


def test_dist_unknown_object(capsys):
    code = main(["dist", "--a", "Obj1", "--b", "Nope", "--algo", "oracle"])
    assert code == 1
    assert "Nope" in capsys.readouterr().err


def test_dist_malformed_scene(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    code = main(["dist", "--scene", str(path), "--a", "A", "--b", "B", "--algo", "oracle"])
    assert code == 2


HUGE = "1" + "0" * 400  # a JSON integer literal too large for a float


@pytest.mark.parametrize("command", ["dist", "bench"])
@pytest.mark.parametrize("where", ["vertex", "separation"])
def test_scene_with_integer_too_large_for_a_float_exits_2(tmp_path, capsys, command, where):
    vertex, separation = (HUGE, "1") if where == "vertex" else ("0", HUGE)
    path = tmp_path / "huge.json"
    path.write_text(
        '{"objects": ['
        f'{{"name": "A", "vertices": [[{vertex}, 0], [1, 0], [0, 1]]}}, '
        '{"name": "B", "vertices": [[0, 0], [2, 0], [1, 1]]}], '
        f'"separation": {separation}, "axis": "x"}}',
        encoding="utf-8",
    )
    if command == "dist":
        args = ["dist", "--scene", str(path), "--a", "A", "--b", "B", "--algo", "oracle"]
    else:
        args = ["bench", "--scene", str(path), "--out-csv", str(tmp_path / "r.csv")]
        args += ["--out-json", str(tmp_path / "r.json")]
    assert main(args) == 2
    assert "invalid scene" in capsys.readouterr().err


def test_dist_algorithm_error_exit_4(capsys):
    # canonical poses overlap, which the feature walk refuses
    code = main(["dist", "--a", "Obj1", "--b", "Obj2", "--algo", "lincanny"])
    assert code == 4
    assert "Penetrating" in capsys.readouterr().err


def test_dist_near_collinear_crossing_pair(tmp_path, capsys):
    # The oracle answers the pair at distance 0 and the Lin-Canny walk
    # refuses it as overlapping; neither ends in a traceback.
    a, b = (dataclasses.replace(t, name=name) for t, name in zip(NEAR_COLLINEAR_PAIR, "AB"))
    path = _scene_path(tmp_path, Scene((a, b), 1.0, MovementAxis.X))
    args = ["dist", "--scene", path, "--a", "A", "--b", "B", "--algo"]
    assert main(args + ["oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 0.0
    assert main(args + ["lincanny"]) == 4
    assert capsys.readouterr().err.startswith("algorithm error (Penetrating)")


def test_dist_missing_required_args_is_usage_error(capsys):
    assert main(["dist", "--a", "Obj1", "--algo", "oracle"]) == 1


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_dist_dyop_axis_override(capsys, scene_file):
    code = main(
        ["dist", "--scene", scene_file, "--a", "A", "--b", "B", "--algo", "dyop", "--axis", "y"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["axis"] == "y"


def test_bench_small_scene(tmp_path, scene_file, capsys):
    out_csv = str(tmp_path / "records.csv")
    out_json = str(tmp_path / "report.json")
    code = main(
        [
            "bench",
            "--scene",
            scene_file,
            "--repeats",
            "2",
            "--out-csv",
            out_csv,
            "--out-json",
            out_json,
        ]
    )
    assert code in (0, 5)
    rows = read_csv(out_csv)
    assert rows[0] == list(
        ("pair_a", "pair_b", "algorithm", "median_ns", "vv_tests", "ve_tests", "ee_tests", "distance", "flags")
    )
    assert len(rows) - 1 == 6 * 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["records"] == 18
    report = json.loads(Path(out_json).read_text(encoding="utf-8"))
    assert len(report["records"]) == 18
    assert set(report["report"]["summary"]) == {"gjk", "lincanny"}


def _assert_csv_rows_match_json_records(out_csv, out_json, count):
    header, *rows = read_csv(out_csv)
    assert tuple(header) == CSV_COLUMNS
    records = json.loads(Path(out_json).read_text(encoding="utf-8"))["records"]
    assert len(records) == len(rows) == count
    for rec, row in zip(records, rows):
        assert tuple(rec) == CSV_COLUMNS
        cell = dict(zip(header, row))
        for key in ("pair_a", "pair_b", "algorithm"):
            assert cell[key] == rec[key]
        for key in ("vv_tests", "ve_tests", "ee_tests"):
            assert int(cell[key]) == rec[key]
        assert float(cell["median_ns"]) == rec["median_ns"]
        assert (None if cell["distance"] == "" else float(cell["distance"])) == rec["distance"]
        assert (cell["flags"].split(";") if cell["flags"] else []) == rec["flags"]
    return rows


def test_bench_json_records_match_csv_rows(tmp_path, scene_file):
    out_csv = str(tmp_path / "records.csv")
    out_json = str(tmp_path / "report.json")
    args = ["bench", "--scene", scene_file, "--repeats", "1", "--algos", "dyop,gjk,lincanny,oracle"]
    assert main(args + ["--out-csv", out_csv, "--out-json", out_json]) in (0, 5)
    _assert_csv_rows_match_json_records(out_csv, out_json, 6 * 4)


def _scene_path(tmp_path, scene):
    path = str(tmp_path / "scene.json")
    write_scene(scene, path)
    return path


def test_bench_writes_failed_records_with_an_empty_distance(tmp_path, capsys):
    out_csv = str(tmp_path / "records.csv")
    out_json = str(tmp_path / "report.json")
    args = ["bench", "--scene", _scene_path(tmp_path, degenerate_scene()), "--repeats", "1"]
    assert main(args + ["--algos", "gjk,oracle", "--out-csv", out_csv, "--out-json", out_json]) == 0
    assert json.loads(capsys.readouterr().out)["failed"] == 2
    rows = _assert_csv_rows_match_json_records(out_csv, out_json, 2 * 2)
    gjk_rows = [row for row in rows if row[2] == "gjk"]
    assert len(gjk_rows) == 2
    for row in gjk_rows:
        cell = dict(zip(CSV_COLUMNS, row))
        assert cell["distance"] == "" and cell["flags"] == "error:DegenerateInput"


def test_bench_exits_4_when_dyop_refuses_a_pair(tmp_path, capsys):
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    args = ["bench", "--scene", _scene_path(tmp_path, degenerate_scene()), "--repeats", "1"]
    code = main(args + ["--algos", "dyop,gjk", "--out-csv", str(out_csv), "--out-json", str(out_json)])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "missing dyop record" in captured.err
    assert not out_csv.exists() and not out_json.exists()


@pytest.mark.parametrize("names,s,message", [(("Obj1", "Obj5"), 0.9e154, "missing dyop record")])
def test_bench_exits_4_when_an_algorithm_overflows(tmp_path, capsys, monkeypatch, names, s, message):
    # A crossing whose contact point overflows makes the segment test refuse
    # it with ValueError. No input in range is known to get there, so the
    # refusal is put into DyOP's segment test: bench runs the query on the
    # scene scaled towards the float range, where DyOP answers the pair
    # scaled into range, and the refusal leaves no DyOP record to compare.
    # Obj1 and Obj5 have a gap between their boxes, so the test DyOP runs on
    # them is the projections alone.
    def refused(*ends):
        raise ValueError("non-finite coordinate: inf")

    monkeypatch.setattr(dyop_module, "_segment_projections", refused)
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    args = ["bench", "--scene", _scene_path(tmp_path, scaled_default_scene(s, names))]
    args += ["--repeats", "1", "--algos", "dyop,gjk"]
    assert main(args + ["--out-csv", str(out_csv), "--out-json", str(out_json)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err
    assert not out_csv.exists() and not out_json.exists()


def test_bench_exits_4_when_no_baseline_answers(tmp_path, capsys, monkeypatch):
    # DyOP answers every pair and GJK refuses every one, as an algorithm
    # error: no baseline record is left to compare, so bench writes nothing.
    def refused(*args):
        raise ValueError("non-finite coordinate: nan")

    monkeypatch.setattr(benchmark, "gjk_distance", refused)
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    args = ["bench", "--scene", _scene_path(tmp_path, scaled_default_scene(1.0, ("Obj1", "Obj9")))]
    args += ["--repeats", "1", "--algos", "dyop,gjk"]
    assert main(args + ["--out-csv", str(out_csv), "--out-json", str(out_json)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "no successful baseline records" in captured.err
    assert not out_csv.exists() and not out_json.exists()


def _scaled_scene(s, rise=0.0):
    # Unit triangles scaled towards the float range, at a separation of the
    # same scale; B raised by rise times s.
    b = tri("B", (3 * s, rise * s), (4 * s, rise * s), (3 * s, (rise + 1) * s))
    return Scene((tri("A", (0, 0), (s, 0), (0, s)), b), s, MovementAxis.X)


@pytest.mark.parametrize("algorithm", list(benchmark.ALGORITHMS))
def test_dist_overflowing_coordinates_exit_4(tmp_path, capsys, algorithm):
    # Coordinates whose squares overflow are answered scaled into range, so
    # what still fails there is an input that cannot be: a unit triangle
    # beside one at 1e308, whose unit differences every algorithm would
    # scale below where their squares stay normal, and so refuses; and a
    # flat triangle, which every algorithm but the oracle refuses.
    unit, far = tri("A", (0, 0), (1, 0), (0, 1)), tri("B", (1e308, 0), (1.1e308, 0), (1e308, 1))
    wide = Scene((unit, far), 1.0, MovementAxis.X)
    scene = _scaled_scene(1e155)
    flat = dataclasses.replace(scene, objects=(scene.objects[0], tri("B", (3e155, 0), (4e155, 0), (5e155, 0))))
    cases = [(wide, "ValueError")] + ([] if algorithm == "oracle" else [(flat, "DegenerateInput")])
    for case, error in cases:
        path = _scene_path(tmp_path, case)
        code = main(["dist", "--scene", path, "--a", "A", "--b", "B", "--algo", algorithm])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"algorithm error ({error})")


@pytest.mark.parametrize("algorithm", list(benchmark.ALGORITHMS))
def test_dist_past_the_range_answers_as_at_unit_scale(tmp_path, capsys, algorithm):
    # At 2^515, about 1.1e155, squares overflow on raw coordinates; each
    # algorithm answers the pair scaled into range, and its document is the
    # unit-scale one times 2^515, bit for bit.
    docs = []
    for s in (1.0, 2.0**515):
        path = _scene_path(tmp_path, _scaled_scene(s, 0.5))
        assert main(["dist", "--scene", path, "--a", "A", "--b", "B", "--algo", algorithm]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    unit, scaled = docs
    assert scaled["distance"] == unit["distance"] * 2.0**515 > 0.0
    for point in ("point_a", "point_b"):
        assert scaled[point] == [v * 2.0**515 for v in unit[point]]
    for key in set(unit) - {"distance", "point_a", "point_b"}:
        assert scaled[key] == unit[key]


@pytest.mark.parametrize("s", [1e154, 1e155])
def test_bench_overflowing_coordinates_exit_2(tmp_path, capsys, s):
    # B sits 4 units above A at scale s, so no offset along x brings them
    # within the separation s; placement decides that in range, where the
    # squares it takes do not overflow.
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    args = ["bench", "--scene", _scene_path(tmp_path, _scaled_scene(s, 5.0)), "--repeats", "1"]
    assert main(args + ["--out-csv", str(out_csv), "--out-json", str(out_json)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unplaceable scene: pair A->B cannot reach separation" in err
    assert not out_csv.exists() and not out_json.exists()


def test_bench_dyop_only_has_no_percentages(tmp_path, scene_file, capsys):
    out_csv = str(tmp_path / "records.csv")
    out_json = str(tmp_path / "report.json")
    code = main(
        [
            "bench",
            "--scene",
            scene_file,
            "--repeats",
            "1",
            "--algos",
            "dyop",
            "--out-csv",
            out_csv,
            "--out-json",
            out_json,
        ]
    )
    assert code in (0, 5)
    assert len(read_csv(out_csv)) - 1 == 6
    report = json.loads(Path(out_json).read_text(encoding="utf-8"))
    assert report["report"] is None
    summary = json.loads(capsys.readouterr().out)
    assert summary["summary"] == {}


def test_bench_rejects_unknown_algorithm(tmp_path, scene_file, capsys):
    code = main(
        [
            "bench",
            "--scene",
            scene_file,
            "--algos",
            "dyop,warp",
            "--out-csv",
            str(tmp_path / "r.csv"),
            "--out-json",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 1
    # The message names the choices; an empty list is refused too, and the
    # list is checked before the repeats.
    for algos, message in (
        ("dyop,warp", "unknown algorithm: warp (choose from dyop, gjk, lincanny, oracle)"),
        (",", "no algorithm given"),
        (" ", "no algorithm given"),
    ):
        capsys.readouterr()
        args = ["bench", "--scene", scene_file, "--repeats", "0", "--algos", algos]
        assert main(args + ["--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr() == ("", message + "\n")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "scene.json"]


def test_bench_refuses_a_repeated_algorithm_and_writes_nothing(tmp_path, scene_file, capsys):
    args = ["bench", "--scene", scene_file, "--repeats", "1", "--algos", "dyop,oracle,oracle"]
    assert main(args + ["--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "repeated algorithm: oracle\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "scene.json"]


def test_bench_refuses_repeats_below_one_and_writes_nothing(tmp_path, scene_file, capsys):
    args = ["bench", "--scene", scene_file, "--repeats", "0"]
    assert main(args + ["--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "repeats must be at least 1: 0\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "scene.json"]


def test_bench_refuses_a_one_object_scene_and_writes_nothing(tmp_path, capsys):
    # One object makes no pair, so there is nothing to compare; baselines
    # were asked for all the same, so this is a usage error, not exit 4.
    path = tmp_path / "scene.json"
    write_scene(Scene(objects=(tri("A", (0, 0), (1, 0), (0, 1)),), separation=1.0, axis=MovementAxis.X), str(path))
    args = ["bench", "--scene", str(path), "--repeats", "1", "--algos", "dyop,gjk"]
    assert main(args + ["--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr() == ("", "a scene needs at least two objects to benchmark: it has 1\n")
    assert sorted(tmp_path.iterdir()) == [path]


def test_bench_invalid_scene_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[]", encoding="utf-8")
    code = main(
        [
            "bench",
            "--scene",
            str(path),
            "--out-csv",
            str(tmp_path / "r.csv"),
            "--out-json",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 2


def test_bench_reads_its_scene_before_checking_the_plan(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[]", encoding="utf-8")
    args = ["bench", "--scene", str(path), "--repeats", "0", "--algos", "warp"]
    assert main(args + ["--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invalid scene: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("same", ["json-is-scene", "csv-is-json"])
def test_bench_refuses_to_overwrite_its_scene_or_other_output(tmp_path, scene_file, capsys, same):
    before = Path(scene_file).read_bytes()
    csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
    if same == "json-is-scene":
        # The same file reached by another spelling of its path.
        json_path = os.path.join(str(tmp_path), ".", "scene.json")
    else:
        csv_path = json_path
    args = ["bench", "--scene", scene_file, "--repeats", "1", "--out-csv", csv_path, "--out-json", json_path]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "same file" in err
    assert Path(scene_file).read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [tmp_path / "scene.json"]


def test_bench_deterministic_except_wall_time(tmp_path, scene_file, capsys):
    outs = []
    for k in (1, 2):
        out_csv = str(tmp_path / f"records{k}.csv")
        main(
            [
                "bench",
                "--scene",
                scene_file,
                "--repeats",
                "1",
                "--out-csv",
                out_csv,
                "--out-json",
                str(tmp_path / f"report{k}.json"),
            ]
        )
        rows = read_csv(out_csv)
        ns_col = rows[0].index("median_ns")
        outs.append([row[:ns_col] + row[ns_col + 1 :] for row in rows])
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_bench_unplaceable_pair_exit_2(tmp_path, capsys):
    # S sits 4 units above M, so no offset along x brings them within 1.
    scene = Scene(
        (tri("M", (0, 0), (1, 0), (0, 1)), tri("S", (0, 5), (1, 5), (0, 6))),
        1.0,
        MovementAxis.X,
    )
    path = tmp_path / "scene.json"
    write_scene(scene, str(path))
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    code = main(["bench", "--scene", str(path), "--out-csv", str(out_csv), "--out-json", str(out_json)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "M->S" in err
    assert not out_csv.exists() and not out_json.exists()


def test_bench_default_scene_reports_dyop_overestimate_and_exits_0(tmp_path, capsys):
    args = ["bench", "--repeats", "1", "--algos", "dyop,gjk,lincanny,oracle"]
    code = main(args + ["--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["mismatches"] == 1
    assert "dyop overestimates 1 pair(s)" in captured.err and "Obj10->Obj6" in captured.err


@pytest.mark.parametrize("algorithm,shift", [("gjk", 0.5), ("gjk", -0.5), ("dyop", -0.5)])
def test_bench_mismatch_exit_5(tmp_path, scene_file, monkeypatch, capsys, algorithm, shift):
    # A baseline off the exact distance either way, or DyOP below it, is a bug.
    name = f"{algorithm}_distance"
    real = getattr(benchmark, name)

    def shifted(*args):
        result = real(*args)
        return dataclasses.replace(result, distance=result.distance + shift)

    monkeypatch.setattr(benchmark, name, shifted)
    args = ["bench", "--scene", scene_file, "--repeats", "1", "--algos", "dyop,gjk"]
    code = main(args + ["--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")])
    assert code == 5
    assert "6 record(s) exceeded the distance mismatch tolerance" in capsys.readouterr().err


def test_verify_deterministic(capsys):
    assert main(["verify", "--trials", "200", "--seed", "7"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["verify", "--trials", "200", "--seed", "7"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["conservative_violations"] == 0
    assert first["mismatch_rate"] == first["mismatches"] / first["trials"]


def test_verify_rejects_bad_trials(capsys):
    assert main(["verify", "--trials", "0", "--seed", "1"]) == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_verify_refuses_a_non_finite_or_negative_tolerance(capsys, tol):
    assert main(["verify", "--trials", "200", "--seed", "7", f"--tol={tol}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "tolerance" in err


def test_verify_exits_3_on_a_conservative_bound_violation(monkeypatch, capsys):
    report = VerifyReport(trials=10, mismatches=2, max_overestimate=0.25, conservative_violations=2, tolerance=1e-9)
    monkeypatch.setattr("dyop2d.cli.run_verify", lambda trials, seed, tol: report)
    assert main(["verify", "--trials", "10", "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["conservative_violations"] == 2
    assert err == (
        "2 conservative-bound violation(s): the pruned distance dropped below the exact distance\n"
    )


@pytest.mark.parametrize("unwritable", ["--out-csv", "--out-json"])
def test_bench_unwritable_output_path_exits_1_and_writes_nothing(tmp_path, scene_file, capsys, unwritable):
    outs = {"--out-csv": tmp_path / "r.csv", "--out-json": tmp_path / "r.json"}
    outs[unwritable] = tmp_path / "missing" / "out"
    args = ["bench", "--scene", scene_file, "--repeats", "1"]
    for flag, path in outs.items():
        args += [flag, str(path)]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"cannot write {outs[unwritable]}: No such file or directory\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "scene.json"]


def test_plot_unwritable_output_directory_exits_1(tmp_path, scene_file, capsys):
    out_json = str(tmp_path / "report.json")
    args = ["bench", "--scene", scene_file, "--repeats", "1", "--out-csv", str(tmp_path / "r.csv")]
    assert main(args + ["--out-json", out_json]) in (0, 5)
    capsys.readouterr()
    out_dir = tmp_path / "r.csv" / "sub"
    assert main(["plot", "--report", out_json, "--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"cannot write {out_dir}: Not a directory\n"


def test_plot_exits_1_and_removes_speed_csv_when_percentages_csv_cannot_be_written(
    tmp_path, scene_file, capsys
):
    out_json = str(tmp_path / "report.json")
    args = ["bench", "--scene", scene_file, "--repeats", "1", "--out-csv", str(tmp_path / "r.csv")]
    assert main(args + ["--out-json", out_json]) in (0, 5)
    capsys.readouterr()
    out_dir = tmp_path / "plots"
    (out_dir / "percentages.csv").mkdir(parents=True)
    assert main(["plot", "--report", out_json, "--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"cannot write {out_dir / 'percentages.csv'}: Is a directory\n"
    assert list(out_dir.iterdir()) == [out_dir / "percentages.csv"]


def test_plot_outputs(tmp_path, scene_file, capsys):
    out_json = str(tmp_path / "report.json")
    main(
        [
            "bench",
            "--scene",
            scene_file,
            "--repeats",
            "1",
            "--out-csv",
            str(tmp_path / "r.csv"),
            "--out-json",
            out_json,
        ]
    )
    capsys.readouterr()
    out_dir = str(tmp_path / "plots")
    assert main(["plot", "--report", out_json, "--out", out_dir]) == 0
    paths = json.loads(capsys.readouterr().out)
    speed = read_csv(paths["speed_csv"])
    assert speed[0] == ["pair_a", "pair_b", "algorithm", "median_ns"]
    assert len(speed) - 1 == 18  # 6 pairs x 3 algorithms
    pct = read_csv(paths["percentages_csv"])
    assert pct[0] == ["pair_a", "pair_b", "baseline", "pct", "delta_pct"]
    assert len(pct) - 1 == 12  # 6 pairs x 2 baselines


def test_plot_header_only_without_baselines(tmp_path, scene_file, capsys):
    out_json = str(tmp_path / "report.json")
    main(
        [
            "bench",
            "--scene",
            scene_file,
            "--repeats",
            "1",
            "--algos",
            "dyop",
            "--out-csv",
            str(tmp_path / "r.csv"),
            "--out-json",
            out_json,
        ]
    )
    capsys.readouterr()
    out_dir = str(tmp_path / "plots")
    assert main(["plot", "--report", out_json, "--out", out_dir]) == 0
    paths = json.loads(capsys.readouterr().out)
    assert len(read_csv(paths["percentages_csv"])) == 1


def test_plot_unreadable_report(tmp_path, capsys):
    assert main(["plot", "--report", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["plot", "--report", str(bad), "--out", str(tmp_path)]) == 2
    # A record or report pair without its keys, or not an object at all, is
    # refused before the output directory or any file is created.
    out_dir = tmp_path / "plots"
    for doc in (
        {"records": [{"pair_a": "A"}], "report": None},
        {"records": [1], "report": None},
        {"records": {"pair_a": "A"}, "report": None},
        {"records": [], "report": {"pairs": [{}]}},
        {"records": [], "report": {"pairs": [{"pair_a": "A", "pair_b": "B", "pct": {"gjk": 50.0}}]}},
        {"records": [], "report": {"pairs": [{"pair_a": "A", "pair_b": "B", "pct": [1]}]}},
        {"records": [], "report": []},
    ):
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["plot", "--report", str(bad), "--out", str(out_dir)]) == 2, doc
        assert "unreadable report" in capsys.readouterr().err
        assert not out_dir.exists(), doc


@pytest.mark.parametrize(
    "data",
    [
        b'{"records": [], "report": ' + b"1" * 5000 + b"}",  # past the int-to-str digit limit
        b"\xff\xfe{}",  # not UTF-8
    ],
    ids=["digit-limit", "not-utf8"],
)
def test_plot_refuses_undecodable_report(tmp_path, capsys, data):
    report = tmp_path / "report.json"
    report.write_bytes(data)
    out_dir = tmp_path / "plots"
    assert main(["plot", "--report", str(report), "--out", str(out_dir)]) == 2
    assert "unreadable report" in capsys.readouterr().err
    assert not out_dir.exists()


def test_stdout_is_pure_json(capsys):
    main(["dist", "--a", "Obj1", "--b", "Obj3", "--algo", "gjk"])
    out = capsys.readouterr().out
    json.loads(out)  # a single parseable document, no log noise


def test_bench_and_plot_read_and_write_utf8_whatever_the_locale(tmp_path):
    # A child under the C locale, with UTF-8 mode and locale coercion off,
    # opens text files as ASCII unless the program names the encoding.
    src = str(Path(dyop2d.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONPATH": src}

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=env, cwd=tmp_path, capture_output=True, encoding="utf-8"
        )

    preferred = run("-c", "import locale; print(locale.getpreferredencoding(False))").stdout.strip()
    if codecs.lookup(preferred).name == "utf-8":
        pytest.skip(f"the child's preferred encoding is already {preferred}")
    scene = Scene(
        objects=(tri("Obj\u00e91", (0, 0), (1, 0), (0, 1)), tri("B", (0, 0), (2, 0), (1, 1.2))),
        separation=1.0,
        axis=MovementAxis.X,
    )
    # write_scene escapes the name as JSON does; a hand-written file holds it as raw UTF-8.
    write_scene(scene, str(tmp_path / "escaped.json"))
    raw = json.dumps(json.loads((tmp_path / "escaped.json").read_text(encoding="utf-8")), ensure_ascii=False)
    (tmp_path / "raw.json").write_text(raw, encoding="utf-8")
    for name in ("escaped", "raw"):
        bench = run(
            "-m", "dyop2d.cli", "bench", "--scene", f"{name}.json", "--repeats", "1", "--algos", "dyop,oracle",
            "--out-csv", f"{name}.csv", "--out-json", f"{name}-report.json",
        )
        assert bench.returncode == 0, bench.stderr
        rows = read_csv(tmp_path / f"{name}.csv")
        assert {row[0] for row in rows[1:]} == {"Obj\u00e91", "B"}
        plot = run("-m", "dyop2d.cli", "plot", "--report", f"{name}-report.json", "--out", f"{name}-plots")
        assert plot.returncode == 0, plot.stderr
        speed = read_csv(tmp_path / f"{name}-plots" / "speed.csv")
        assert {row[0] for row in speed[1:]} == {"Obj\u00e91", "B"}
