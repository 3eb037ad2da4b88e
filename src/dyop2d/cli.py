"""Command-line front end.

Each command is one function: ``cmd_dist`` (single query), ``cmd_bench``
(full pairing benchmark), ``cmd_verify`` (randomized oracle
cross-check), ``cmd_plot`` (plot-ready series from a benchmark report);
``build_parser`` holds their options and ``main`` runs one. Data
documents go to stdout as JSON; diagnostics go to stderr. The exit codes
0 to 5, and the output schemas, are stated once, in README.md, and
tests/test_readme.py holds that table to the codes this module returns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from .benchmark import (
    ALGORITHM_ERRORS,
    ALGORITHMS,
    CSV_COLUMNS,
    DEFAULT_ALGORITHMS,
    build_report,
    default_scene,
    record_failed,
    run_benchmark,
    write_records_csv,
)
from .dyop import MovementAxis
from .errors import IncompleteRecords, PlacementFailure, SceneFormatError
from .geometry import DistanceResult, Vector2
from .sceneio import load_scene
from .verify import DEFAULT_TOLERANCE, run_verify

SPEED_CSV_COLUMNS = ("pair_a", "pair_b", "algorithm", "median_ns")
PCT_CSV_COLUMNS = ("pair_a", "pair_b", "baseline", "pct", "delta_pct")


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _write_files(writes: list[tuple[str, Callable[[str], None]]]) -> bool:
    """Call write(path) for each (path, write) in turn. When one fails, the
    files already written are removed and one stderr line names the path, so
    that a refused run leaves no file behind."""
    done = []
    for path, write in writes:
        try:
            write(path)
        except OSError as exc:
            for written in done:
                os.remove(written)
            _diag(f"cannot write {path}: {exc.strerror or exc}")
            return False
        done.append(path)
    return True


def _result_doc(result: DistanceResult) -> dict:
    return {
        "distance": result.distance,
        "point_a": [result.point_a.x, result.point_a.y],
        "point_b": [result.point_b.x, result.point_b.y],
        "feature_a": {"kind": result.feature_a.kind.value, "index": result.feature_a.index},
        "feature_b": {"kind": result.feature_b.kind.value, "index": result.feature_b.index},
        "counters": {
            "vv_tests": result.counters.vv_tests,
            "ve_tests": result.counters.ve_tests,
            "ee_tests": result.counters.ee_tests,
        },
        "flags": list(result.flags),
    }


def cmd_dist(args: argparse.Namespace) -> int:
    scene = default_scene() if args.scene is None else load_scene(args.scene)
    by_name = {t.name: t for t in scene.objects}
    for name in (args.a, args.b):
        if name not in by_name:
            _diag(f"unknown object: {name}")
            return 1
    tri_a = by_name[args.a]
    tri_b = by_name[args.b]

    axis = MovementAxis(args.axis) if args.axis else scene.axis
    velocity = Vector2(1.0, 0.0) if axis is MovementAxis.X else Vector2(0.0, 1.0)
    try:
        result = ALGORITHMS[args.algo](tri_a, tri_b, velocity)
    except ALGORITHM_ERRORS as exc:
        _diag(f"algorithm error ({type(exc).__name__}): {exc}")
        return 4

    doc = {"pair": [args.a, args.b], "algorithm": args.algo, "axis": axis.value}
    doc.update(_result_doc(result))
    _emit(doc)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    scene = default_scene() if args.scene is None else load_scene(args.scene)
    paths = [args.out_csv, args.out_json] + ([args.scene] if args.scene is not None else [])
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        _diag(f"two of these paths name the same file: {', '.join(paths)}")
        return 1
    algos = tuple(a.strip() for a in args.algos.split(",") if a.strip())

    # Everything is computed before anything is written, so a refused run
    # leaves no file behind.
    try:
        records = run_benchmark(scene, algos, args.repeats)
    except PlacementFailure as exc:
        _diag(f"unplaceable scene: {exc}")
        return 2
    except ValueError as exc:
        _diag(str(exc))
        return 1
    try:
        report = build_report(records) if "dyop" in algos and any(a != "dyop" for a in algos) else None
    except IncompleteRecords as exc:
        _diag(f"no comparison report: {exc}")
        return 4
    doc = {
        "scene_objects": len(scene.objects),
        "separation": scene.separation,
        "axis": scene.axis.value,
        "repeats": args.repeats,
        "algorithms": list(algos),
        "records": records,
        "report": report,
    }

    def write_json(path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    if not _write_files(
        [
            (args.out_csv, lambda path: write_records_csv(path, CSV_COLUMNS, (r.values() for r in records))),
            (args.out_json, write_json),
        ]
    ):
        return 1

    mismatched = [r for r in records if "mismatch" in r["flags"]]
    summary_doc = {
        "records": len(records),
        "mismatches": len(mismatched),
        "failed": sum(1 for r in records if record_failed(r)),
        "summary": report["summary"] if report is not None else {},
        "counter_totals": report["counter_totals"] if report is not None else {},
        "out_csv": args.out_csv,
        "out_json": args.out_json,
    }
    _emit(summary_doc)
    if report is not None:
        for name, s in report["summary"].items():
            _diag(
                f"{name} vs dyop: max {s['max_pct']:.7f}% min {s['min_pct']:.7f}% "
                f"mean {s['mean_pct']:.7f}%"
            )
    # Every pair is placed at the separation, so that is the exact distance.
    over = [r for r in mismatched if r["algorithm"] == "dyop" and r["distance"] > scene.separation]
    if over:
        listed = ", ".join(f"{r['pair_a']}->{r['pair_b']} ({r['distance']!r})" for r in over)
        _diag(f"dyop overestimates {len(over)} pair(s), as pruning may: {listed}")
    if len(mismatched) > len(over):
        _diag(f"{len(mismatched) - len(over)} record(s) exceeded the distance mismatch tolerance")
        return 5
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = run_verify(args.trials, args.seed, args.tol)
    except ValueError as exc:
        _diag(str(exc))
        return 1
    _emit(
        {
            "trials": report.trials,
            "mismatches": report.mismatches,
            "mismatch_rate": report.mismatch_rate,
            "max_overestimate": report.max_overestimate,
            "conservative_violations": report.conservative_violations,
            "tolerance": report.tolerance,
        }
    )
    if report.conservative_violations > 0:
        _diag(
            f"{report.conservative_violations} conservative-bound violation(s): "
            "the pruned distance dropped below the exact distance"
        )
        return 3
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    # Every row is built before anything is written, so a malformed report
    # leaves no output directory or partial file behind.
    try:
        with open(args.report, encoding="utf-8") as fh:
            doc = json.load(fh)
        records = doc["records"]
        report = doc.get("report")
        if not isinstance(records, list):
            raise SceneFormatError("'records' must be a list")
        speed_rows = [
            [r["pair_a"], r["pair_b"], r["algorithm"], repr(r["median_ns"])] for r in records
        ]
        pct_rows = [
            [p["pair_a"], p["pair_b"], baseline, repr(pct), repr(p["delta_pct"][baseline])]
            for p in (report["pairs"] if report is not None else ())
            for baseline, pct in p["pct"].items()
        ]
    except (
        OSError,
        # Malformed JSON, an integer past the int-to-str digit limit, or not UTF-8.
        ValueError,
        KeyError,
        SceneFormatError,
        TypeError,
        AttributeError,
    ) as exc:
        _diag(f"unreadable report ({type(exc).__name__}): {exc}")
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        _diag(f"cannot write {args.out}: {exc.strerror or exc}")
        return 1
    speed_path = os.path.join(args.out, "speed.csv")
    pct_path = os.path.join(args.out, "percentages.csv")
    if not _write_files(
        [
            (speed_path, lambda path: write_records_csv(path, SPEED_CSV_COLUMNS, speed_rows)),
            (pct_path, lambda path: write_records_csv(path, PCT_CSV_COLUMNS, pct_rows)),
        ]
    ):
        return 1

    _emit({"speed_csv": speed_path, "percentages_csv": pct_path})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyop2d",
        description="2D triangle proximity queries: pruned distance, exact oracle, and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance between two named scene objects")
    p_dist.add_argument("--scene", help="scene JSON file (default: built-in scene)")
    p_dist.add_argument("--a", required=True, help="first object name")
    p_dist.add_argument("--b", required=True, help="second object name")
    p_dist.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_dist.add_argument("--axis", choices=("x", "y"), help="movement axis override")
    p_dist.set_defaults(func=cmd_dist)

    p_bench = sub.add_parser("bench", help="run the full pairing benchmark")
    p_bench.add_argument("--scene", help="scene JSON file (default: built-in scene)")
    p_bench.add_argument("--repeats", type=int, default=1000, help="timed runs per record")
    p_bench.add_argument(
        "--algos",
        default=",".join(DEFAULT_ALGORITHMS),
        help="comma-separated algorithms (default: %(default)s)",
    )
    p_bench.add_argument("--out-csv", required=True, help="records CSV output path")
    p_bench.add_argument("--out-json", required=True, help="report JSON output path")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="randomized oracle cross-check")
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p_verify.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="emit plot-ready series from a bench report")
    p_plot.add_argument("--report", required=True, help="bench JSON report path")
    p_plot.add_argument("--out", required=True, help="output directory")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except SceneFormatError as exc:
        _diag(f"invalid scene: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
