"""In-process time: run named callables in interleaved rounds and compare them.

Raw times on one host swing by up to 2x between processes, and a ref p50
of perfbench can move a few percent with code that a query never runs.
So a claimed gain under a few percent is decided here: every callable
runs in the same process, on the same inputs, in rounds that interleave
them. A round times each callable once on each input set, a whole pass
over the set per timing, with the garbage collector off as ``timeit``
has it, and rotates the order of the callables from one round to the
next, reversing it every other round.

The callables are the four public queries, Lin-Canny seeded with the
pair that its own cold query returned (the seed decode of a coherent
frame), and the kernels that run on ``geometry._pair``'s in-range
coordinates: ``_dyop``, ``_gjk``, the fixed cost that every query pays
after its kernel, ``_answer`` on ``_dyop``'s answer (as
``_answer(*r, 1.0)``), placement's ``_offset`` (along the unit vector of
``dominant_axis(velocity)``, with r = 1.0), the oracle's
``_brute_force`` (the box test and the sweep, and the certificate and
the overlap test where the boxes meet), its sweep ``_edge_sweep``, and
``_separated`` on the sweep's witnesses: Lin-Canny's end certificate,
and the oracle's proof for pairs whose boxes meet. Each takes its
arguments prepared before timing. The input sets are shared with
``opcount``'s table: the default scene's placed pairs (along x at
separations 1 and 1e-3, and along y), the first 500 seed-7 random
pairs, and frames of a mover stepped past a static triangle, drawn as
``helpers.mover_frames`` draws them for ``test_geometry._sweep_cases``,
from seed 17.

Per input set and callable it prints the median µs per call over the
rounds, the quartile spread (q3 - q1 over the median), the median over
the rounds of its time over its baseline's in the same round, and the
rounds in which it was the faster of the two. ``--base REF`` loads
``src/dyop2d`` of a local git ref (``git show``, no network) under
another module name, and times each callable there too, as
``name@REF``; each callable's baseline is then its own twin at REF.
Without it the baseline is ``--baseline`` (``dyop`` by default).
Callables to time are named on the command line, all of them by
default:

    PYTHONPATH=src python tests/kerneltime.py --rounds 30
    PYTHONPATH=src python tests/kerneltime.py gjk _gjk --base HEAD~1
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _triangles(lib, a, b, velocity):
    return a, b


def _in_range(lib, a, b):
    return lib.geometry._pair(a, b)[:2]


def _dyop_arguments(lib, a, b, velocity):
    return (*_in_range(lib, a, b), lib.dyop.dominant_axis(velocity))


def _offset_arguments(lib, a, b, velocity):
    x = lib.dyop.dominant_axis(velocity) is lib.dyop.MovementAxis.X
    return (*_in_range(lib, a, b), *((1.0, 0.0) if x else (0.0, 1.0)), 1.0)


# Each callable by label: (its function in a loaded package, its
# arguments there from the pair's triangles and velocity).
CALLABLES = {
    "dyop": (lambda lib: lib.dyop.dyop_distance, lambda lib, a, b, velocity: (a, b, velocity)),
    "gjk": (lambda lib: lib.baselines.gjk_distance, _triangles),
    "lincanny": (lambda lib: lib.baselines.lin_canny_distance, _triangles),
    "lincanny-seeded": (
        lambda lib: lib.baselines.lin_canny_distance,
        lambda lib, a, b, velocity: (a, b, lib.baselines.lin_canny_distance(a, b)[1]),
    ),
    "oracle": (lambda lib: lib.geometry.brute_force_triangle_distance, _triangles),
    "_dyop": (lambda lib: lib.dyop._dyop, _dyop_arguments),
    "_gjk": (lambda lib: lib.baselines._gjk, lambda lib, a, b, velocity: _in_range(lib, a, b)),
    "_answer": (
        lambda lib: lib.geometry._answer,
        lambda lib, a, b, velocity: (*lib.dyop._dyop(*_dyop_arguments(lib, a, b, velocity)), 1.0),
    ),
    "_offset": (lambda lib: lib.benchmark._offset, _offset_arguments),
    "_brute_force": (lambda lib: lib.geometry._brute_force, lambda lib, a, b, velocity: _in_range(lib, a, b)),
    "_edge_sweep": (lambda lib: lib.geometry._edge_sweep, lambda lib, a, b, velocity: _in_range(lib, a, b)),
    "_separated": (
        lambda lib: lib.geometry._separated,
        lambda lib, a, b, velocity: (*_in_range(lib, a, b), *lib.geometry._edge_sweep(*_in_range(lib, a, b))[1:5]),
    ),
}


def input_sets() -> dict[str, list[tuple]]:
    """Each shared input set by label, as ((x0, y0, ..., y2) of A, of B,
    (vx, vy)): raw numbers, so that each loaded package builds its own
    triangles."""
    from helpers import _coords, cost_inputs, mover_frames

    sets = {
        label: [(_coords(a), _coords(b), (v.dx, v.dy)) for a, b, v in pairs]
        for label, pairs in cost_inputs(500).items()
    }
    sets["mover frames"] = list(mover_frames(random.Random(17), 400))
    return sets


def load_ref(ref: str, root: Path = ROOT):
    """The package ``src/dyop2d`` as committed at the local git ref ``ref``,
    imported under the module name ``dyop2d_at_<ref>``, in place of any
    earlier import of that name, from a temporary directory that is
    removed once every submodule is loaded."""
    listing = subprocess.run(
        ["git", "ls-tree", "--name-only", ref, "src/dyop2d/"], cwd=root, capture_output=True, encoding="utf-8", check=True
    ).stdout.split()
    name = "dyop2d_at_" + "".join(c if c.isalnum() else "_" for c in ref)
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    directory = tempfile.mkdtemp(prefix="kerneltime-")
    try:
        os.mkdir(os.path.join(directory, name))
        for path in listing:
            if path.endswith(".py"):
                source = subprocess.run(
                    ["git", "show", f"{ref}:{path}"], cwd=root, capture_output=True, check=True
                ).stdout
                with open(os.path.join(directory, name, os.path.basename(path)), "wb") as f:
                    f.write(source)
        sys.path.insert(0, directory)
        try:
            package = importlib.import_module(name)
            for module in ("geometry", "dyop", "baselines", "benchmark"):
                importlib.import_module(f"{name}.{module}")
        finally:
            sys.path.remove(directory)
    finally:
        shutil.rmtree(directory)
    return package


def _arguments(lib, prepare, inputs):
    """The argument tuples that ``prepare`` makes in the package ``lib``
    for ``inputs``, on triangles built there."""
    Point2, Triangle, Vector2 = lib.geometry.Point2, lib.geometry.Triangle, lib.geometry.Vector2
    arguments = []
    for ca, cb, (vx, vy) in inputs:
        a, b = (Triangle(*(Point2(c[i], c[i + 1]) for i in (0, 2, 4))) for c in (ca, cb))
        arguments.append(prepare(lib, a, b, Vector2(vx, vy)))
    return arguments


def _time(fn, arguments) -> float:
    """µs per call of one pass of ``fn`` over ``arguments``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        for args in arguments:
            fn(*args)
        elapsed = time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed / len(arguments) / 1000.0


def compare(callables, sets, rounds: int, baseline) -> dict[str, list[tuple]]:
    """Time the ``callables`` {label: (fn, {set label: argument tuples})}
    in ``rounds`` interleaved rounds. Returns, per set label, one row per
    callable: (label, median µs per call, quartile spread, median ratio
    to its baseline ``baseline[label]`` in the same round, rounds lower
    than it)."""
    if rounds < 2:
        raise ValueError(f"a quartile spread needs at least 2 rounds: {rounds}")
    labels = list(callables)
    times = {s: {label: [] for label in labels} for s in sets}
    for r in range(rounds):
        # A rotation alone keeps the cyclic order, so each callable would
        # always follow the same one: with --base, a twin at the ref would
        # always follow its own tree's callable, which warms the
        # interpreter's path for it. Reversed every other round, each
        # callable follows both of its neighbours in turn.
        k = (r // 2) % len(labels)
        order = labels[k:] + labels[:k]
        if r % 2:
            order.reverse()
        for s in sets:
            for label in order:
                fn, arguments = callables[label]
                times[s][label].append(_time(fn, arguments[s]))
    report = {}
    for s in sets:
        rows = []
        for label in labels:
            mine, base = times[s][label], times[s][baseline[label]]
            q = statistics.quantiles(mine, n=4)
            median = statistics.median(mine)
            ratio = statistics.median(m / b for m, b in zip(mine, base))
            lower = sum(m < b for m, b in zip(mine, base))
            rows.append((label, median, (q[2] - q[0]) / median, ratio, lower))
        report[s] = rows
    return report


def main(argv=None) -> None:
    import platform

    import dyop2d

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help=f"callables to time, of {', '.join(CALLABLES)} (default: all)")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--base", help="a local git ref whose src/dyop2d each callable is compared with")
    parser.add_argument("--baseline", default="dyop", help="without --base, the callable the others are compared with")
    args = parser.parse_args(argv)
    names = args.names or list(CALLABLES)
    unknown = [name for name in names if name not in CALLABLES]
    if unknown:
        parser.error(f"unknown callables: {', '.join(unknown)}")
    libraries = {"": dyop2d}
    if args.base:
        libraries[f"@{args.base}"] = load_ref(args.base)
        baseline = {n + tag: n + f"@{args.base}" for n in names for tag in libraries}
    else:
        if args.baseline not in names:
            names.append(args.baseline)
        baseline = {n: args.baseline for n in names}
    sets = input_sets()
    callables = {}
    for name in names:
        find, prepare = CALLABLES[name]
        for tag, lib in libraries.items():
            callables[name + tag] = find(lib), {s: _arguments(lib, prepare, inputs) for s, inputs in sets.items()}
    report = compare(callables, sets, args.rounds, baseline)
    print(f"µs per call, median of {args.rounds} interleaved rounds, "
          f"{platform.python_implementation()} {platform.python_version()}")
    for s, rows in report.items():
        print()
        print(f"{s}, {len(sets[s])} inputs")
        print()
        print("| callable | µs per call | quartile spread | ratio to baseline | rounds lower |")
        print("|---|---|---|---|---|")
        for label, median, spread, ratio, lower in rows:
            versus = "-" if label == baseline[label] else f"{ratio:.3f} ({baseline[label]})"
            lower = "-" if label == baseline[label] else f"{lower}/{args.rounds}"
            print(f"| {label} | {median:.3f} | {spread:.3f} | {versus} | {lower} |")


if __name__ == "__main__":
    main()
