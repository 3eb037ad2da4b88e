"""The in-process timer's report has its shape; no time is pinned."""

import re
import shutil
import subprocess
from pathlib import Path

from dyop2d import baselines, benchmark
from helpers import _coords, placed
from kerneltime import CALLABLES, ROOT, input_sets, load_ref, main


def test_two_rounds_report_every_callable_on_every_input_set(capsys):
    main(["--rounds", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("µs per call, median of 2 interleaved rounds, ")
    sets = input_sets()
    row = re.compile(r"\| (\S+) \| (\d+\.\d{3}) \| (\d+\.\d{3}) \| (-|\d+\.\d{3} \((\S+)\)) \| (-|[0-2]/2) \|")
    for label, inputs in sets.items():
        at = lines.index(f"{label}, {len(inputs)} inputs")
        assert lines[at + 2 : at + 4] == [
            "| callable | µs per call | quartile spread | ratio to baseline | rounds lower |",
            "|---|---|---|---|---|",
        ]
        rows = [row.fullmatch(line) for line in lines[at + 4 : at + 4 + len(CALLABLES)]]
        assert all(rows), lines[at + 4 : at + 4 + len(CALLABLES)]
        assert [m[1] for m in rows] == list(CALLABLES)
        # The baseline's own row has no ratio; every other row is compared with it.
        assert [m[5] for m in rows] == [None] + ["dyop"] * (len(CALLABLES) - 1)
        assert [m[6] == "-" for m in rows] == [True] + [False] * (len(CALLABLES) - 1)
    assert len(sets["mover frames"]) > 0
    # Lin-Canny is timed cold and seeded with its own answer's pair.
    assert list(CALLABLES)[2:4] == ["lincanny", "lincanny-seeded"]
    # The oracle's kernel is timed as it runs, and beside it its sweep and certificate.
    assert list(CALLABLES)[-3:] == ["_brute_force", "_edge_sweep", "_separated"]


def test_a_committed_package_loads_under_another_name(tmp_path):
    # A git repository of its own holding this tree's package, so the test
    # needs no history: the package at HEAD answers as the one imported.
    package = tmp_path / "src" / "dyop2d"
    package.mkdir(parents=True)
    for path in (ROOT / "src" / "dyop2d").glob("*.py"):
        shutil.copy(path, package / path.name)
    git = ["git", "-c", "user.name=kerneltime", "-c", "user.email=kerneltime@localhost"]
    for command in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "package"]):
        subprocess.run(git + command, cwd=tmp_path, check=True)
    loaded = load_ref("HEAD", root=tmp_path)
    assert loaded.__name__ == "dyop2d_at_HEAD" and loaded.baselines is not baselines
    for a, b, _ in placed("x", 1.0)[:5]:
        assert loaded.baselines._gjk(_coords(a), _coords(b))[:5] == baselines._gjk(_coords(a), _coords(b))[:5]
        # Placement's kernel is loaded too, for the ``_offset`` callable.
        assert loaded.benchmark._offset(_coords(a), _coords(b), 1.0, 0.0, 1.0) == benchmark._offset(
            _coords(a), _coords(b), 1.0, 0.0, 1.0
        )
    # The temporary directory it was imported from is gone.
    assert not Path(loaded.__path__[0]).exists()
