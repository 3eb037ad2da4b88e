"""README.md's contract against the code, and the names the docs cite.

README states the user contract once: the CLI's algorithm names, its exit
codes, the ``bench`` CSV columns, the ``plot`` CSV columns and the flags.
Each test below reads one of those from README and compares it with the
code that produces it, so a change to either fails here until the other
follows. The last test resolves every ``module.name`` (or
``dyop2d.module.name``) that README or a ``src/dyop2d`` docstring cites.
"""

import ast
import importlib
import re
from pathlib import Path

from dyop2d import benchmark, cli, geometry

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(geometry.__file__).parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = ("geometry", "dyop", "baselines", "benchmark", "verify", "cli", "sceneio", "errors")
# A cited name: module.name or dyop2d.module.name, not a file name such as geometry.py.
CITED = re.compile(r"\b(?:dyop2d\.)?(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")


def section(title: str) -> str:
    """The text of README's section headed ``title``, up to the next heading
    of the same or a higher level; a line in a fenced block is no heading."""
    headings, fenced = {}, False
    lines = README.splitlines()
    for k, line in enumerate(lines):
        fenced ^= line.startswith("```")
        if line.startswith("#") and not fenced:
            headings[k] = len(line) - len(line.lstrip("#"))
    for k, level in headings.items():
        if lines[k][level:].strip() == title:
            end = next((j for j, other in headings.items() if j > k and other <= level), len(lines))
            return "\n".join(lines[k + 1 : end])
    raise AssertionError(f"README has no section {title!r}")


def first_column(text: str) -> list[str]:
    """The first cell of each body row of the one table in ``text``, without backticks."""
    rows = [line for line in text.splitlines() if line.startswith("|")]
    return [row.split("|")[1].strip().strip("`") for row in rows[2:]]


def source_trees() -> list[tuple[str, ast.Module]]:
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(PACKAGE.glob("*.py"))]


def emitted_flags() -> set[str]:
    """Every flag that ``src/dyop2d`` emits: a one-string tuple or list, as a
    query's flags are written, or a string appended to ``flags``. A
    formatted part of an f-string reads as ``<kind>``."""

    def text(node: ast.expr) -> str:
        if isinstance(node, ast.JoinedStr):
            return "".join(v.value if isinstance(v, ast.Constant) else "<kind>" for v in node.values)
        return node.value

    def is_string(node: ast.expr) -> bool:
        return isinstance(node, ast.JoinedStr) or (isinstance(node, ast.Constant) and isinstance(node.value, str))

    found = set()
    for _, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List)) and len(node.elts) == 1 and is_string(node.elts[0]):
                found.add(text(node.elts[0]))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "flags"
                and is_string(node.args[0])
            ):
                found.add(text(node.args[0]))
    return found


def returned_exit_codes() -> set[int]:
    """Every integer literal that a function of ``cli`` returns, either arm of
    a conditional included; True and False are not exit codes."""
    codes = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Return) and node.value is not None:
            arms = [node.value.body, node.value.orelse] if isinstance(node.value, ast.IfExp) else [node.value]
            codes.update(
                arm.value for arm in arms
                if isinstance(arm, ast.Constant) and type(arm.value) is int
            )
    return codes


def test_bench_csv_columns_are_the_records_columns():
    assert tuple(first_column(section("`bench` CSV"))) == benchmark.CSV_COLUMNS


def test_plot_csv_columns_are_the_plot_writers_columns():
    listed = {}
    for line in section("`bench` JSON and `plot` CSVs").splitlines():
        match = re.fullmatch(r"- `(\w+\.csv)`: (.*)", line)
        if match:
            listed[match[1]] = tuple(re.findall(r"`(\w+)`", match[2]))
    assert listed == {"speed.csv": cli.SPEED_CSV_COLUMNS, "percentages.csv": cli.PCT_CSV_COLUMNS}


def test_algorithm_names_are_the_registry():
    usage = section("CLI")
    (algo,) = re.findall(r"--algo ([\w|]+)", usage)
    assert algo.split("|") == list(benchmark.ALGORITHMS)
    (algos,) = re.findall(r"--algos ([\w,]+)", usage)
    assert tuple(algos.split(",")) == benchmark.DEFAULT_ALGORITHMS


def test_flags_listed_are_the_flags_emitted():
    listed = first_column(section("Flags"))
    assert len(listed) == len(set(listed))
    assert set(listed) == emitted_flags() == {
        "overlapping-boxes", "gjk-unconverged", "lincanny-fallback", "mismatch", "error:<kind>"
    }


def test_each_exit_code_is_documented_once():
    documented = [int(code) for code in first_column(section("Exit codes"))]
    assert documented == sorted(set(documented))
    assert set(documented) == returned_exit_codes() == set(range(6))


def docstrings() -> list[tuple[str, str]]:
    """(where, text) of every module, class and function docstring in
    ``src/dyop2d``, and of the generated sweep's."""
    found = []
    for name, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    found.append((f"{name}:{getattr(node, 'lineno', 1)}", doc))
    found.append(("geometry._edge_sweep", geometry._edge_sweep.__doc__))
    return found


def test_every_cited_name_resolves():
    broken = [
        f"{where} cites {module}.{name}"
        for where, text in [("README.md", README), *docstrings()]
        for module, name in CITED.findall(text)
        if name != "py" and not hasattr(importlib.import_module(f"dyop2d.{module}"), name)
    ]
    assert not broken, "\n".join(broken)


def test_the_citation_scan_reads_what_it_should():
    assert CITED.findall("`dyop2d.sceneio.write_scene`, ``geometry._pair`` and geometry.py") == [
        ("sceneio", "write_scene"), ("geometry", "_pair"), ("geometry", "py")
    ]
    assert CITED.findall("dyop2d.dyop, tests/helpers.REGIMES, BENCHMARK.json") == []
    assert any(CITED.search(text) for _, text in docstrings())
