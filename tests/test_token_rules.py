"""The token rules of ``src/dyop2d``: one scan of each module's tokens, and
of the text that ``geometry`` generates for the oracle's sweep, against a
table of rules.

Each rule is (tokens, token type, the one module exempt from the rule or
None, reason). Strings and comments may name any token, so a template is
one string token and its contents pass a scan of the file unseen; the
generated ``_edge_sweep`` text is therefore scanned too, as ``geometry``'s,
built from its templates by ``geometry._edge_sweep_text`` (not read back
through linecache, which ``linecache.clearcache`` empties).
A token that breaks a rule is reported as file:line, the line and the
reason.
"""

import io
import tokenize
from pathlib import Path

import pytest

from dyop2d import geometry

RULES = [
    (("**", "**="), tokenize.OP, None,
     "no power operator: squares are products, since IEEE multiplication rounds correctly"
     " and a libm pow behind ** does not always; unpacking included"),
    (("is_huge", "_pair_scale"), tokenize.NAME, "geometry.py",
     "overflow rule only in geometry: every query reaches its kernel through geometry._pair,"
     " the one place that decides whether a pair is scaled into range"),
    (("_edge_sweep", "_contact_witness", "_point_in_triangle"), tokenize.NAME, "geometry.py",
     "oracle steps only in geometry: the oracle's sweep, its overlap test and the containment"
     " test are written once there; Lin-Canny falls back by calling _brute_force"),
]


def broken(label: str, module: str, text: str) -> list[str]:
    """Each token of ``text``, scanned as the module file ``module``, that
    breaks a rule, as ``label``:line: the line  [reason]."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    return [
        f"{label}:{tok.start[0]}: {tok.line.strip()}  [{reason}]"
        for names, kind, exempt, reason in RULES
        if module != exempt
        for tok in tokens
        if tok.type == kind and tok.string in names
    ]


def test_no_module_and_no_generated_text_breaks_a_token_rule():
    sources = [(str(path), path.name, path.read_text(encoding="utf-8"))
               for path in sorted(Path(geometry.__file__).parent.glob("*.py"))]
    sources.append((geometry._edge_sweep.__code__.co_filename, "geometry.py", geometry._edge_sweep_text()))
    assert [source[1] for source in sources].count("geometry.py") == 2
    found = [line for source in sources for line in broken(*source)]
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "module,text,count",
    [
        ("geometry.py", "d = dx ** 2\n", 1),
        ("dyop.py", "d **= 2\nx, *rest = {**a}\n", 2),
        ("geometry.py", "s = '**'  # ** in a string or a comment\n", 0),
        ("dyop.py", "best = _edge_sweep(a, b)\n", 1),
        ("verify.py", "exact = _edge_sweep(a, b)[0]\n", 1),
        ("verify.py", "hit = _contact_witness(a, b)\n", 1),
        ("geometry.py", "_contact_witness(a, b) or _pair_scale(510, xs, ys)\n", 0),
        ("baselines.py", "if tA.is_huge:\n    f = _pair_scale(250, xs, ys)\n", 2),
    ],
)
def test_each_rule_reports_the_tokens_it_forbids(module, text, count):
    assert len(broken("t.py", module, text)) == count
