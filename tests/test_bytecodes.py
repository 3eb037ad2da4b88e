"""Bytecodes per query, counted by ``bytecodes``: the counter itself is
held here, and no count is pinned, since counts differ between
interpreter versions. A cost that a count cannot see, a slow global or
attribute read, is guarded here by name."""

import math
import sys
import types

from dyop2d import baselines, dyop, verify
from dyop2d.benchmark import ALGORITHMS
from dyop2d.geometry import FeatureKind
from bytecodes import bytecodes, by_function
from helpers import _bits, placed


def _leaf(x):
    return x + 1


def _caller(x):
    return _leaf(x) + _leaf(x)


def test_bytecodes_count_every_python_frame_and_restore_the_tracer():
    previous = sys.gettrace()
    leaf, answer = bytecodes(_leaf, 1)
    caller = bytecodes(_caller, 1)
    assert answer == 2 and leaf > 0
    # The caller's own bytecodes and both of its calls' frames.
    assert caller[0] > 2 * leaf and caller[1] == 4
    # Deterministic on one interpreter, and a C function runs no bytecode of its own.
    assert bytecodes(_caller, 1) == caller
    assert bytecodes(math.hypot, 3.0, 4.0) == (0, 5.0)
    assert sys.gettrace() is previous


def test_counting_bytecodes_leaves_every_answer_as_it_is():
    pairs = placed("x", 1.0)
    for name, query in ALGORITHMS.items():
        counted = [bytecodes(query, *pair) for pair in pairs]
        assert all(n > 0 for n, _ in counted), name
        assert [_bits(r) for _, r in counted] == [_bits(query(*pair)) for pair in pairs], name


def test_by_function_splits_the_count_among_the_functions_that_ran():
    split, answer = by_function(_caller, 1)
    assert answer == 4 and list(split) == ["_caller", "_leaf"]
    assert split["_leaf"] == 2 * bytecodes(_leaf, 1)[0]
    assert sum(split.values()) == bytecodes(_caller, 1)[0]


def test_no_query_looks_up_an_enum_member_per_call():
    """Each function that runs once or more per query reads the Enum
    members it needs as module globals bound at import (``dyop._X``,
    ``dyop._Y``, ``baselines._VERTEX``), never as ``MovementAxis.X`` or
    ``FeatureKind.VERTEX``. Timed with ``timeit``, one such member lookup
    took about 100-150 ns on CPython 3.11.7, against 7-14 ns for a module
    global; 154 ns on 3.10.13, 37 ns on 3.12.1 and 28 ns on 3.13.0. Each is
    one ``LOAD_ATTR``, a single bytecode, so ``bytecodes`` cannot tell it
    from a fast read: the names a function's code loads can."""
    assert (dyop._X, dyop._Y, baselines._VERTEX) == (dyop.MovementAxis.X, dyop.MovementAxis.Y, FeatureKind.VERTEX)
    functions = [
        dyop.dominant_axis,
        dyop._dyop,
        verify._separated_coords,
        verify.random_separated_pair,
        baselines.lin_canny_distance,
    ]
    for function in functions:
        names, codes = set(), [function.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        assert not names & {"MovementAxis", "FeatureKind"}, function.__name__
