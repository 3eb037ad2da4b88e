"""Bytecodes per query, counted by ``bytecodes``: the counter itself is
held here, and no count is pinned, since counts differ between
interpreter versions."""

import math
import sys

from dyop2d.benchmark import ALGORITHMS
from bytecodes import bytecodes
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
