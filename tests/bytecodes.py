"""Host-independent cost with calls included: count the bytecodes a query runs.

Float-operation counts (``opcount``) skip calls, tuple building and
attribute access. A trace function that sets ``frame.f_trace_opcodes``
on every frame it sees gets one ``opcode`` event per bytecode the
interpreter runs, so counting those events counts everything a query
does in Python. A C function such as ``math.hypot`` counts as the one
CALL that runs it. The counts depend on the interpreter's minor version,
since each release compiles and specializes differently, but on one
interpreter they are deterministic: a change of 2% is decided by one
run, with no repeats. The tracer slows a query by some 30 times, so it
measures counts, never time.

    count, answer = bytecodes(gjk_distance, a, b)

Run as a script, it prints the interpreter and each algorithm's
bytecodes per query on the inputs of ``opcount``'s table: the default
scene's placed pairs (along x at separations 1 and 1e-3, and along y)
and the first 2,000 seed-7 random pairs:

    PYTHONPATH=src python tests/bytecodes.py
"""

from __future__ import annotations

import sys

_tally = [0]


def _tracer(frame, event, arg):
    # Called on each new frame; returned, it is that frame's local tracer.
    frame.f_trace_lines = False
    frame.f_trace_opcodes = True
    if event == "opcode":
        _tally[0] += 1
    return _tracer


def bytecodes(query, *args) -> tuple[int, object]:
    """The number of bytecodes that ``query(*args)`` runs, and its answer.

    Only frames entered after the tracer is set are traced, so this
    function's own bytecodes are not counted; any trace function that
    was set before is set again after."""
    previous = sys.gettrace()
    start = _tally[0]
    sys.settrace(_tracer)
    try:
        answer = query(*args)
    finally:
        sys.settrace(previous)
    return _tally[0] - start, answer


def per_query(query, pairs) -> float:
    """The mean bytecodes of ``query(a, b, velocity)`` over ``pairs`` of (a, b, velocity)."""
    return sum(bytecodes(query, *pair)[0] for pair in pairs) / len(pairs)


def _main() -> None:
    import platform
    import random

    from dyop2d.benchmark import ALGORITHMS
    from dyop2d.verify import random_separated_pair
    from helpers import placed

    rng = random.Random(7)
    inputs = {
        "placed pairs, s = 1": placed("x", 1.0),
        "near contact, s = 1e-3": placed("x", 1e-3),
        "placed along y, s = 1": placed("y", 1.0),
        "random pairs (first 2000)": [random_separated_pair(rng) for _ in range(2000)],
    }
    print(f"bytecodes per query, {platform.python_implementation()} {platform.python_version()}")
    print()
    print("| input | " + " | ".join(ALGORITHMS) + " |")
    print("|---|" + "---|" * len(ALGORITHMS))
    for label, pairs in inputs.items():
        print(f"| {label} | " + " | ".join(f"{per_query(query, pairs):.1f}" for query in ALGORITHMS.values()) + " |")


if __name__ == "__main__":
    _main()
