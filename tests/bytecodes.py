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
and the first 2,000 seed-7 random pairs. Then, on the placed pairs at
separation 1, it splits each algorithm's count by function
(``by_function``): the public wrapper, ``_pair``, the kernel(s) and
``_answer``, each function in the order it first runs. A count weighs
every bytecode alike, so it misses what one slow bytecode costs, such as
an Enum member lookup ``MovementAxis.X`` against a module global read:

    PYTHONPATH=src python tests/bytecodes.py
"""

from __future__ import annotations

import sys

# Bytecodes run, by function name, since the last ``by_function`` call
# began. Keyed by name, whose hash a str caches: a code object hashes its
# whole contents on every lookup.
_tally: dict[str, int] = {}


def _tracer(frame, event, arg):
    # Called on each new frame; returned, it is that frame's local tracer.
    frame.f_trace_lines = False
    frame.f_trace_opcodes = True
    if event == "opcode":
        name = frame.f_code.co_name
        _tally[name] = _tally.get(name, 0) + 1
    return _tracer


def by_function(query, *args) -> tuple[dict[str, int], object]:
    """The bytecodes that ``query(*args)`` runs in each function, by name
    in the order each first runs, and its answer.

    Only frames entered after the tracer is set are traced, so this
    function's own bytecodes are not counted; any trace function that
    was set before is set again after. Functions of one name share a
    count: every dataclass's generated ``__init__``, such as
    ``Triangle``'s, counts as ``__init__``."""
    previous = sys.gettrace()
    _tally.clear()
    sys.settrace(_tracer)
    try:
        answer = query(*args)
    finally:
        sys.settrace(previous)
    return dict(_tally), answer


def bytecodes(query, *args) -> tuple[int, object]:
    """The number of bytecodes that ``query(*args)`` runs, and its answer."""
    split, answer = by_function(query, *args)
    return sum(split.values()), answer


def per_query(query, pairs) -> float:
    """The mean bytecodes of ``query(a, b, velocity)`` over ``pairs`` of (a, b, velocity)."""
    return sum(bytecodes(query, *pair)[0] for pair in pairs) / len(pairs)


def _main() -> None:
    import platform

    from dyop2d.benchmark import ALGORITHMS
    from helpers import cost_inputs

    inputs = cost_inputs(2000)
    print(f"bytecodes per query, {platform.python_implementation()} {platform.python_version()}")
    print()
    print("| input | " + " | ".join(ALGORITHMS) + " |")
    print("|---|" + "---|" * len(ALGORITHMS))
    for label, pairs in inputs.items():
        print(f"| {label} | " + " | ".join(f"{per_query(query, pairs):.1f}" for query in ALGORITHMS.values()) + " |")
    pairs = inputs["placed pairs, s = 1"]
    print()
    print("bytecodes per query by function, placed pairs, s = 1")
    print()
    print("| algorithm | function | bytecodes |")
    print("|---|---|---|")
    for name, query in ALGORITHMS.items():
        split: dict[str, int] = {}
        for pair in pairs:
            for function, n in by_function(query, *pair)[0].items():
                split[function] = split.get(function, 0) + n
        for function, n in split.items():
            print(f"| {name} | {function} | {n / len(pairs):.1f} |")


if __name__ == "__main__":
    _main()
