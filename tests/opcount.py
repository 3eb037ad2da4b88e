"""Host-independent cost: count the float operations a query makes.

Every kernel is pure Python on floats, so its arithmetic can be counted
exactly. ``CountingFloat`` is a ``float`` that counts each ``+ - * /``
(either operand order: Python tries a subclass's reflected operator
first, so ``0.5 * x`` counts too), unary minus, ``abs`` and the six
comparisons, and returns its own type from arithmetic, so every value
computed from it counts in turn. ``counting()`` also wraps
``math.hypot``, which the kernels look up at call time, as one
operation. Operations on plain floats alone (constants, clamps written
as literals) are not counted, nor are calls, tuple building or
attribute access. Build the triangles with ``counting_triangle`` before
counting starts: construction decides the winding, which is not part of
a query.

    a, b = counting_triangle(t), counting_triangle(u)
    with counting() as ops:
        gjk_distance(a, b)
    print(ops[0])

Run as a script, it prints each algorithm's operations per query on
the default scene's placed pairs (along x at separations 1 and 1e-3,
and along y) and on the first 2,000 seed-7 random pairs:

    PYTHONPATH=src python tests/opcount.py
"""

from __future__ import annotations

import contextlib
import math

from dyop2d.geometry import Point2, Triangle

_tally = [0]


def _arithmetic(name):
    op = getattr(float, name)

    def method(self, other):
        _tally[0] += 1
        value = op(self, other)
        return value if value is NotImplemented else CountingFloat(value)

    return method


def _unary(name):
    op = getattr(float, name)

    def method(self):
        _tally[0] += 1
        return CountingFloat(op(self))

    return method


def _comparison(name):
    op = getattr(float, name)

    def method(self, other):
        _tally[0] += 1
        return op(self, other)

    return method


class CountingFloat(float):
    """A float whose arithmetic, negation, ``abs`` and comparisons count."""

    __slots__ = ()
    __hash__ = float.__hash__


for _name in ("add", "sub", "mul", "truediv"):
    setattr(CountingFloat, f"__{_name}__", _arithmetic(f"__{_name}__"))
    setattr(CountingFloat, f"__r{_name}__", _arithmetic(f"__r{_name}__"))
for _name in ("neg", "abs"):
    setattr(CountingFloat, f"__{_name}__", _unary(f"__{_name}__"))
for _name in ("lt", "le", "gt", "ge", "eq", "ne"):
    setattr(CountingFloat, f"__{_name}__", _comparison(f"__{_name}__"))


def counting_triangle(t: Triangle) -> Triangle:
    """``t`` with its coordinates as ``CountingFloat``s; its vertices are
    already counter-clockwise, so construction keeps their order."""
    return Triangle(*(Point2(CountingFloat(p.x), CountingFloat(p.y)) for p in t.vertices), t.name)


@contextlib.contextmanager
def counting():
    """Count operations inside the block into the yielded one-item list,
    with ``math.hypot`` counted as one operation."""
    hypot = math.hypot

    def counted_hypot(*args):
        _tally[0] += 1
        return CountingFloat(hypot(*args))

    ops = [0]
    start = _tally[0]
    math.hypot = counted_hypot
    try:
        yield ops
    finally:
        math.hypot = hypot
        ops[0] = _tally[0] - start


def operations(query, pairs) -> tuple[int, list]:
    """The operations ``query(a, b, velocity)`` makes over ``pairs`` of
    (a, b, velocity), each pair's triangles built before counting, and
    its answers."""
    total, answers = 0, []
    for a, b, velocity in pairs:
        a, b = counting_triangle(a), counting_triangle(b)
        with counting() as ops:
            answers.append(query(a, b, velocity))
        total += ops[0]
    return total, answers


def _main() -> None:
    import dataclasses
    import random

    from dyop2d.benchmark import ALGORITHMS, default_scene, enumerate_pairs, place_pair
    from dyop2d.dyop import MovementAxis
    from dyop2d.verify import random_separated_pair

    def placed(scene):
        return [place_pair(scene, pair) for pair in enumerate_pairs(len(scene.objects))]

    scene = default_scene()
    rng = random.Random(7)
    inputs = {
        "placed pairs, s = 1": placed(scene),
        "near contact, s = 1e-3": placed(dataclasses.replace(scene, separation=1e-3)),
        "placed along y, s = 1": placed(dataclasses.replace(scene, axis=MovementAxis.Y)),
        "random pairs (first 2000)": [random_separated_pair(rng) for _ in range(2000)],
    }
    print("| input | " + " | ".join(ALGORITHMS) + " |")
    print("|---|" + "---|" * len(ALGORITHMS))
    for label, pairs in inputs.items():
        per_query = [operations(query, pairs)[0] / len(pairs) for query in ALGORITHMS.values()]
        print(f"| {label} | " + " | ".join(f"{n:.1f}" for n in per_query) + " |")


if __name__ == "__main__":
    _main()
