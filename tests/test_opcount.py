"""Float operations per algorithm, counted by ``opcount``: a cost that does
not depend on the host, pinned on the paper's protocol."""

import math

from dyop2d.benchmark import ALGORITHMS, default_scene, enumerate_pairs, place_pair
from opcount import CountingFloat, counting, operations
from test_equivalence import _bits


def test_counting_float_counts_each_operation_once():
    x = CountingFloat(3.0)
    with counting() as ops:
        values = [x + 1.0, 1.0 + x, x - 1, 1 - x, 2.0 * x, x * 2.0, x / 2.0, 2.0 / x, -x, abs(x)]
        checks = [x < 1.0, x <= 1.0, x > 1.0, x >= 1.0, x == 1.0, x != 1.0, 1.0 < x]
        d = math.hypot(x, 4.0)
    assert ops == [len(values) + len(checks) + 1]
    assert all(type(v) is CountingFloat for v in values) and type(d) is CountingFloat
    assert [float(v) for v in values] == [4.0, 4.0, 2.0, -2.0, 6.0, 6.0, 1.5, 2.0 / 3.0, -3.0, 3.0]
    assert checks == [False, False, True, True, False, True, True] and d == 5.0
    # The block restores math.hypot.
    assert type(math.hypot(3.0, 4.0)) is float


def test_operation_counts_on_the_placed_pairs_are_pinned():
    # The 90 placed pairs of the default scene, the paper's protocol. Each
    # count follows from the branches a query takes, which the answer
    # digest holds on every interpreter, and every answer is the plain
    # float one, bit for bit. Per query: DyOP 164.3, GJK 154.9, Lin-Canny
    # 132.9 and the oracle 359.5 operations.
    scene = default_scene()
    pairs = [place_pair(scene, pair) for pair in enumerate_pairs(len(scene.objects))]
    totals = {}
    for name, query in ALGORITHMS.items():
        totals[name], answers = operations(query, pairs)
        assert [_bits(r) for r in answers] == [_bits(query(*pair)) for pair in pairs], name
    assert totals == {"dyop": 14786, "gjk": 13943, "lincanny": 11958, "oracle": 32354}
