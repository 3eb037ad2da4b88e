"""Float operations per algorithm, counted by ``opcount``: a cost that does
not depend on the host, pinned on the paper's protocol."""

import math

from dyop2d.benchmark import ALGORITHMS
from helpers import _bits, placed
from opcount import CountingFloat, counting, dyop_split, operations, oracle_split


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
    # float one, bit for bit. Per query: DyOP 119.7, GJK 89.8, Lin-Canny
    # 131.7 and the oracle 195.5 operations.
    pairs = placed("x", 1.0)
    totals = {}
    for name, query in ALGORITHMS.items():
        totals[name], answers = operations(query, pairs)
        assert [_bits(r) for r in answers] == [_bits(query(*pair)) for pair in pairs], name
    assert totals == {"dyop": 10775, "gjk": 8081, "lincanny": 11857, "oracle": 17599}
    # Wrapping a kernel to count its share leaves the query's count as it is.
    assert [dyop_split(pairs)[0], oracle_split(pairs)[0]] == [totals["dyop"], totals["oracle"]]
