"""One SHA-256 over the answers of all four public queries, pinned.

A refactor that keeps every answer bit for bit keeps this digest. It
covers the 90 placed pairs of the default scene and 1500
``random_separated_pair`` pairs (seed 7), each way round: DyOP (with the
velocity negated for the reversed pair), GJK, the oracle, and Lin-Canny
cold and then seeded with the pair it returned. Each answer contributes
``float.hex`` of its distance and witness coordinates, its features,
counters and flags, and Lin-Canny's the returned pair too; a raised
exception contributes its type and message. All inputs are disjoint, so
no ``sum()`` branch runs and the digest does not depend on the
interpreter version.

Run as a script (``PYTHONPATH=src python tests/test_answer_digest.py``)
it prints the digest, on interpreters without pytest too.
"""

import hashlib
import random

from dyop2d import (
    Vector2,
    brute_force_triangle_distance,
    default_scene,
    dyop_distance,
    gjk_distance,
    lin_canny_distance,
    place_pair,
    random_separated_pair,
)

DIGEST = "091893f43164e09b85f6872460a6b6be75c854a7c6224f237f641b2a430ce895"


def _hex(value):
    return value.hex() if isinstance(value, float) else repr(value)


def _feature(f):
    return f"{f.kind.name}{f.index}"


def _result(r):
    c = r.counters
    return " ".join(
        [_hex(r.distance), _hex(r.point_a.x), _hex(r.point_a.y), _hex(r.point_b.x), _hex(r.point_b.y)]
        + [_feature(r.feature_a), _feature(r.feature_b), f"{c.vv_tests},{c.ve_tests},{c.ee_tests}"]
        + list(r.flags)
    )


def _line(fn, *args):
    try:
        answer = fn(*args)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    if isinstance(answer, tuple):
        result, pair = answer
        return f"{_result(result)} | {_feature(pair[0])} {_feature(pair[1])}"
    return _result(answer)


def _pairs():
    scene = default_scene()
    n = len(scene.objects)
    pairs = [place_pair(scene, (i, j)) for i in range(n) for j in range(n) if i != j]
    rng = random.Random(7)
    pairs += [random_separated_pair(rng) for _ in range(1500)]
    return pairs


def answer_digest():
    h = hashlib.sha256()
    for a, b, v in _pairs():
        for ta, tb, velocity in ((a, b, v), (b, a, Vector2(-v.dx, -v.dy))):
            lines = [
                _line(dyop_distance, ta, tb, velocity),
                _line(gjk_distance, ta, tb),
                _line(brute_force_triangle_distance, ta, tb),
                _line(lin_canny_distance, ta, tb),
            ]
            try:
                _, pair = lin_canny_distance(ta, tb)
            except Exception:
                pair = None
            lines.append(_line(lin_canny_distance, ta, tb, pair))
            h.update(("\n".join(lines) + "\n").encode())
    return h.hexdigest()


def test_public_queries_match_the_pinned_digest():
    assert answer_digest() == DIGEST


if __name__ == "__main__":
    print(answer_digest())
