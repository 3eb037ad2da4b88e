"""The benchmark's traced probes and its measuring loop still fit the package.

perfbench/tracing.py replays public layer functions after each traced
query, and reports one whose target is gone, or whose call no longer
fits, as absent. This replays every algorithm once on a placed pair, so
a change under src/ that breaks a probe fails here and not only in a
traced benchmark run. It also runs one pass of perfbench/run.py's loop,
whose Lin-Canny adapter passes each seeded frame's returned pair back as
the next frame's seed. The perfbench modules are imported read-only.
"""

import importlib
from pathlib import Path

import dyop2d

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_perfbench_probe_replays_without_going_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    item = workloads._item(*dyop2d.place_pair(dyop2d.default_scene(), (0, 1)))
    tracer = tracing.Tracer()
    probes = tracing.Probes(dyop2d, tracer)
    for algo in ("dyop", "gjk", "lincanny", "oracle"):
        probes.replay(algo, item, -1, 0)
    assert probes.absent == {}
    assert {span[0] for span in tracer.spans} == set(tracing.PROBES)


def test_one_pass_of_the_measuring_loop_passes_each_returned_pair_on_as_the_seed(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    scene = dyop2d.default_scene()
    cold = [workloads.Group([workloads._item(*dyop2d.place_pair(scene, pair))]) for pair in ((0, 1), (1, 0), (2, 3))]
    # A mover stepped along x above a static triangle, never meeting it.
    static = dyop2d.Triangle(dyop2d.Point2(0.0, 0.0), dyop2d.Point2(1.0, 0.0), dyop2d.Point2(0.0, 1.0))
    mover = dyop2d.Triangle(dyop2d.Point2(-3.0, 1.5), dyop2d.Point2(-2.0, 1.5), dyop2d.Point2(-2.5, 2.5))
    frames = [workloads._item(mover.translated(0.8 * k, 0.0), static, dyop2d.Vector2(1.0, 0.0)) for k in range(6)]
    loop = run.Run(dyop2d, workloads.Inputs(cold + [workloads.Group(frames, seeded=True)]), 1, run.RefClock())
    seeds, pairs = {}, {}
    lincanny = loop.calls["lincanny"]

    def recording(it, seed):
        res, pair = lincanny(it, seed)
        seeds[id(it)], pairs[id(it)] = seed, pair
        return res, pair

    loop.calls["lincanny"] = recording
    loop.measure(0.0, complete_first=True)
    assert (loop.passes, loop.attempted, loop.failed) == (1, 4 * (len(cold) + len(frames)), 0), loop.failures
    assert all(seeds[id(g.items[0])] is None for g in cold)
    assert seeds[id(frames[0])] is None
    assert all(seeds[id(frames[k])] is pairs[id(frames[k - 1])] for k in range(1, len(frames)))
