"""The benchmark's traced probes still fit the package.

perfbench/tracing.py replays public layer functions after each traced
query, and reports one whose target is gone, or whose call no longer
fits, as absent. This replays every algorithm once on a placed pair, so
a change under src/ that breaks a probe fails here and not only in a
traced benchmark run. The perfbench modules are imported read-only.
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
