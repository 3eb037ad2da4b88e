"""In-memory spans and the replayed per-layer calls of the traced run.

A span is (name, parent, query id, start ns, end ns). The traced run
nests them workload -> phase -> input -> query, and after each query
replays the layer functions that query depends on, each in a span of its
own whose parent is the query. A layer's self time is its span's
duration minus the part of that interval its child spans cover.

Layer functions are resolved by name when the run starts. One that a
later change removes, or whose call no longer fits, is reported as
absent with the reason, and the rest of the run goes on.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

# Per-layer probe -> (module, function). The entry points every workload
# needs (place_pair, random_separated_pair, Triangle, Point2) are not
# probes: without them the benchmark cannot run at all.
PROBES = {
    "geometry.segment_segment": ("dyop2d.geometry", "segment_segment_distance"),
    "geometry.point_segment": ("dyop2d.geometry", "point_segment_distance"),
    "geometry.overlap": ("dyop2d.geometry", "triangles_overlap"),
    "dyop.axis": ("dyop2d.dyop", "dominant_axis"),
    "dyop.gap_box": ("dyop2d.dyop", "build_internal_aabb"),
    "dyop.pivot": ("dyop2d.dyop", "compute_dyop"),
    "dyop.candidates": ("dyop2d.dyop", "select_candidates"),
    "baselines.support": ("dyop2d.baselines", "support"),
}
DYOP_STAGES = ("dyop.axis", "dyop.gap_box", "dyop.pivot", "dyop.candidates")
# Each DyOP stage replays on the output of the one before it.
NEEDS = {"dyop.gap_box": "dyop.axis", "dyop.pivot": "dyop.gap_box", "dyop.candidates": "dyop.pivot"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, name: str, parent: int, qid: int) -> int:
        self.spans.append([name, parent, qid, perf_counter_ns(), None])
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][4] = perf_counter_ns()

    def add(self, name: str, parent: int, qid: int, start: int, end: int) -> int:
        self.spans.append([name, parent, qid, start, end])
        return len(self.spans) - 1

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span[1] >= 0:
                kids[span[1]].append(i)
        return kids

    def self_times(self) -> list[int]:
        kids = self.children()
        out = []
        for span, ks in zip(self.spans, kids):
            start, end = span[3], span[4]
            covered = 0
            for k in ks:
                cs, ce = self.spans[k][3], self.spans[k][4]
                covered += max(0, min(end, ce) - max(start, cs))
            out.append(end - start - covered)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "qid", "start_ns", "end_ns"], "spans": self.spans}, fh, separators=(",", ":"))


class Probes:
    """Replays layer functions after each traced query."""

    def __init__(self, lib, tracer: Tracer) -> None:
        self.lib = lib
        self.tracer = tracer
        self.fns: dict[str, object] = {}
        self.absent: dict[str, str] = {}
        self.replay_ns = 0
        for name, (module, attr) in PROBES.items():
            try:
                fn = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError) as exc:
                self.absent[name] = f"{module}.{attr} not found ({type(exc).__name__})"
                continue
            self.fns[name] = fn

    def _step(self, name: str, parent: int, qid: int, arg_lists):
        """Time ``fn(*args)`` for each args in ``arg_lists()`` in one span."""
        fn = self.fns.get(name)
        if fn is None:
            return None
        try:
            calls = arg_lists()
            t0 = perf_counter_ns()
            for args in calls:
                out = fn(*args)
            t1 = perf_counter_ns()
        except Exception as exc:  # a probe must never stop the run; report why it went absent
            del self.fns[name]
            self.absent[name] = f"call raised {type(exc).__name__}: {exc}"
            return None
        self.tracer.add(name, parent, qid, t0, t1)
        self.replay_ns += t1 - t0
        return out

    def replay(self, algo: str, it, parent: int, qid: int) -> None:
        a, b = it.a, it.b
        step = self._step
        if algo == "dyop":
            axis = step("dyop.axis", parent, qid, lambda: [(it.v,)])
            box = None if axis is None else step("dyop.gap_box", parent, qid, lambda: [(a, b, axis)])
            pivot = None if box is None else step("dyop.pivot", parent, qid, lambda: [(box,)])
            if pivot is not None:
                step("dyop.candidates", parent, qid, lambda: [(a, pivot), (b, pivot)])
            # DyOP's four vertex-edge tests and its one edge-edge test.
            for p, s in ((a, b), (b, a)):
                for i in (0, 1):
                    step("geometry.point_segment", parent, qid, lambda: [(p.vertex(i), s.edge(0))])
            step("geometry.segment_segment", parent, qid, lambda: [(a.edge(0), b.edge(0))])
        elif algo == "oracle":
            step("geometry.overlap", parent, qid, lambda: [(a, b)])
            for i in range(3):
                for j in range(3):
                    step("geometry.segment_segment", parent, qid, lambda: [(a.edge(i), b.edge(j))])
        elif algo == "gjk":
            # GJK's first two support calls, along the centroid difference.
            dx = sum(p[0] for p in it.coords_a) / 3.0 - sum(p[0] for p in it.coords_b) / 3.0
            dy = sum(p[1] for p in it.coords_a) / 3.0 - sum(p[1] for p in it.coords_b) / 3.0
            if dx == 0.0 and dy == 0.0:
                dx = 1.0
            step("baselines.support", parent, qid, lambda: [(a, self.lib.Vector2(dx, dy))])
            step("baselines.support", parent, qid, lambda: [(b, self.lib.Vector2(-dx, -dy))])
        elif algo == "lincanny":
            step("geometry.overlap", parent, qid, lambda: [(a, b)])

    def replay_input(self, it, parent: int, qid: int) -> None:
        """Construct the input's first triangle afresh, as placement and pair generation do."""
        lib = self.lib
        (x0, y0), (x1, y1), (x2, y2) = it.coords_a
        t0 = perf_counter_ns()
        lib.Triangle(lib.Point2(x0, y0), lib.Point2(x1, y1), lib.Point2(x2, y2))
        t1 = perf_counter_ns()
        self.tracer.add("geometry.triangle_new", parent, qid, t0, t1)
        self.replay_ns += t1 - t0
