"""dyop2d benchmark: per-query cost of DyOP, GJK, Lin-Canny and the oracle.

Run from the repository root:

    python3 perfbench/run.py --workload paper-scene --seed 1 --seconds 15 --trace 0

One process, one thread, closed loop: each query starts when the
previous one returns. Every timing is divided by the time of the frozen
oracle copy in ``frozen_oracle.py`` on one fixed pair, sampled between
the queries in the same process; that unit is ``ref``. Every answer is
checked against the frozen oracle's exact distance, computed during
set-up. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
untraced for half the time and traced for the other half and prints the
per-layer metrics. The last line of standard output is the result as one
JSON object; the lines before it list every metric with its unit, and
``perfbench/out/`` keeps the full record (and the spans, when traced).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import frozen_oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ALGOS = ("dyop", "gjk", "lincanny", "oracle")
ORDERS = tuple(ALGOS[k:] + ALGOS[:k] for k in range(len(ALGOS)))

# The answer checks. DyOP may overestimate (pruning loss) but never
# undercut the exact distance; the others must match it.
DYOP_SLACK = 1e-12
EXACT_TOL = 1e-9
BASELINE_TOL = 1e-6
# Lin-Canny's abort path adds the 36-pair sweep to the walk's own steps.
LINCANNY_SWEEP = 36

SETUP_REPEATS = 3
SETUP_TICK_NS = 2_000_000
# setup_s is set-up time in ref times this: seconds on a host whose
# reference query takes 100 us, near the fast state of the 2-core host
# the benchmark was tuned on. Raw seconds swing 1.8x with the host's state.
NOMINAL_REF_S = 1e-4
WARMUP_NS = 300_000_000
PLACE_SAMPLES = 4
PAIR_GEN_SAMPLES = 200
MAX_REPORTED_FAILURES = 20

# The reference pair: Obj1 one unit left of Obj2 in the default scene.
REF_PAIR = (
    ((-2.0, 0.0), (-1.0, 0.0), (-2.0, 1.0)),
    ((0.0, 0.0), (2.0, 0.0), (1.0, 1.7320508075688772)),
)


def load_library():
    """Import dyop2d from this checkout's src/, never from anywhere else."""
    if not (SRC / "dyop2d" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dyop2d package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dyop2d

    if Path(dyop2d.__file__).resolve().parent != SRC / "dyop2d":
        sys.exit(f"perfbench: imported dyop2d from {dyop2d.__file__}, not from {SRC}")
    return dyop2d


class RefClock:
    """Times the frozen oracle on the reference pair, between queries."""

    def __init__(self) -> None:
        self.a = frozen_oracle.triangle(REF_PAIR[0])
        self.b = frozen_oracle.triangle(REF_PAIR[1])
        self.samples = array("q")

    def sample(self) -> int:
        t0 = perf_counter_ns()
        frozen_oracle.brute_force_triangle_distance(self.a, self.b)
        ns = perf_counter_ns() - t0
        self.samples.append(ns)
        return ns

    def ns(self) -> float:
        return statistics.median(self.samples)


class SetupClock(workloads.SetupHooks):
    """Samples the reference between set-up steps, so set-up time can be given in ref."""

    def __init__(self) -> None:
        self.ref = RefClock()
        self.spent = 0  # ns inside tick(), taken off the set-up time
        self.last = perf_counter_ns()

    def tick(self) -> None:
        t0 = perf_counter_ns()
        if t0 - self.last >= SETUP_TICK_NS:
            self.ref.sample()
            self.last = perf_counter_ns()
            self.spent += self.last - t0

    def in_ref(self, wall_ns: int) -> float:
        # Set-up mixes the host's fast and slow states as the samples do,
        # so it is divided by their mean, less the samples a preemption stretched.
        samples = self.ref.samples or [self.ref.sample()]
        cut = 3 * statistics.median(samples)
        return (wall_ns - self.spent) / statistics.fmean(x for x in samples if x <= cut)


class AlgoStats:
    """Per-algorithm times in ref from every pass; answer classes and counters from the first."""

    def __init__(self) -> None:
        # Arrays rather than lists of floats, so that peak memory does not
        # grow with the number of queries a run fits in.
        self.refs = array("d")
        self.queries = 0
        self.exact = 0
        self.over = 0
        self.counter_total = 0
        self.flags: Counter = Counter()
        self.fallbacks = 0
        self.start_hits = 0


class Run:
    """The closed measuring loop over a workload's groups."""

    def __init__(self, lib, inputs, seed: int, ref: RefClock, tracer=None, probes=None, phase: int = -1) -> None:
        self.lib = lib
        self.groups = inputs.groups
        self.rng = random.Random(seed)
        self.ref = ref
        self.tracer = tracer
        self.probes = probes
        self.phase = phase
        self.stats = {a: AlgoStats() for a in ALGOS}
        self.trial_refs = array("d")
        self.item_ref: dict[int, float] = {}  # traced: query id -> the reference time it was divided by
        self.verify_trials = 0
        self.verify_mismatches = 0
        self.passes = 0
        self.items = 0
        self.loop_ns = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        dyop, gjk = lib.dyop_distance, lib.gjk_distance
        lincanny, oracle = lib.lin_canny_distance, lib.brute_force_triangle_distance
        self.calls = {
            "dyop": lambda it, seed: (dyop(it.a, it.b, it.v), None),
            "gjk": lambda it, seed: (gjk(it.a, it.b), None),
            "lincanny": lambda it, seed: lincanny(it.a, it.b, seed),
            "oracle": lambda it, seed: (oracle(it.a, it.b), None),
        }

    def measure(self, seconds: float, complete_first: bool) -> None:
        """Run passes until ``seconds`` have gone; the first pass may be made to finish."""
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        while True:
            first = self.passes == 0
            done = self._pass(None if first and complete_first else deadline)
            if not done or perf_counter_ns() >= deadline:
                break
        self.loop_ns += perf_counter_ns() - start

    def _pass(self, deadline: int | None) -> bool:
        order = list(range(len(self.groups)))
        self.rng.shuffle(order)
        first = self.passes == 0
        for gi in order:
            if deadline is not None and perf_counter_ns() >= deadline:
                return False
            self._group(gi, first)
        self.passes += 1
        return True

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(what)

    def _group(self, gi: int, first: bool) -> None:
        g = self.groups[gi]
        tr, calls, stats, sample = self.tracer, self.calls, self.stats, self.ref.sample
        seed = None
        dyop_d: list[float] = []
        # Each input's queries are divided by the mean of the reference
        # samples just before and just after them. The host switches
        # between a fast state and one about 1.8x slower every few
        # milliseconds, so only samples this close share the queries' state.
        before = sample()
        for k, it in enumerate(g.items):
            qid = self.items
            self.items += 1
            if tr is not None:
                ispan = tr.open("input", self.phase, qid)
            item_ns = []
            for algo in ORDERS[(self.passes + gi + k) % len(ALGOS)]:
                self.attempted += 1
                t0 = perf_counter_ns()
                try:
                    res, pair = calls[algo](it, seed)
                except Exception as exc:  # count it and keep measuring
                    self.fail(f"{algo} raised {type(exc).__name__}: {exc} on {it.coords_a} vs {it.coords_b}")
                    if algo == "lincanny":
                        seed = None
                    continue
                t1 = perf_counter_ns()
                item_ns.append((algo, t1 - t0))
                if tr is not None:
                    self.probes.replay(algo, it, tr.add(algo, ispan, qid, t0, t1), qid)
                if algo == "lincanny" and g.seeded:
                    seed = pair
                elif algo == "dyop":
                    dyop_d.append(res.distance)
                self._check(algo, stats[algo], res, it, first)
            if tr is not None:
                self.probes.replay_input(it, ispan, qid)
                tr.close(ispan)
            after = sample()
            unit = 0.5 * (before + after)
            before = after
            for algo, ns in item_ns:
                stats[algo].refs.append(ns / unit)
            if g.verify_seed is None:
                self.trial_refs.append(sum(ns for _, ns in item_ns) / unit)
            if tr is not None:
                self.item_ref[qid] = unit
        if g.verify_seed is not None:
            self._verify(g, before, dyop_d if len(dyop_d) == len(g.items) else None)

    def _check(self, algo: str, st: AlgoStats, res, it, first: bool) -> None:
        d = res.distance
        if algo == "dyop":
            if not d >= it.ref - DYOP_SLACK:
                self.fail(f"dyop {d!r} below exact {it.ref!r} on {it.coords_a} vs {it.coords_b}")
                return
        elif not abs(d - it.ref) <= BASELINE_TOL:
            self.fail(f"{algo} {d!r} != exact {it.ref!r} on {it.coords_a} vs {it.coords_b}")
            return
        if not first:
            return
        st.queries += 1
        total = res.counters.total()
        st.counter_total += total
        st.flags.update(res.flags)
        if algo == "dyop":
            if d > it.ref + EXACT_TOL:
                st.over += 1
            else:
                st.exact += 1
        elif algo == "lincanny":
            st.fallbacks += total > LINCANNY_SWEEP
            st.start_hits += total == 1

    def _verify(self, g, before: int, dyop_d: list[float] | None) -> None:
        n = g.verify_trials
        self.attempted += 1
        t0 = perf_counter_ns()
        try:
            rep = self.lib.run_verify(n, g.verify_seed)
        except Exception as exc:  # count it and keep measuring
            self.fail(f"run_verify({n}, {g.verify_seed}) raised {type(exc).__name__}: {exc}")
            return
        t1 = perf_counter_ns()
        if self.tracer is not None:
            self.tracer.add("run_verify", self.phase, -1, t0, t1)
        self.trial_refs.append((t1 - t0) / n / (0.5 * (before + self.ref.sample())))
        if self.passes == 0:
            self.verify_trials += rep.trials
            self.verify_mismatches += rep.mismatches
        # run_verify counts |dyop - oracle| > 1e-9 as a mismatch, as we do
        # here; a chunk whose pairs were all queried must agree exactly.
        expected = None
        if g.items and dyop_d is not None:
            expected = sum(abs(d - it.ref) > EXACT_TOL for d, it in zip(dyop_d, g.items))
        if rep.trials != n or rep.conservative_violations != 0 or expected not in (None, rep.mismatches):
            self.fail(f"run_verify({n}, {g.verify_seed}) gave {rep}; expected {expected} mismatches")


def quartile_spread(xs) -> float:
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dyop2d").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "perf_counter_resolution_s": time.get_clock_info("perf_counter").resolution,
    }


class Report:
    """Metric rows: the JSON result carries value and unit, the text lines add the base."""

    def __init__(self) -> None:
        self.rows: dict[str, dict] = {}
        self.notes: dict[str, str] = {}

    def add(self, name: str, value, unit: str, note: str = "") -> None:
        self.rows[name] = {"value": value, "unit": unit}
        self.notes[name] = note

    def ratio(self, name: str, num: int, den: int, note: str = "") -> None:
        if den == 0:
            self.absent(name, "ratio", "no queries")
        else:
            self.add(name, num / den, "ratio", f"{num}/{den}" + (f", {note}" if note else ""))

    def per_query(self, name: str, total: int, queries: int, unit: str, note: str = "") -> None:
        if queries == 0:
            self.absent(name, unit, "no queries")
        else:
            self.add(name, total / queries, unit, f"{total}/{queries}" + (f"; {note}" if note else ""))

    def absent(self, name: str, unit: str, reason: str) -> None:
        self.rows[name] = {"value": None, "unit": unit, "absent": reason}
        self.notes[name] = reason

    def print_lines(self) -> None:
        for name, row in self.rows.items():
            value = "absent" if "absent" in row else f"{row['value']:.6g}"
            note = self.notes[name]
            print(f"metric {name} = {value} {row['unit']}" + (f"  ({note})" if note else ""))


def end_to_end(run: Run, ref: RefClock, setup_ref: list[float], setup_wall: list[float]) -> Report:
    rep = Report()
    ref_ns = ref.ns()
    rep.add(
        "setup_s",
        statistics.median(setup_ref) * NOMINAL_REF_S,
        "s",
        f"median of {SETUP_REPEATS} set-ups: " + ", ".join(f"{r:.1f}" for r in setup_ref)
        + " ref; wall " + ", ".join(f"{w:.3f}" for w in setup_wall) + " s",
    )
    for algo in ALGOS:
        refs = run.stats[algo].refs
        rep.add(f"{algo}_p50_ref", statistics.median(refs), "ref", f"{len(refs)} queries")
    rep.add("trial_ref", statistics.median(run.trial_refs), "ref", f"{len(run.trial_refs)} samples")
    d = run.stats["dyop"]
    if run.verify_trials:
        rep.ratio("dyop_mismatch_rate", run.verify_mismatches, run.verify_trials, "run_verify's count over every chunk, first pass")
    else:
        rep.ratio("dyop_mismatch_rate", d.over, d.queries, "DyOP answers above the exact distance, first pass")
    rep.add("peak_rss_mb", peak_rss_mb(), "MB")
    rep.add("host.ref_ns", ref_ns, "ns", f"{len(ref.samples)} samples, quartile spread {quartile_spread(ref.samples):.3f}")
    return rep


def layer_report(plain: Run, traced: Run, tracer: tracing.Tracer, probes: tracing.Probes, ref: RefClock) -> Report:
    rep = Report()
    ref_ns = ref.ns()
    spans = tracer.spans
    by_name: dict[str, list[float]] = {}
    for span, self_ns in zip(spans, tracer.self_times()):
        # Replayed calls are divided by their input's reference time;
        # set-up and entry-layer calls (query id -1) by the run's median.
        by_name.setdefault(span[0], []).append(self_ns / traced.item_ref.get(span[2], ref_ns))

    def span_metric(metric: str, span_name: str) -> None:
        xs = by_name.get(span_name)
        if xs:
            rep.add(metric, statistics.median(xs), "ref", f"{len(xs)} calls, self time")
        elif span_name in probes.absent:
            rep.absent(metric, "ref", probes.absent[span_name])
        else:
            up = tracing.NEEDS.get(span_name)
            while up is not None and up not in probes.absent:
                up = tracing.NEEDS.get(up)
            rep.absent(metric, "ref", "no spans recorded" if up is None else f"needs {up}, which is absent")

    span_metric("geometry.segment_segment_ref", "geometry.segment_segment")
    span_metric("geometry.point_segment_ref", "geometry.point_segment")
    span_metric("geometry.overlap_ref", "geometry.overlap")
    span_metric("geometry.triangle_new_ref", "geometry.triangle_new")
    for stage in tracing.DYOP_STAGES:
        span_metric(stage + "_ref", stage)

    # Derived: DyOP query time minus its replayed stage times.
    kids = tracer.children()
    rest = []
    for i, span in enumerate(spans):
        if span[0] != "dyop":
            continue
        stage = [spans[k][4] - spans[k][3] for k in kids[i] if spans[k][0] in tracing.DYOP_STAGES]
        if len(stage) == len(tracing.DYOP_STAGES):
            rest.append((span[4] - span[3] - sum(stage)) / traced.item_ref[span[2]])
    if rest:
        rep.add("dyop.tests_ref", statistics.median(rest), "ref", f"derived: query minus stages, {len(rest)} queries")
    else:
        rep.absent("dyop.tests_ref", "ref", "needs every DyOP stage probe")

    d, g, lc = (plain.stats[a] for a in ("dyop", "gjk", "lincanny"))
    rep.per_query("dyop.tests_per_query", d.counter_total, d.queries, "tests/query")
    rep.ratio("dyop.exact_ratio", d.exact, d.queries)
    rep.ratio("dyop.overlapping_boxes_ratio", d.flags["overlapping-boxes"], d.queries)
    span_metric("baselines.support_ref", "baselines.support")
    rep.per_query("baselines.gjk.solves_per_query", g.counter_total, g.queries, "solves/query", "one solve per GJK iteration")
    rep.ratio("baselines.gjk.unconverged_ratio", g.flags["gjk-unconverged"], g.queries)
    rep.per_query("baselines.lincanny.evals_per_query", lc.counter_total, lc.queries, "evals/query")
    rep.ratio("baselines.lincanny.fallback_ratio", lc.fallbacks, lc.queries, f"counters.total() > {LINCANNY_SWEEP}")
    rep.ratio("baselines.lincanny.seed_hit_ratio", lc.start_hits, lc.queries, "walk ended on its start pair")
    span_metric("benchmark.place_pair_ref", "benchmark.place_pair")
    span_metric("verify.pair_gen_ref", "verify.pair_gen")

    rep.add("host.ref_ns", ref_ns, "ns", f"{len(ref.samples)} samples")
    plain_item = plain.loop_ns / plain.items
    traced_item = (traced.loop_ns - probes.replay_ns) / max(traced.items, 1)
    rep.add("trace.overhead_ratio", traced_item / plain_item, "ratio", "per-input wall time, traced (replays excluded) over untraced")
    for algo in ALGOS:
        refs = plain.stats[algo].refs
        p99 = statistics.quantiles(refs, n=100)[98]
        beyond = sum(r > p99 for r in refs)
        rep.add(f"tail.{algo}_p99_ref", p99, "ref", f"{beyond} of {len(refs)} untraced queries beyond it")
    return rep


def sample_entry_layers(lib, workload: str, seed: int, tracer: tracing.Tracer, parent: int) -> None:
    """Time placement and pair generation on workloads whose set-up does not call them."""
    trace = workloads.SetupTrace(tracer, parent)
    rng = random.Random(seed)
    if workload != "paper-scene":
        scene = lib.default_scene()
        for _ in range(PLACE_SAMPLES):
            pair = tuple(rng.sample(range(len(scene.objects)), 2))
            trace.call("benchmark.place_pair", lib.place_pair, scene, pair)
    if workload != "random-verify":
        for _ in range(PAIR_GEN_SAMPLES):
            trace.call("verify.pair_gen", lib.random_separated_pair, rng)


def warm_up(lib, inputs, seed: int, ref: RefClock) -> None:
    """Run the loop briefly and drop what it measured."""
    Run(lib, inputs, seed, ref).measure(WARMUP_NS / 1e9, complete_first=False)
    del ref.samples[:]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = load_library()
    build = workloads.WORKLOADS[args.workload]
    meta = metadata(args)
    ref = RefClock()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# dyop2d benchmark {tag}")
    print("meta " + json.dumps(meta, sort_keys=True))
    checks = failed = 0
    failures: list[str] = []

    if args.trace:
        tracer = tracing.Tracer()
        root = tracer.open("workload:" + args.workload, -1, -1)
        span = tracer.open("setup", root, -1)
        inputs = build(lib, args.seed, workloads.SetupTrace(tracer, span))
        tracer.close(span)
        warm_up(lib, inputs, args.seed, ref)
        plain = Run(lib, inputs, args.seed, ref)
        plain.measure(args.seconds / 2, complete_first=True)
        probes = tracing.Probes(lib, tracer)
        span = tracer.open("traced", root, -1)
        traced = Run(lib, inputs, args.seed, ref, tracer, probes, span)
        traced.measure(args.seconds / 2, complete_first=False)
        tracer.close(span)
        span = tracer.open("entry-layers", root, -1)
        sample_entry_layers(lib, args.workload, args.seed, tracer, span)
        tracer.close(span)
        tracer.close(root)
        runs = (plain, traced)
        report = layer_report(plain, traced, tracer, probes, ref)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        setup_ref, setup_wall, prints = [], [], set()
        for _ in range(SETUP_REPEATS):
            clock = SetupClock()
            t0 = perf_counter_ns()
            inputs = build(lib, args.seed, clock)
            wall = perf_counter_ns() - t0
            setup_ref.append(clock.in_ref(wall))
            setup_wall.append(wall / 1e9)
            prints.add(workloads.fingerprint(inputs))
        checks += 1
        if len(prints) != 1:
            failed += 1
            failures.append(f"{SETUP_REPEATS} set-ups from seed {args.seed} built different inputs")
        warm_up(lib, inputs, args.seed, ref)
        run = Run(lib, inputs, args.seed, ref)
        run.measure(args.seconds, complete_first=True)
        runs = (run,)
        report = end_to_end(run, ref, setup_ref, setup_wall)

    checks += inputs.checks
    failed += len(inputs.failures)
    failures += inputs.failures
    attempted = checks + sum(r.attempted for r in runs)
    failed += sum(r.failed for r in runs)
    for r in runs:
        failures += r.failures
    report.ratio("failed_ratio", failed, attempted)
    report.print_lines()
    for f in failures[:MAX_REPORTED_FAILURES]:
        print("failure " + f)

    OUT.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "metrics": report.rows,
        "notes": report.notes,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    metrics = {k: v for k, v in report.rows.items() if k in bench_metric_names(args.trace)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def bench_metric_names(trace: int) -> set[str]:
    """The metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
