"""End-to-end benchmark of the reproduction: serving and the A_Δ sweep.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace 0|1] [--check]

Without ``--workload`` every workload runs in turn.  ``--trace 1`` adds
a traced run and prints the per-layer table; ``--check`` runs every
workload briefly with all correctness checks.  The last line of output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or the per-layer ones with
``--trace 1``).  A wrong answer exits 1 without printing metrics.
See README.md for the workloads, the metrics and how to read a trace.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

WORK = ROOT / ".bench_build" / "e2e"


@dataclass(frozen=True)
class Serve:
    rate: float          #: open-loop ops/s
    read_fraction: float
    shards: int
    gated: str           #: "read" or "write": the op whose latency is gated
    windows: int         #: sub-windows of the timed phase (see robust())
    leaves: bool = False  #: writers move edges among leaves, not hubs


@dataclass(frozen=True)
class Sweep:
    level: float         #: gated catch-up size, a share of |E|
    windows: int


#: Fixed rates, 30-40% of the seed commit's capacity on a 2-CPU host, so
#: that a host running 2x slower still does not saturate; see README.md.
WORKLOADS = {
    "serve-read": Serve(rate=200.0, read_fraction=0.95, shards=1, gated="read", windows=10,
                        leaves=True),
    "serve-write": Serve(rate=20.0, read_fraction=0.2, shards=1, gated="write", windows=10),
    "serve-sharded": Serve(rate=4.0, read_fraction=0.2, shards=2, gated="write", windows=4),
    "delta-sweep": Sweep(level=0.04, windows=10),
}

#: The graphs are a fixed dataset, as in the paper's experiments; the
#: seed draws the update and read streams.  Graphs drawn per seed moved
#: serve-write's CPU per op by +-20% between seeds, more than any bound.
DATASET_SEED = 0
WARMUP_S = 3.0
LAUNCHES = 5          #: cold server launches (or sweep set-ups) per run
CONNECTIONS = 2
READ_SAMPLE = 120     #: reads checked against the oracle per run
UNIT_OPS = 200
LEVELS = (0.01, 0.04, 0.16)
REPEATS = 3           #: diagnostic repeats per sweep level

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "cpu_ms_per_op": "ms",
}

PER_LAYER = {
    "serve.request_query_ms": "ms/op",
    "serve.request_update_ms": "ms/op",
    "serve.read_encode_ms": "ms/op",
    "serve.update_wait_ms": "ms/op",
    "serve.window_ms": "ms/op",
    "serve.publish_ms": "ms/op",
    "session.answer_ms": "ms/op",
    "session.update_stream_ms": "ms/op",
    "session.validate_ms": "ms/op",
    "resilience.txn_begin_ms": "ms/op",
    "graph.copy_ms": "ms/op",
    "graph.apply_updates_ms": "ms/op",
    "inc.apply_stream_ms": "ms/op",
    "graph.normalized_ms": "ms/op",
    "inc.apply_ms": "ms/op",
    "kernels.kernel_apply_ms": "ms/op",
    "core.scope_h_ms": "ms/op",
    "core.run_fixpoint_ms": "ms/op",
    "batch.run_ms": "ms/op",
    "parallel.update_stream_ms": "ms/op",
    "parallel.scatter_ms": "ms/op",
    "parallel.settle_ms": "ms/op",
    "parallel.worker_cpu_ms_per_op": "ms/op",
    "graph.copy_count": "count/op",
    "serve.ops_per_window": "count",
    "serve.queue_depth_max": "count",
    "inc.kernel_share": "fraction",
    "inc.touched": "count",
    "inc.useful_ratio": "fraction",
    "parallel.scatters_per_window": "count",
    "parallel.scatters_per_deletion_window": "count",
    "parallel.bytes_shipped": "B/op",
}


class WrongAnswer(Exception):
    """The program returned an answer the oracles reject."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def pct(values: List[float], p: float) -> float:
    """Percentile ``p`` (in [0, 1]) by linear interpolation between ranks."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summary(values: List[float]) -> str:
    if not values:
        return "n=0"
    return (f"p50 {pct(values, .5):.3f} p90 {pct(values, .9):.3f} "
            f"p95 {pct(values, .95):.3f} p99 {pct(values, .99):.3f} ms (n={len(values)})")


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
def run_serve(spec: Serve, seed: int, seconds: float, warmup: float, trace: bool,
              launches: int) -> Outcome:
    import serve
    import verify

    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})  # the generator: one thread on the last CPU
    server_cpus = {cpus[0]} if spec.shards == 1 else set(cpus)
    graph = inputs.serve_graph(random.Random(DATASET_SEED), leaves=spec.leaves)
    rng = random.Random(seed)
    WORK.mkdir(parents=True, exist_ok=True)
    graph_path = WORK / "graph.txt"
    inputs.write_edge_list(graph.edges, graph_path)
    argv = ["serve", str(graph_path), "--port", "0"] + verify.register_args()
    if spec.shards > 1:
        argv += ["--shards", str(spec.shards)]
    queries = sorted(verify.QUERIES)
    schedule = inputs.serve_schedule(
        graph, queries, spec.rate, spec.read_fraction, warmup + seconds, CONNECTIONS, rng
    )
    payloads = [serve.encode_request(r) for r in schedule]
    reads = [i for i, r in enumerate(schedule) if r.kind == "read"]
    sample = set(random.Random(seed + 1).sample(reads, min(READ_SAMPLE, len(reads))))
    timed = [i for i, r in enumerate(schedule) if r.at >= warmup]

    marks = [warmup + k * seconds / spec.windows for k in range(spec.windows + 1)]

    def phase(server):
        """Drive the whole schedule with a host probe on every server
        CPU, then verify every kept answer; returns the drive result and
        the host slowdown in each sub-window."""
        def mark(k):
            # Server-tree and worker CPU at every sub-window edge; the stats
            # scrape at the first edge resets the windowed counters.
            stats = None
            if k in (0, spec.windows):
                stats = serve.request_once(server.port, {"op": "stats"})["stats"]
            return server.cpu(), serve.cpu_seconds(server.tree()[1:]), stats

        probes = [host.Probe(cpu) for cpu in sorted(server_cpus)]
        try:
            result = serve.drive(server.port, schedule, payloads, sample, CONNECTIONS,
                                 marks=marks, on_mark=mark)
        finally:
            samples = [probe.stop() for probe in probes]
        finals = {q: serve.request_once(server.port, {"op": "query", "name": q}) for q in queries}
        check(result, finals)
        return result, host.per_window(samples, [result.start + m for m in marks])

    def check(result, finals) -> None:
        writes, checked = [], []
        for i, request in enumerate(schedule):
            line = result.kept.get(i)
            if line is None or not result.ok[i]:
                continue
            doc = json.loads(line)
            if request.kind == "write":
                writes.append((doc["seq"], request.ops))
            else:
                checked.append((request.query, doc["seq"], doc["answer"]))
        checked += [(q, doc["seq"], doc["answer"]) for q, doc in finals.items()]
        problems = verify.verify_serve(graph.nodes, graph.edges, writes, checked)
        if problems:
            raise WrongAnswer("; ".join(problems))

    outcome = Outcome()
    server = None
    log = WORK / "server.log"

    def cold_launch() -> float:
        nonlocal server
        if server is not None:
            server.stop()
        server = serve.launch(ROOT, argv, server_cpus, log)
        return server.setup_s

    try:
        # Cold launches; the last one serves.
        outcome.metrics["setup_s"] = set_up(cold_launch, launches, server_cpus, outcome)
        result, slowdowns = phase(server)
        server.stop()
        server = None
        plain = measure_serve(spec, schedule, timed, result, warmup, seconds, slowdowns, outcome)
        outcome.metrics.update(plain)
        if trace:
            spans_path = WORK / "spans.json"
            server = serve.launch(ROOT, argv, server_cpus, log, trace_path=spans_path)
            traced, slowdowns = phase(server)
            server.stop()
            server = None
            traced_metrics = measure_serve(spec, schedule, timed, traced, warmup, seconds,
                                           slowdowns, Outcome())
            report_trace(spans.load(spans_path), traced.start + warmup,
                         traced.start + warmup + seconds, len(timed), outcome)
            serve_counts(traced, len(timed), outcome)
            overhead(plain, traced_metrics, outcome)
    finally:
        if server is not None:
            server.stop()
    return outcome


def by_subwindow(at: List[float], seconds: float, windows: int) -> List[int]:
    """Sub-window index of each time offset into a timed phase."""
    return [min(int(t * windows / seconds), windows - 1) for t in at]


def robust(values: List[Optional[float]], slowdowns: List[float]) -> float:
    """Lower quartile over sub-windows of each sub-window's value divided
    by the host slowdown measured during it (``None``: no ops).  What the
    calibration misses of other tenants' bursts only ever slows a
    sub-window down; the lower quartile ignores most of that, while a
    change to the program moves every sub-window."""
    return pct([v / s for v, s in zip(values, slowdowns) if v is not None], 0.25)


def set_up(step, times: int, cpus, outcome: Outcome) -> float:
    """Median over ``times`` calls of ``step()`` (which returns its set-up
    seconds), each divided by the mean host slowdown calibrated just
    before and just after it."""
    calibration = [host.slowdown_now(cpus, 0.1)]
    raw, corrected = [], []
    for _ in range(times):
        raw.append(step())
        calibration.append(host.slowdown_now(cpus, 0.1))
        corrected.append(raw[-1] * 2 / (calibration[-2] + calibration[-1]))
    outcome.notes.append(
        f"setup {statistics.median(raw):.4f} s measured, host slowdown "
        + " ".join(f"{c:.2f}" for c in calibration)
    )
    return statistics.median(corrected)


def note_windows(slowdowns: List[float], raw: Dict[str, float], outcome: Outcome) -> None:
    outcome.notes.append(
        "host slowdown per sub-window " + " ".join(f"{s:.2f}" for s in slowdowns)
        + "; uncorrected " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items())
    )


def measure_serve(spec: Serve, schedule, timed, result, warmup, seconds,
                  slowdowns: List[float], outcome: Outcome) -> Dict[str, float]:
    latency = {"read": [], "write": []}
    late = []
    parts: List[List[float]] = [[] for _ in range(spec.windows)]
    ops = [0] * spec.windows
    offsets = [schedule[i].at - warmup for i in timed]
    for i, k in zip(timed, by_subwindow(offsets, seconds, spec.windows)):
        due = result.start + schedule[i].at
        ms = (result.done[i] - due) * 1000
        latency[schedule[i].kind].append(ms)
        late.append((result.sent[i] - due) * 1000)
        ops[k] += 1
        if schedule[i].kind == spec.gated:
            parts[k].append(ms)
    outcome.attempted += len(schedule) + 3
    outcome.failed += sum(1 for ok in result.ok if not ok)
    window_end = result.start + warmup + seconds
    in_window = sum(1 for i in timed if result.done[i] <= window_end)
    cpu = [(b[0] - a[0]) * 1000 / n if n else None
           for a, b, n in zip(result.marks, result.marks[1:], ops)]
    p50 = [pct(part, .5) if part else None for part in parts]
    workers = (result.marks[-1][1] - result.marks[0][1]) * 1000 / len(timed)
    outcome.notes += [
        f"reads   {summary(latency['read'])}",
        f"writes  {summary(latency['write'])} (update to visible)",
        f"generator lateness p95 {pct(late, .95):.3f} ms; completed in window "
        f"{in_window}/{len(timed)}" + ("  BACKLOG" if in_window < 0.98 * len(timed) else ""),
        "server CPU ms/op per sub-window " + " ".join(f"{c:.3f}" for c in cpu if c is not None)
        + f" (workers {workers:.3f} overall)",
    ]
    ones = [1.0] * len(slowdowns)
    note_windows(slowdowns, {"p50_ms": robust(p50, ones), "cpu_ms_per_op": robust(cpu, ones)}, outcome)
    return {"p50_ms": robust(p50, slowdowns), "cpu_ms_per_op": robust(cpu, slowdowns)}


def serve_counts(result, ops: int, outcome: Outcome) -> None:
    """Per-layer counts from the ``stats`` verb scraped at the phase end
    (the scrape at the phase start reset the windowed counters)."""
    (_c0, w0, _), (_c1, w1, stats) = result.marks[0], result.marks[-1]
    window = stats["window"]
    outcome.layers["serve.ops_per_window"] = window["ops"] / window["windows"] if window["windows"] else 0.0
    outcome.layers["serve.queue_depth_max"] = float(stats["queue"]["high_water"])
    outcome.layers["parallel.worker_cpu_ms_per_op"] = (w1 - w0) * 1000 / ops
    protocol = stats.get("protocol", {}).get("window")
    if protocol:
        windows = protocol["windows"]
        outcome.layers["parallel.scatters_per_window"] = protocol["scatters"] / windows if windows else 0.0
        outcome.layers["parallel.scatters_per_deletion_window"] = protocol["scatters_per_deletion_window"]
        outcome.layers["parallel.bytes_shipped"] = protocol["bytes_shipped"] / ops


def overhead(plain: Dict[str, float], traced: Dict[str, float], outcome: Outcome) -> None:
    outcome.notes.append(
        "tracing overhead: "
        + ", ".join(f"{k} {traced[k] - plain[k]:+.3f}" for k in ("p50_ms", "cpu_ms_per_op"))
        + " (traced minus untraced)"
    )


def report_trace(records, start: float, end: float, ops: int, outcome: Outcome) -> None:
    """Per-layer self time per op and the nesting check."""
    table = spans.layer_table(records, start, end)
    outcome.notes.append(f"{'span':26s} {'calls':>7s} {'self ms':>9s} {'ms/op':>8s} {'cpu ms/op':>9s}")
    for name, (calls, wall, cpu) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        outcome.notes.append(
            f"{name:26s} {calls:7d} {wall * 1000:9.1f} {wall * 1000 / ops:8.4f} {cpu * 1000 / ops:9.4f}"
        )
        outcome.layers[name + "_ms"] = wall * 1000 / ops
    copies = table.get("graph.copy", (0, 0.0))[0]
    outcome.layers["graph.copy_count"] = copies / ops
    outcome.layers.update(spans.apply_counts(records, start, end))
    chosen = [s for s in records if start <= s[spans.START] < end]
    problems = spans.check_nesting(chosen)
    outcome.notes.append("span nesting: " + ("ok" if not problems else "; ".join(problems)))
    cpu_self = spans.self_times(chosen, spans.CPU0, spans.CPU1)
    own: Dict[str, List[float]] = {}
    for s in chosen:
        if s[spans.PARENT] is None and s[spans.NAME] in spans.ROOTS:
            entry = own.setdefault(s[spans.NAME], [0.0, 0.0])
            entry[0] += s[spans.CPU1] - s[spans.CPU0]
            entry[1] += cpu_self[s[spans.SID]]
    outcome.notes.append("roots' own code: " + ", ".join(
        f"{name} {mine / total:.1%} of its CPU" for name, (total, mine) in own.items() if total
    ))


# ----------------------------------------------------------------------
# The A_Δ-vs-batch sweep
# ----------------------------------------------------------------------
def run_sweep(spec: Sweep, seed: int, seconds: float, trace: bool, launches: int,
              levels=LEVELS, unit_ops: int = UNIT_OPS, repeats: int = REPEATS) -> Outcome:
    import sweep

    here = {sorted(os.sched_getaffinity(0))[0]}
    os.sched_setaffinity(0, here)
    sg = sweep.sweep_graph(random.Random(DATASET_SEED))
    rng = random.Random(seed)
    outcome = Outcome()
    standing = None

    def build() -> float:
        nonlocal standing
        started = time.perf_counter()
        standing = sweep.build(sg)
        return time.perf_counter() - started

    outcome.metrics["setup_s"] = set_up(build, launches, here, outcome)
    live = {inputs.edge_key(u, v): w for u, v, w in sg.edges}
    adj = reference.adjacency(range(sg.nodes), sg.edges)
    size = len(sg.edges)

    def step(ops) -> Tuple[Dict[str, float], float]:
        """One catch-up: per-class seconds and the process CPU it used."""
        cpu0 = time.process_time()
        times = sweep.catch_up(standing, ops)
        cpu = time.process_time() - cpu0
        reference.apply_ops(adj, ops)
        outcome.attempted += 1
        return times, cpu

    def verified(label: str) -> None:
        problems = sweep.check(standing, sg, adj)
        if problems:
            raise WrongAnswer(f"{label}: " + "; ".join(problems))

    # Diagnostics: the unit stream, then each level with batch recompute.
    per_op = [step([op])[0] for op in inputs.mixed_batch(live, sg.nodes, unit_ops, rng)]
    verified("unit stream")
    rows = {"unit": {c: statistics.median(t[c] for t in per_op) for c in sweep.CLASSES}}
    batch: Dict[str, List[float]] = {c: [] for c in sweep.CLASSES}
    for level in levels:
        runs = []
        for _ in range(repeats):
            runs.append(step(inputs.mixed_batch(live, sg.nodes, int(level * size), rng))[0])
            for s in standing:
                batch[s.name].append(s.recompute())
        verified(f"level {level:.0%}")
        rows[f"{level:.0%}"] = {c: statistics.median(t[c] for t in runs) for c in sweep.CLASSES}
    recompute = {c: statistics.median(batch[c]) for c in sweep.CLASSES}
    sweep_notes(rows, recompute, levels, size, outcome)

    def loop(notes: Outcome) -> Tuple[Dict[str, float], List[float], float, float]:
        """Catch-ups at the gated level for ``seconds``, each followed by
        a host calibration sample: the metrics (calibration noted in
        ``notes``), all catch-up times, and the loop's start and end."""
        # Round trips: each ΔG is followed by its inverse, so the graph
        # returns to the same state and the work does not drift with the
        # number of catch-ups a run manages.
        count = int(spec.level * size)
        base = dict(live)
        at, wall, cpu, samples = [], [], [], []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            forward = inputs.mixed_batch(live, sg.nodes, count, rng)
            for ops in (forward, inputs.inverse(forward, base)):
                at.append(time.perf_counter() - started)
                times, used = step(ops)
                wall.append(sum(times.values()) * 1000)
                cpu.append(used * 1000)
                samples.append(host.sample())
            live.clear()
            live.update(base)
        ended = time.perf_counter()
        parts = [([], []) for _ in range(spec.windows)]
        for k, w, c in zip(by_subwindow(at, seconds, spec.windows), wall, cpu):
            parts[k][0].append(w)
            parts[k][1].append(c)
        p50 = [pct(w, .5) if w else None for w, _c in parts]
        mean_cpu = [statistics.mean(c) if c else None for _w, c in parts]
        slowdowns = host.per_window(
            [samples], [started + k * seconds / spec.windows for k in range(spec.windows + 1)]
        )
        ones = [1.0] * spec.windows
        note_windows(slowdowns, {"p50_ms": robust(p50, ones), "cpu_ms_per_op": robust(mean_cpu, ones)},
                     notes)
        metrics = {"p50_ms": robust(p50, slowdowns), "cpu_ms_per_op": robust(mean_cpu, slowdowns)}
        return metrics, wall, started, ended

    plain, catch_ups, _, _ = loop(outcome)
    verified("timed loop")
    outcome.metrics.update(plain)
    outcome.notes.append(f"catch-up at {spec.level:.0%} of |E|: {summary(catch_ups)}")
    if trace:
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
        try:
            traced, catch_ups, start, end = loop(Outcome())
        finally:
            uninstall()
        verified("traced loop")
        report_trace(recorder.spans, start, end, len(catch_ups), outcome)
        overhead(plain, traced, outcome)
    return outcome


def sweep_notes(rows, recompute, levels, size, outcome: Outcome) -> None:
    """Per-class A_Δ time per level, speedup vs batch and the crossover."""
    import sweep

    outcome.notes.append("A_Δ apply ms (median) per class; unit = one unit update")
    outcome.notes.append(f"{'level':>6s} " + " ".join(f"{c:>8s}" for c in sweep.CLASSES) + "      sum")
    for label, row in rows.items():
        values = [row[c] * 1000 for c in sweep.CLASSES]
        outcome.notes.append(f"{label:>6s} " + " ".join(f"{v:8.2f}" for v in values) + f" {sum(values):8.2f}")
    values = [recompute[c] * 1000 for c in sweep.CLASSES]
    outcome.notes.append(f"{'batch':>6s} " + " ".join(f"{v:8.2f}" for v in values) + f" {sum(values):8.2f}")
    for c in sweep.CLASSES:
        speedups = [recompute[c] / rows[f"{lv:.0%}"][c] for lv in levels]
        outcome.notes.append(
            f"speedup_vs_batch {c:5s} " + " ".join(f"{lv:.0%}:{s:.2f}x" for lv, s in zip(levels, speedups))
            + f"  crossover |ΔG|* ~ {crossover(levels, speedups, size)}"
        )


def crossover(levels, speedups, size) -> str:
    """Where A_Δ stops beating batch: log-linear interpolation of the
    speedup between the levels that bracket 1.0."""
    import math

    if speedups[0] <= 1.0:
        return f"< {levels[0]:.0%}"
    for (l0, s0), (l1, s1) in zip(zip(levels, speedups), zip(levels[1:], speedups[1:])):
        if s1 <= 1.0:
            t = math.log(s0) / (math.log(s0) - math.log(s1))
            share = math.exp(math.log(l0) + t * (math.log(l1) - math.log(l0)))
            return f"{share:.1%} ({int(share * size)} updates)"
    return f"> {levels[-1]:.0%}"


# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> Outcome:
    spec = WORKLOADS[name]
    launches = 1 if quick or trace else LAUNCHES
    if isinstance(spec, Serve):
        return run_serve(spec, seed, seconds, 1.0 if quick else WARMUP_S, trace, launches)
    if quick:
        return run_sweep(spec, seed, seconds, trace, launches, unit_ops=20, repeats=1)
    return run_sweep(spec, seed, seconds, trace, launches)


def result_line(outcome: Outcome, trace: bool) -> Dict:
    wanted = PER_LAYER if trace else END_TO_END
    values = outcome.layers if trace else outcome.metrics
    return {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in wanted.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="every workload, short phases, all correctness checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = 2.0 if args.check else args.seconds
    results = {}
    for name in names:
        try:
            outcome = run(name, args.seed, seconds, bool(args.trace), quick=args.check)
        except WrongAnswer as exc:
            print(f"{name}: WRONG ANSWER: {exc}", file=sys.stderr)
            return 1
        print(f"== {name} (seed {args.seed}, {seconds:g} s)")
        for note in outcome.notes:
            print(f"   {note}")
        for metric, unit in END_TO_END.items():
            print(f"   {metric:16s} {outcome.metrics[metric]:12.4f} {unit}")
        results[name] = result_line(outcome, bool(args.trace))
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({"correct": True, "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
