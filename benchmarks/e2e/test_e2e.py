"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
import verify  # noqa: E402


def served_history(writes: int = 12, seed: int = 3):
    """Drive a real session through ``writes`` scheduled moves and record
    what the service would send: acked ``(seq, ops)`` and one wire answer
    per query after every write."""
    from repro.graph import Batch, EdgeDeletion, EdgeInsertion, Graph
    from repro.serve import QueryService
    from repro.serve.protocol import snapshot_response
    from repro.session import DynamicGraphSession

    rng = random.Random(seed)
    graph = inputs.serve_graph(rng, n=120, m=3, hubs=8, writers=4, links=2)
    g = Graph(directed=False)
    for u, v, w in graph.edges:
        g.add_edge(u, v, weight=w)
    service = QueryService(DynamicGraphSession(g))
    for name, (algorithm, source) in verify.QUERIES.items():
        service.register(name, algorithm, query=source)
    service.start()
    schedule = inputs.serve_schedule(graph, sorted(verify.QUERIES), 100.0, 0.0, writes / 100.0, 2, rng)
    acked, reads = [], []
    try:
        for request in schedule:
            batch = Batch([
                EdgeInsertion(op[1], op[2], weight=op[3]) if op[0] == "+e" else EdgeDeletion(op[1], op[2])
                for op in request.ops
            ])
            acked.append((service.update(batch), request.ops))
            for name in verify.QUERIES:
                doc = json.loads(json.dumps(snapshot_response(service.read(name))))
                reads.append((name, doc["seq"], doc["answer"]))
    finally:
        service.close()
    return graph, acked, reads


def test_verifier_accepts_the_programs_answers():
    graph, acked, reads = served_history()
    assert verify.verify_serve(graph.nodes, graph.edges, acked, reads) == []


def test_verifier_catches_a_planted_wrong_answer():
    graph, acked, reads = served_history()
    name, seq, answer = next(r for r in reads if r[0] == "d0")
    wrong = dict(answer)
    node = next(k for k, v in wrong.items() if v not in ("inf", 0.0))
    wrong[node] = wrong[node] + 1.0
    problems = verify.verify_serve(graph.nodes, graph.edges, acked, reads + [(name, seq, wrong)])
    assert problems and "d0" in problems[0]


def test_verifier_catches_a_wrong_partition():
    graph, acked, reads = served_history()
    name, seq, answer = next(r for r in reads if r[0] == "cc")
    split = dict(answer)
    split[next(iter(split))] = -1  # one node moved to a component of its own
    assert verify.verify_serve(graph.nodes, graph.edges, acked, [(name, seq, split)])


def test_verifier_catches_a_planted_seq_gap():
    graph, acked, reads = served_history()
    gapped = acked[:3] + [(seq + 1, ops) for seq, ops in acked[3:]]
    problems = verify.verify_serve(graph.nodes, graph.edges, gapped, reads)
    assert problems and "gap-free" in problems[0]
    duplicated = acked + [acked[-1]]
    assert verify.verify_serve(graph.nodes, graph.edges, duplicated, reads)


def test_sweep_check_catches_a_corrupted_state():
    sg = sweep.sweep_graph(random.Random(5), n=200, m=3)
    standing = sweep.build(sg)
    live = {inputs.edge_key(u, v): w for u, v, w in sg.edges}
    adj = reference.adjacency(range(sg.nodes), sg.edges)
    ops = inputs.mixed_batch(live, sg.nodes, 20, random.Random(6))
    sweep.catch_up(standing, ops)
    reference.apply_ops(adj, ops)
    assert sweep.check(standing, sg, adj) == []
    ops = inputs.mixed_batch(live, sg.nodes, 20, random.Random(7))
    sweep.catch_up(standing, ops)
    reference.apply_ops(adj, ops)
    lcc = next(s for s in standing if s.name == "LCC")
    values = lcc.state.values
    node = next(v for kind, v in values if kind == "d" and values["d", v] >= 2)
    values["λ", node] += 1
    assert sweep.check(standing, sg, adj) == ["LCC answer differs from the oracle"]


def test_round_trip_restores_the_graph():
    sg = sweep.sweep_graph(random.Random(8), n=150, m=3)
    live = {inputs.edge_key(u, v): w for u, v, w in sg.edges}
    base = dict(live)
    adj = reference.adjacency(range(sg.nodes), sg.edges)
    forward = inputs.mixed_batch(live, sg.nodes, 30, random.Random(9))
    reference.apply_ops(adj, forward)
    reference.apply_ops(adj, inputs.inverse(forward, base))
    assert adj == reference.adjacency(range(sg.nodes), sg.edges)


def test_inputs_are_a_function_of_the_seed():
    a = inputs.serve_graph(random.Random(4))
    b = inputs.serve_graph(random.Random(4))
    assert a == b
    assert inputs.serve_graph(random.Random(5)).edges != a.edges
    assert len(a.edges) > 10_000


def test_printer_emits_every_benchmark_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    outcome = run.Outcome(attempted=3, metrics={name: 1.5 for name in run.END_TO_END})
    for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        line = json.loads(json.dumps(run.result_line(outcome, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted


def test_spans_nest_and_self_time_is_not_negative():
    recorder = spans.Recorder()

    def leaf(x):
        return sum(range(x))

    wrapped_leaf = recorder.wrap("leaf", leaf)

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    root = recorder.wrap("inc.apply", recorder.wrap("middle", middle))
    for _ in range(3):
        root(20000)
    records = recorder.spans
    assert len(records) == 12
    assert spans.check_nesting(records) == []
    selfs = spans.self_times(records)
    assert all(value >= 0 for value in selfs.values())
    by_id = {s[spans.SID]: s for s in records}
    for s in records:
        if s[spans.NAME] == "leaf":
            assert by_id[s[spans.PARENT]][spans.NAME] == "middle"


def test_installed_spans_cover_a_real_apply():
    sg = sweep.sweep_graph(random.Random(10), n=300, m=4)
    standing = sweep.build(sg)
    live = {inputs.edge_key(u, v): w for u, v, w in sg.edges}
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        sweep.catch_up(standing, inputs.mixed_batch(live, sg.nodes, 40, random.Random(11)))
    finally:
        uninstall()
    names = {s[spans.NAME] for s in recorder.spans}
    assert {"inc.apply", "kernels.kernel_apply", "core.run_fixpoint"} <= names
    assert spans.check_nesting(recorder.spans, tolerance=0.5) == []
    table = spans.layer_table(recorder.spans, 0.0, float("inf"))
    assert all(wall >= 0 and cpu >= -1e-9 for _calls, wall, cpu in table.values())
    from repro.core.incremental import IncrementalAlgorithm
    assert not hasattr(IncrementalAlgorithm.apply, "__wrapped__")


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "delta-sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_check_mode_runs_every_workload():
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last["workloads"]) == set(run.WORKLOADS)
    for result in last["workloads"].values():
        assert result["failed"] == 0
        assert all(m["value"] > 0 for m in result["metrics"].values())
