"""Deterministic differential sweep for the tie-broken repair order ``<_C``.

Figure 4's repair pass orders variables by ``(order_key, old timestamp)``
and trusts an input only if its *current* key is strictly earlier than
the popped variable's old key (docs/theory.md, "Tie-breaking the repair
order").  Timestamps therefore carry correctness weight, so every path
that lays them down or reads them back must still return the batch
fixpoint:

* both batch engines (generic push loop, dense round sweeps) as the
  initial state — they write different timestamp linearizations;
* the generic engine, the kernel engine, and generic/kernel alternating
  per window;
* a state checkpoint round trip (``core.persistence``) mid-stream, and a
  durable session that crashes and continues after ``recover``;
* Sim on the generic engine (it has no kernel), over labelled tie graphs
  and a 3-4 node pattern, checkpointed mid-stream.

Workloads are tie-heavy: integer weights in 1..3 and deletions biased
toward edges on cycles, where tied alternative supports exist.  The
fast slice runs ``REPRO_TIE_SWEEP_SEEDS`` seeds (default 60); CI runs a
wider one.
"""

from __future__ import annotations

import io
import os
import random

from repro.algorithms import (
    CCfp,
    Dijkstra,
    IncCC,
    IncReach,
    IncSSSP,
    IncSim,
    IncSSWP,
    Reachability,
    Simfp,
    WidestPath,
)
from repro.core.persistence import dump_state, load_state
from repro.graph import Batch, EdgeDeletion, EdgeInsertion, Graph
from repro.graph.updates import apply_updates
from repro.resilience import SessionConfig
from repro.session import DynamicGraphSession

SEEDS = int(os.environ.get("REPRO_TIE_SWEEP_SEEDS", "60"))
WINDOWS = 12

# name -> (batch factory, incremental factory, weighted, query, undirected only)
ALGORITHMS = {
    "SSWP": (WidestPath, IncSSWP, True, 0, False),
    "SSSP": (Dijkstra, IncSSSP, True, 0, False),
    "Reach": (Reachability, IncReach, False, 0, False),
    "CC": (CCfp, IncCC, False, None, True),
}
BATCH_ENGINES = ("generic", "kernel")
# (label, engine); "mixed" alternates generic and kernel per window.
INC_CONFIGS = (
    ("generic", "generic"),
    ("kernel", "kernel"),
    ("mixed", None),
)


def _connects(graph: Graph, src, dst, skip) -> bool:
    """Whether ``dst`` is reachable from ``src`` without using edge ``skip``."""
    seen, stack = {src}, [src]
    while stack:
        x = stack.pop()
        if x == dst:
            return True
        for y in graph.out_neighbors(x):
            if y in seen:
                continue
            if (x, y) == skip or (not graph.directed and (y, x) == skip):
                continue
            seen.add(y)
            stack.append(y)
    return False


def tie_graph(rng: random.Random, directed: bool, weighted: bool) -> Graph:
    n = rng.randint(6, 12)
    graph = Graph(directed=directed)
    for v in range(n):
        graph.ensure_node(v)
    for _ in range(rng.randint(3 * n // 2, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, weight=float(rng.randint(1, 3)) if weighted else 1.0)
    return graph


def tie_stream(rng: random.Random, graph: Graph, weighted: bool):
    """``WINDOWS`` consistent batches; deletions prefer edges on cycles."""
    work = graph.copy()
    n = work.num_nodes
    stream = []
    for _ in range(WINDOWS):
        ops = []
        for _ in range(rng.randint(1, 3)):
            edges = list(work.edges())
            if edges and rng.random() < 0.7:
                on_cycle = [(u, v) for u, v in edges if _connects(work, v, u, (u, v))]
                u, v = rng.choice(on_cycle or edges)
                op = EdgeDeletion(u, v)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or work.has_edge(u, v):
                    continue
                op = EdgeInsertion(u, v, weight=float(rng.randint(1, 3)) if weighted else 1.0)
            ops.append(op)
            apply_updates(work, Batch([op]))
        stream.append(Batch(ops))
    return stream


def scenario(seed: int, name: str):
    """``(graph, stream)`` for one seed and algorithm, or ``None``."""
    _b, _i, weighted, _q, undirected_only = ALGORITHMS[name]
    rng = random.Random(seed)
    directed = seed % 2 == 0
    if undirected_only and directed:
        return None
    graph = tie_graph(rng, directed, weighted)
    return graph, tie_stream(rng, graph, weighted)


def _round_trip(state):
    buf = io.StringIO()
    dump_state(state, buf)
    buf.seek(0)
    return load_state(buf)


def sweep_mismatches(seed: int):
    """Every ``(algorithm, batch engine, config, window)`` off the batch answer."""
    failures = []
    for name, (batch_cls, inc_cls, _w, query, _u) in ALGORITHMS.items():
        case = scenario(seed, name)
        if case is None:
            continue
        graph, stream = case
        expected, work = [], graph.copy()
        for delta in stream:
            apply_updates(work, delta)
            expected.append(batch_cls(engine="generic").run(work.copy(), query).values)

        for batch_engine in BATCH_ENGINES:
            initial = batch_cls(engine=batch_engine).run(graph.copy(), query)
            for label, engine in INC_CONFIGS:
                work, state, inc = graph.copy(), initial.copy(), inc_cls()
                for step, delta in enumerate(stream):
                    if step == WINDOWS // 2:
                        # Checkpoint leg: values, timestamps and clock go
                        # through persistence; the kernel mirror is cold.
                        state, inc = _round_trip(state), inc_cls()
                    if engine is None:
                        eng = "generic" if step % 2 else "kernel"
                    else:
                        eng = engine
                    inc.apply(work, state, delta, query, engine=eng)
                    if state.values != expected[step]:
                        failures.append((name, batch_engine, label, step))
                        break
    return failures


def sim_scenario(seed: int):
    """``(graph, pattern, stream)``: a labelled tie graph and a 3-4 node
    pattern over a small alphabet, so many pairs match by label and
    insertions can resurrect them."""
    rng = random.Random(seed)
    graph = tie_graph(rng, seed % 2 == 0, False)
    for v in graph.nodes():
        graph.set_node_label(v, rng.choice("abc"))
    pattern = Graph(directed=True)
    k = rng.randint(3, 4)
    for u in range(k):
        pattern.add_node(u, label=rng.choice("abc"))
    for _ in range(rng.randint(k - 1, k + 2)):
        u, w = rng.randrange(k), rng.randrange(k)
        if not pattern.has_edge(u, w):
            pattern.add_edge(u, w)
    return graph, pattern, tie_stream(rng, graph, False)


def sim_mismatches(seed: int):
    """Windows where generic IncSim (checkpointed mid-stream) is off batch."""
    graph, pattern, stream = sim_scenario(seed)
    work, state, inc = graph.copy(), Simfp().run(graph.copy(), pattern), IncSim()
    failures = []
    for step, delta in enumerate(stream):
        if step == WINDOWS // 2:
            state = _round_trip(state)
        inc.apply(work, state, delta, pattern)
        if state.values != Simfp().run(work.copy(), pattern).values:
            failures.append(step)
            break
    return failures


def session_mismatches(seed: int, directory):
    """Crash a durable session mid-stream, ``recover`` it, and continue."""
    names = [n for n in ALGORITHMS if scenario(seed, n) is not None]
    graph, stream = scenario(seed, "SSWP")
    session = DynamicGraphSession(
        graph.copy(), SessionConfig(directory=directory, checkpoint_every=0)
    )
    for name in names:
        session.register(name, name, query=ALGORITHMS[name][3])
    third = WINDOWS // 3
    for delta in stream[:third]:
        session.update(delta)
    session.checkpoint()
    for delta in stream[third : 2 * third]:
        session.update(delta)  # WAL tail, replayed by recover
    del session  # crash: no close, no final checkpoint

    recovered = DynamicGraphSession.recover(directory)
    work = graph.copy()
    for delta in stream[: 2 * third]:
        apply_updates(work, delta)
    failures = []
    try:
        for step, delta in enumerate(stream[2 * third :], start=2 * third):
            recovered.update(delta)
            apply_updates(work, delta)
            for name in names:
                batch_cls, _i, _w, query, _u = ALGORITHMS[name]
                if recovered.answer(name) != batch_cls(engine="generic")(work.copy(), query):
                    failures.append((name, step))
    finally:
        recovered.close()
    return failures


class TestScenarios:
    """The sweep's scenario builder yields what it claims."""

    def test_streams_are_tie_heavy_and_delete_on_cycles(self):
        deletions = on_cycle = 0
        for seed in range(20):
            graph, stream = scenario(seed, "SSWP")
            work = graph.copy()
            assert {work.weight(u, v) for u, v in work.edges()} <= {1.0, 2.0, 3.0}
            for delta in stream:
                for op in delta.updates:
                    if isinstance(op, EdgeDeletion):
                        cyclic = [e for e in work.edges() if _connects(work, e[1], e[0], e)]
                        # Off-cycle only when no edge lies on a cycle.
                        assert (op.u, op.v) in cyclic or not cyclic
                        deletions += 1
                        on_cycle += bool(cyclic)
                    apply_updates(work, Batch([op]))
        assert deletions >= 100
        assert on_cycle >= deletions // 3


class TestTieOrderSweep:
    def test_engines_tiers_and_checkpoints_match_batch(self):
        failures = {}
        for seed in range(SEEDS):
            bad = sweep_mismatches(seed)
            if bad:
                failures[seed] = bad
        assert not failures, f"{len(failures)} failing seeds: {failures}"

    def test_sim_generic_matches_batch(self):
        failures = {}
        for seed in range(SEEDS):
            bad = sim_mismatches(seed)
            if bad:
                failures[seed] = bad
        assert not failures, f"{len(failures)} failing seeds: {failures}"

    def test_recovered_sessions_match_batch(self, tmp_path):
        failures = {}
        for seed in range(SEEDS):
            bad = session_mismatches(seed, tmp_path / f"s{seed}")
            if bad:
                failures[seed] = bad
        assert not failures, f"{len(failures)} failing seeds: {failures}"
