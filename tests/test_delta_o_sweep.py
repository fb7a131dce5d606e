"""Deterministic sweep of ΔO: ``Q(G ⊕ ΔG) = Q(G) ⊕ ΔO`` on every path.

Every built-in algorithm pair (:data:`~repro.session.ALGORITHM_PAIRS`)
runs seeded mixed windows: edge insertions and deletions, vertex
insertions (some re-creating a deleted id, some carrying an edge) and
vertex deletions.  After each step the reported ΔO must map the old
variable values onto the new ones, key for key, with ``None`` on the
missing side of a created or retired variable:

* per batch through ``apply``, on the generic engine and, where the
  spec has one, the kernel engine; per window through ``apply_stream``;
* per window through ``DynamicGraphSession.update_stream``, also with a
  step budget that quarantines queries so a batch recompute reports the
  window, and with an audit that heals a corrupted query mid-window;
* through a ``QueryService`` whose windows mix several update runs, a
  rejected op and (un)registrations: every published snapshot equals a
  fresh ``session.answer`` at the session's seq, its version bumps
  exactly when the answer changed, and its ``changed`` is |ΔO|.

The fast slice runs ``REPRO_DELTA_SWEEP_SEEDS`` seeds (default 40); CI
runs 400.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.graph import Batch, EdgeDeletion, EdgeInsertion, Graph
from repro.graph.updates import VertexDeletion, VertexInsertion, apply_updates
from repro.resilience import SessionConfig
from repro.serve.service import QueryService, _Op
from repro.serve.state import _count_changed
from repro.session import ALGORITHM_PAIRS, DynamicGraphSession

SEEDS = int(os.environ.get("REPRO_DELTA_SWEEP_SEEDS", "40"))
WINDOWS = 8
LABELS = "abc"
#: Specs with a dense kernel engine.
KERNEL = {"SSSP", "SSWP", "CC", "Reach"}
#: Answers keyed by the fixpoint variables, so |ΔO| counts changed keys.
KEYED = {"SSSP", "SSWP", "CC", "Reach", "Coreness"}
UNDIRECTED_ONLY = {"CC", "Coreness"}


def base_graph(rng: random.Random, directed: bool) -> Graph:
    n = rng.randint(6, 10)
    graph = Graph(directed=directed)
    for v in range(n):
        graph.add_node(v, label=rng.choice(LABELS))
    for _ in range(rng.randint(n, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, weight=float(rng.randint(1, 3)))
    return graph


def pattern_graph(rng: random.Random) -> Graph:
    pattern = Graph(directed=True)
    k = rng.randint(2, 3)
    for u in range(k):
        pattern.add_node(u, label=rng.choice(LABELS))
    for _ in range(rng.randint(k - 1, k + 1)):
        u, w = rng.randrange(k), rng.randrange(k)
        if not pattern.has_edge(u, w):
            pattern.add_edge(u, w)
    return pattern


def churn_windows(rng: random.Random, graph: Graph):
    """``WINDOWS`` windows of 1-3 batches of 1-3 ops, valid in order.

    Node 0 (every source query's source) is never deleted.
    """
    work = graph.copy()
    fresh = max(work.nodes()) + 1
    retired = []
    windows = []

    def draw():
        nonlocal fresh
        roll = rng.random()
        nodes = sorted(work.nodes())
        if roll < 0.15:
            if retired and rng.random() < 0.5:
                v = retired.pop(rng.randrange(len(retired)))
            else:
                v, fresh = fresh, fresh + 1
            edges = ()
            if rng.random() < 0.5:
                edges = (EdgeInsertion(v, rng.choice(nodes), weight=float(rng.randint(1, 3))),)
            return VertexInsertion(v, label=rng.choice(LABELS), edges=edges)
        if roll < 0.3 and len(nodes) > 4:
            v = rng.choice(nodes[1:])
            retired.append(v)
            return VertexDeletion(v)
        edges = list(work.edges())
        if edges and roll < 0.6:
            u, v = rng.choice(edges)
            return EdgeDeletion(u, v)
        u, v = rng.choice(nodes), rng.choice(nodes)
        if u == v or work.has_edge(u, v):
            return None
        return EdgeInsertion(u, v, weight=float(rng.randint(1, 3)))

    for _ in range(WINDOWS):
        window = []
        while not window:
            for _ in range(rng.randint(1, 3)):
                ops = []
                for _ in range(rng.randint(1, 3)):
                    op = draw()
                    if op is not None:
                        apply_updates(work, Batch([op]))
                        ops.append(op)
                if ops:
                    window.append(Batch(ops))
        windows.append(window)
    return windows


def scenario(seed: int):
    """``(graph, windows, {algorithm: query})`` for one seed."""
    rng = random.Random(seed)
    directed = seed % 2 == 0
    graph = base_graph(rng, directed)
    queries = {
        "SSSP": 0, "SSWP": 0, "Reach": 0, "LCC": None, "DFS": None,
        "Sim": pattern_graph(rng), "CC": None, "Coreness": None,
    }
    if directed:
        for name in UNDIRECTED_ONLY:
            del queries[name]
    return graph, churn_windows(rng, graph), queries


def delta_errors(before, after, changes):
    """Where ``before ⊕ changes`` is not ``after``, as ``(kind, key)``.

    ``None`` stands for a missing variable on either side of ΔO, so a
    variable whose value is ``None`` (a DFS root's parent) counts as
    absent.
    """
    errors = []
    patched = dict(before)
    for key, (old, new) in changes.items():
        if old == new:
            errors.append(("no-op", key))
        if before.get(key) != old:
            errors.append(("old", key))
        if new is None:
            patched.pop(key, None)
        else:
            patched[key] = new

    def present(values):
        return {k: v for k, v in values.items() if v is not None}

    patched, after = present(patched), present(after)
    errors.extend(
        ("new", key) for key in set(patched) | set(after) if patched.get(key) != after.get(key)
    )
    return errors


def apply_mismatches(seed: int):
    """``(algorithm, leg, step, errors)`` for every apply-level step whose
    ΔO is off, and every leg whose final state is off the batch run."""
    graph, windows, queries = scenario(seed)
    failures = []
    for name, query in queries.items():
        batch_cls, inc_cls = ALGORITHM_PAIRS[name]
        final = graph.copy()
        for window in windows:
            for batch in window:
                apply_updates(final, batch)
        expected = batch_cls().run(final, query).values
        legs = ["generic", "stream"] if hasattr(inc_cls(), "apply_stream") else ["apply"]
        if name in KERNEL:
            legs.append("kernel")
        for leg in legs:
            work, state, inc = graph.copy(), batch_cls().run(graph.copy(), query), inc_cls()
            for step, window in enumerate(windows):
                steps = [window] if leg == "stream" else [[batch] for batch in window]
                for part in steps:
                    before = dict(state.values)
                    if leg == "stream":
                        result = inc.apply_stream(work, state, part, query)
                    elif leg == "apply":
                        result = inc.apply(work, state, part[0], query)
                    else:
                        result = inc.apply(work, state, part[0], query, engine=leg)
                    errors = delta_errors(before, state.values, result.changes)
                    if errors:
                        failures.append((name, leg, step, errors))
            if state.values != expected:
                failures.append((name, leg, "final", sorted(map(str, set(state.values) ^ set(expected)))))
    return failures


def session_mismatches(seed: int, config: SessionConfig):
    """``(query, window, errors)`` where ``update_stream``'s ΔO is off,
    plus every query whose answer is off the batch run at the end."""
    graph, windows, queries = scenario(seed)
    session = DynamicGraphSession(graph.copy(), config)
    for name, query in queries.items():
        session.register(name, name, query=query)
    work = graph.copy()
    failures = []
    for step, window in enumerate(windows):
        before = {name: dict(q.state.values) for name, q in session._queries.items()}
        results = session.update_stream(window)
        for batch in window:
            apply_updates(work, batch)
        for name, registered in session._queries.items():
            errors = delta_errors(before[name], registered.state.values, results[name].changes)
            if errors:
                failures.append((name, step, errors))
    for name, query in queries.items():
        if session.answer(name) != ALGORITHM_PAIRS[name][0]()(work.copy(), query):
            failures.append((name, "final", "answer"))
    quarantined = sorted(n for n, q in session._queries.items() if q.quarantined)
    return failures, quarantined


def _update(batch: Batch) -> _Op:
    op = _Op("update", None)
    op.batch = batch
    return op


def _control(kind: str, name: str, algorithm: str = "", query=None) -> _Op:
    op = _Op(kind, None)
    op.name, op.algorithm, op.query = name, algorithm, query
    return op


def service_mismatches(seed: int):
    """Windows whose published snapshots break the publish rule."""
    graph, windows, queries = scenario(seed)
    session = DynamicGraphSession(graph.copy())
    service = QueryService(session)
    for name, query in queries.items():
        service.register(name, name, query=query)
    algorithm_of = dict.fromkeys(queries)
    algorithm_of.update({name: name for name in queries})
    failures = []
    for step, window in enumerate(windows):
        ops = [_update(batch) for batch in window]
        if step % 3 == 1:  # a rejected op splits the window into runs
            ops.insert(len(ops) // 2, _update(Batch([EdgeDeletion(-1, -2)])))
        if step % 4 == 2:  # a registration mid-window splits it too
            extra = f"reach{step}"
            ops.insert(1, _control("register", extra, "Reach", 0))
            algorithm_of[extra] = "Reach"
        if step % 4 == 3:
            ops.insert(0, _control("unregister", f"reach{step - 1}"))
        previous = {name: service.read(name) for name in service.store.names()}
        service._run_window(ops)
        assert sum(op.error is not None for op in ops) == (step % 3 == 1)
        for name in session.queries():
            snap = service.read(name)
            answer = session.answer(name)
            problems = []
            if snap.seq != session.seq:
                problems.append("seq")
            if snap.answer != answer:
                problems.append("answer")
            prev = previous.get(name)
            if prev is None:
                if snap.version != 0:
                    problems.append("initial version")
            elif prev.answer == snap.answer:
                if (snap.version, snap.changed) != (prev.version, 0) or snap.answer is not prev.answer:
                    problems.append("unchanged answer not shared")
            else:
                if snap.version != prev.version + 1:
                    problems.append("version")
                if algorithm_of[name] in KEYED:
                    if snap.changed != _count_changed(prev.answer, snap.answer):
                        problems.append("changed")
                elif snap.changed < 1:
                    problems.append("changed")
            if problems:
                failures.append((name, step, problems))
    return failures


class TestDeltaHelpers:
    def test_delta_errors_flags_each_kind(self):
        assert delta_errors({1: 1}, {1: 2, 2: 3}, {1: (1, 2), 2: (None, 3)}) == []
        assert delta_errors({1: 1}, {1: 2}, {}) == [("new", 1)]
        assert delta_errors({1: 1}, {1: 2}, {1: (0, 2)}) == [("old", 1)]
        assert ("no-op", 1) in delta_errors({1: 1}, {1: 1}, {1: (1, 1)})

    def test_scenarios_churn_vertices(self):
        kinds = set()
        recreated = 0
        for seed in range(10):
            graph, windows, _q = scenario(seed)
            seen = set(graph.nodes())
            for window in windows:
                for batch in window:
                    for op in batch.updates:
                        kinds.add(type(op).__name__)
                        if isinstance(op, VertexInsertion):
                            recreated += op.v in seen
                            seen.add(op.v)
        assert kinds == {"EdgeInsertion", "EdgeDeletion", "VertexInsertion", "VertexDeletion"}
        assert recreated > 0


class TestCreatedVariables:
    """A created variable enters ΔO as ``(None, x)`` on every path."""

    @pytest.mark.parametrize("name", sorted(KERNEL))
    @pytest.mark.parametrize("engine", ["generic", "kernel"])
    def test_vertex_insertion_on_both_engines(self, name, engine):
        batch_cls, inc_cls = ALGORITHM_PAIRS[name]
        graph = Graph(directed=False)
        graph.add_edge(0, 1, weight=1.0)
        graph.add_edge(1, 2, weight=1.0)
        query = None if name == "CC" else 0
        state, inc = batch_cls().run(graph, query), inc_cls()
        result = inc.apply(graph, state, Batch([VertexInsertion(9)]), query, engine=engine)
        assert result.changes == {9: (None, state.values[9])}
        result = inc.apply(graph, state, Batch([EdgeInsertion(2, 10, 1.0)]), query, engine=engine)
        assert result.changes[10] == (None, state.values[10])
        if name == "CC":
            assert result.changes == {10: (None, 0)}

    @pytest.mark.parametrize("name", ["SSSP", "SSWP", "CC", "Reach", "Coreness"])
    def test_vertex_insertion_through_stream_and_session(self, name):
        batch_cls, inc_cls = ALGORITHM_PAIRS[name]
        graph = Graph(directed=False)
        graph.add_edge(0, 1, weight=1.0)
        query = None if name in UNDIRECTED_ONLY else 0
        inc = inc_cls()
        if hasattr(inc, "apply_stream"):
            state = batch_cls().run(graph.copy(), query)
            result = inc.apply_stream(graph.copy(), state, [Batch([VertexInsertion(9)])], query)
            assert result.changes == {9: (None, state.values[9])}
        session = DynamicGraphSession(graph.copy())
        session.register("q", name, query=query)
        results = session.update_stream([Batch([VertexInsertion(9)])])
        assert results["q"].changes == {9: (None, session.answer("q")[9])}

    def test_delete_then_recreate_across_applies_composes(self):
        graph = Graph(directed=False)
        graph.add_edge(0, 1, weight=1.0)
        graph.add_edge(1, 2, weight=1.0)
        session = DynamicGraphSession(graph)
        session.register("cc", "CC")
        results = session.update_stream(
            [Batch([VertexDeletion(2)]), Batch([VertexInsertion(2)])]
        )
        assert results["cc"].changes == {2: (0, 2)}


class TestAuditHeal:
    def test_heal_is_folded_into_the_window_delta(self):
        graph = Graph(directed=True)
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            graph.add_edge(u, v, weight=1.0)
        session = DynamicGraphSession(graph, SessionConfig(audit_every=1, audit_sample=100))
        session.register("d", "SSSP", query=0)
        state = session._queries["d"].state
        state.values[3] = 0.5  # a divergent value the audit must heal
        before = dict(state.values)
        results = session.update_stream([Batch([EdgeInsertion(0, 4, 1.0)])])
        after = session._queries["d"].state.values
        assert session.incidents.by_kind("self-heal")
        assert after[3] == 3.0
        assert delta_errors(before, after, results["d"].changes) == []


class TestDeltaOSweep:
    def test_apply_and_stream_deltas_are_complete(self):
        failures = {}
        for seed in range(SEEDS):
            bad = apply_mismatches(seed)
            if bad:
                failures[seed] = bad
        assert not failures, f"{len(failures)} failing seeds: {failures}"

    def test_session_deltas_are_complete(self):
        failures = {}
        for seed in range(SEEDS):
            bad, _quarantined = session_mismatches(seed, SessionConfig())
            if bad:
                failures[seed] = bad
        assert not failures, f"{len(failures)} failing seeds: {failures}"

    def test_quarantined_recompute_deltas_are_complete(self):
        failures, quarantined = {}, set()
        for seed in range(SEEDS):
            bad, names = session_mismatches(seed, SessionConfig(step_budget=1))
            quarantined.update(names)
            if bad:
                failures[seed] = bad
        assert not failures, f"{len(failures)} failing seeds: {failures}"
        assert {"SSSP", "Sim"} <= quarantined

    def test_published_snapshots_follow_the_delta(self):
        failures = {}
        for seed in range(SEEDS):
            bad = service_mismatches(seed)
            if bad:
                failures[seed] = bad
        assert not failures, f"{len(failures)} failing seeds: {failures}"
