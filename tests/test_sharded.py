"""Tests for the sharded serving tier (`repro.parallel.router` / `worker`).

The correctness anchor is *differential equivalence*: a
:class:`ShardedSession` over any shard count must serve exactly the
answers of a single :class:`DynamicGraphSession` fed the same windows,
deletions included.  CC answers are compared as partitions (component
labels are representative-dependent).  Alongside it runs the *fragment
contract*: after every window each shard's session holds exactly its
fragment of the writer's graph and registers no query.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import random_graph
from repro.errors import ShardRecoveryError, ShardedDirectoryError, ShardingError
from repro.graph import Graph
from repro.graph import Batch, EdgeDeletion, EdgeInsertion, VertexDeletion, VertexInsertion
from repro.graph.updates import apply_updates
from repro.parallel import ShardedSession
from repro.resilience import SHARDING_FILE, SessionConfig
from repro.resilience.faults import injected
from repro.session import DynamicGraphSession

settings.register_profile("repro-sharded", deadline=None, max_examples=15)
settings.load_profile("repro-sharded")

ALGOS = [("sssp", "SSSP", 0), ("sswp", "SSWP", 0), ("cc", "CC", None), ("reach", "Reach", 0)]


def cc_partition(answer):
    groups = {}
    for node, label in answer.items():
        groups.setdefault(label, set()).add(node)
    return frozenset(frozenset(g) for g in groups.values())


def make_pair(graph, shards, seed=0, processes=False):
    single = DynamicGraphSession(graph.copy())
    sharded = ShardedSession(graph.copy(), shards, seed=seed, processes=processes)
    for name, algo, query in ALGOS:
        single.register(name, algo, query=query)
        sharded.register(name, algo, query=query)
    return single, sharded


def assert_equivalent(single, sharded, context="", seq_offset=0):
    assert single.seq + seq_offset == sharded.seq, context
    for name, _algo, _query in ALGOS:
        a, b = single.answer(name), sharded.answer(name)
        if name == "cc":
            assert cc_partition(a) == cc_partition(b), f"{context} {name}"
        else:
            assert a == b, f"{context} {name}"


def assert_fragments_match(sharded, context=""):
    """Every in-process shard holds exactly its fragment of the writer's
    graph — the nodes the router counts as present, every global edge
    incident to a node it owns with the global weight, the owned nodes'
    global labels — and registers no query."""
    graph = sharded.graph

    def key(u, v):
        return (u, v) if graph.directed else frozenset((u, v))

    for shard, present in zip(sharded._shards, sharded._present):
        i, session = shard.worker.index, shard.worker.session
        fragment = session.graph
        where = f"{context} shard {i}"
        assert not session._queries, f"{where} registers {list(session._queries)}"
        assert set(fragment.nodes()) == present, where
        owned = {v for v in graph.nodes() if sharded._owner(v) == i}
        assert owned <= present <= set(graph.nodes()), where
        incident = {key(u, v): (u, v) for u, v in graph.edges() if u in owned or v in owned}
        assert {key(u, v) for u, v in fragment.edges()} == set(incident), where
        for u, v in incident.values():
            assert fragment.weight(u, v) == graph.weight(u, v), f"{where} edge {(u, v)!r}"
        for v in owned:
            assert fragment.node_label(v) == graph.node_label(v), f"{where} node {v!r}"


def random_windows(rng, graph, steps, next_id):
    """Valid mutation windows applied to ``graph`` in lockstep."""
    for _ in range(steps):
        ops = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            nodes = list(graph.nodes())
            edges = list(graph.edges())
            if kind < 0.35 and len(nodes) >= 2:
                u, v = rng.sample(nodes, 2)
                if not graph.has_edge(u, v):
                    ops.append(EdgeInsertion(u, v, weight=float(rng.randint(1, 9))))
            elif kind < 0.60 and edges:
                u, v = rng.choice(edges)
                ops.append(EdgeDeletion(u, v))
            elif kind < 0.75:
                v = next_id[0]
                next_id[0] += 1
                attach = []
                if nodes:
                    attach.append(
                        EdgeInsertion(v, rng.choice(nodes), weight=float(rng.randint(1, 9)))
                    )
                ops.append(VertexInsertion(v, None, tuple(attach)))
            elif kind < 0.85 and len(nodes) > 5:
                candidate = rng.choice(nodes)
                if candidate != 0:  # keep the registered source alive
                    ops.append(VertexDeletion(candidate))
        valid = []
        scratch = graph.copy()
        for op in ops:
            try:
                apply_updates(scratch, Batch([op]))
                valid.append(op)
            except Exception:
                continue
        batch = Batch(valid)
        apply_updates(graph, batch)
        yield batch


class TestDegenerateCase:
    def test_one_shard_equals_single_session(self):
        rng = random.Random(1)
        g = random_graph(rng, 20, 45, directed=False, weighted=True)
        single, sharded = make_pair(g, shards=1)
        stream, next_id = g.copy(), [1000]
        for step, batch in enumerate(random_windows(rng, stream, 30, next_id)):
            single.update(batch)
            sharded.update(batch)
            assert_equivalent(single, sharded, f"step {step}")
        sharded.close()
        single.close()


class TestBoundaryDeletions:
    def test_cut_edge_deletion_repairs_across_shards(self):
        # A path that is guaranteed to cross shard boundaries: deleting
        # an interior edge must raise downstream SSSP/SSWP/Reach values
        # of nodes owned by *other* shards.
        g = random_graph(random.Random(0), 0, 0, directed=False)
        for v in range(10):
            g.ensure_node(v)
        for v in range(9):
            g.add_edge(v, v + 1, weight=1.0)
        single, sharded = make_pair(g, shards=3)
        cut = Batch([EdgeDeletion(4, 5)])
        single.update(cut)
        sharded.update(cut)
        assert_equivalent(single, sharded, "after cut")
        # Re-connect through a longer detour and check values heal.
        detour = Batch([EdgeInsertion(4, 9, weight=5.0)])
        single.update(detour)
        sharded.update(detour)
        assert_equivalent(single, sharded, "after detour")
        sharded.close()
        single.close()

    def test_component_split_and_merge(self):
        g = random_graph(random.Random(0), 0, 0, directed=False)
        for v in range(8):
            g.ensure_node(v)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (3, 4)]:
            g.add_edge(u, v, weight=2.0)
        single, sharded = make_pair(g, shards=4)
        for batch in (
            Batch([EdgeDeletion(3, 4)]),  # split into two components
            Batch([EdgeInsertion(0, 7, weight=1.0)]),  # merge them back
            Batch([VertexDeletion(5)]),  # split the ring again
        ):
            single.update(batch)
            sharded.update(batch)
            assert_equivalent(single, sharded, f"after {list(batch)}")
        sharded.close()
        single.close()


def run_differential(seed, shards, steps=12):
    rng = random.Random(seed)
    g = random_graph(rng, 16, 36, directed=False, weighted=True)
    single, sharded = make_pair(g, shards=shards, seed=seed)
    stream, next_id = g.copy(), [1000]
    try:
        assert_fragments_match(sharded, f"seed {seed} shards {shards} registration")
        for step, batch in enumerate(random_windows(rng, stream, steps, next_id)):
            single.update(batch)
            sharded.update(batch)
            context = f"seed {seed} shards {shards} step {step}"
            assert_equivalent(single, sharded, context)
            assert_fragments_match(sharded, context)
    finally:
        sharded.close()
        single.close()


class TestDifferentialEquivalence:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
    )
    @example(seed=358, shards=2)
    def test_random_streams_match_single_session(self, seed, shards):
        run_differential(seed, shards)

    @pytest.mark.slow
    def test_seed_sweep_matches_single_session(self):
        # Deterministic coverage: every seed in 0-599 at 2, 3 and 4
        # shards, reporting every failing pair rather than the first.
        failures = []
        for shards in (2, 3, 4):
            for seed in range(600):
                try:
                    run_differential(seed, shards)
                except AssertionError as exc:
                    failures.append((seed, shards, str(exc).splitlines()[0]))
        assert not failures, f"{len(failures)} failing (seed, shards) pairs: {failures}"


class TestBoundaryFlapProtocol:
    """Adversarial boundary flapping: delete/reinsert cut edges.

    Beyond differential equivalence, these assert the cost contract:
    every deletion window costs exactly one scatter (``apply``).
    """

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.sampled_from(["delete", "reinsert", "both"]), min_size=4, max_size=10),
    )
    def test_cut_edge_flaps_match_in_one_scatter(self, seed, moves):
        g = random_graph(random.Random(0), 0, 0, directed=False)
        for v in range(12):
            g.ensure_node(v)
        path = [(v, v + 1) for v in range(11)]
        for u, v in path:
            g.add_edge(u, v, weight=1.0)
        single, sharded = make_pair(g, shards=3, seed=seed)
        sharded.protocol_stats.snapshot(reset=True)
        rng = random.Random(seed)
        # Flap edges that straddle shard boundaries: every move must
        # reach both endpoints' fragments.
        owner = lambda v: sharded._owner(v)
        cut_edges = [e for e in path if owner(e[0]) != owner(e[1])] or path
        live = set(path)
        try:
            for step, move in enumerate(moves):
                ops = []
                if move in ("delete", "both"):
                    victims = [e for e in cut_edges if e in live]
                    if victims:
                        e = rng.choice(victims)
                        live.discard(e)
                        ops.append(EdgeDeletion(*e))
                if move in ("reinsert", "both"):
                    missing = [e for e in path if e not in live]
                    if missing:
                        e = rng.choice(missing)
                        live.add(e)
                        ops.append(EdgeInsertion(*e, weight=1.0))
                if not ops:
                    continue
                batch = Batch(ops)
                single.update(batch)
                sharded.update(batch)
                assert_equivalent(single, sharded, f"seed {seed} step {step} {move}")
                assert_fragments_match(sharded, f"seed {seed} step {step} {move}")
            window = sharded.protocol_stats.snapshot()["window"]
            if window["deletion_windows"]:
                assert window["scatters_per_deletion_window"] == 1.0
            assert window["scatters"] == window["apply_scatters"] == window["windows"]
        finally:
            sharded.close()
            single.close()


class TestScatterCost:
    def test_registration_sends_no_scatter(self):
        g = random_graph(random.Random(2), 20, 40, directed=False, weighted=True)
        sharded = ShardedSession(g, 3, processes=False)
        try:
            for name, algo, query in ALGOS:
                sharded.protocol_stats.snapshot(reset=True)
                sharded.register(name, algo, query=query)
                assert sharded.protocol_stats.snapshot()["window"]["scatters"] == 0, name
                assert sharded.seq == -1, name
            assert_fragments_match(sharded, "registration")
        finally:
            sharded.close()

    def test_recovery_is_a_handshake_and_one_export_scatter(self, tmp_path):
        g = random_graph(random.Random(2), 20, 40, directed=False, weighted=True)
        sharded = ShardedSession(g, 3, config=SessionConfig(directory=tmp_path), processes=False)
        for name, algo, query in ALGOS:
            sharded.register(name, algo, query=query)
        sharded.update(Batch([EdgeDeletion(*next(iter(sharded.graph.edges())))]))
        sharded.close()
        recovered = ShardedSession.recover(tmp_path)
        try:
            life = recovered.protocol_stats.snapshot()["lifetime"]
            assert life["scatters"] == 2  # info + export_fragment
            assert life["apply_scatters"] == 0
            assert_fragments_match(recovered, "recovery")
        finally:
            recovered.close()

    def test_rejected_window_scatters_nothing(self):
        from repro.errors import BatchValidationError

        g = random_graph(random.Random(2), 20, 40, directed=False, weighted=True)
        single, sharded = make_pair(g, shards=3)
        try:
            seq = sharded.seq
            sharded.protocol_stats.snapshot(reset=True)
            with pytest.raises(BatchValidationError):
                sharded.update(Batch([EdgeDeletion(0, 10_000)]))
            assert sharded.seq == seq
            assert sharded.protocol_stats.snapshot()["window"]["scatters"] == 0
            assert all(s.worker.session.seq == seq for s in sharded._shards)
        finally:
            sharded.close()
            single.close()


class TestReplicaStep:
    """Shards log ΔG on their fragments; they hold no query, so they
    never run A_Δ."""

    def test_shards_run_no_incremental_algorithm(self):
        g = random_graph(random.Random(5), 20, 45, directed=False, weighted=True)
        single, sharded = make_pair(g, shards=3)
        graph, owner = sharded.graph, sharded._owner
        edges = sorted(graph.edges())
        cut = [e for e in edges if owner(e[0]) != owner(e[1])]
        u = cut[0][0]
        w = next(
            x for x in sorted(graph.nodes())
            if owner(x) != owner(u) and x != u and not graph.has_edge(u, x)
        )
        local = next(e for e in edges if owner(e[0]) == owner(e[1]))
        victim = next(v for e in cut[2:] for v in e if v != 0 and v not in local)
        label = graph.node_label(victim)
        fresh = 100
        anchor = next(x for x in sorted(graph.nodes()) if owner(x) != owner(fresh))
        windows = [
            # Cut-edge moves, there and back.
            [Batch([EdgeDeletion(*cut[0]), EdgeInsertion(u, w, weight=1.0)])],
            [Batch([EdgeDeletion(u, w), EdgeInsertion(*cut[0], weight=2.0)])],
            [Batch([VertexInsertion(fresh, None, (EdgeInsertion(fresh, anchor, weight=1.0),))])],
            [Batch([VertexDeletion(victim)])],
            # Re-insertion of the deleted node, now hanging off the source.
            [Batch([VertexInsertion(victim, label, (EdgeInsertion(victim, 0, weight=3.0),))])],
            # An intra-shard edge: every other shard gets only empty sub-batches.
            [Batch([EdgeDeletion(*local)]), Batch([EdgeInsertion(*local, weight=4.0)])],
        ]
        try:
            for step, stream in enumerate(windows):
                single.update_stream(stream)
                sharded.update_stream(stream)
                context = f"step {step}"
                assert_equivalent(single, sharded, context)
                assert_fragments_match(sharded, context)
                for shard in sharded._shards:
                    assert shard.worker.session.seq == sharded.seq, context
        finally:
            sharded.close()
            single.close()


class TestShardCrash:
    def test_crash_in_shard_window_surfaces_and_blocks_recovery(self, tmp_path):
        # A shard dying in its update_stream must surface in-band as a
        # ShardingError with an incident recorded, not hang the scatter.
        # The crashed shard logged nothing, so recovery must refuse the
        # diverged seqs rather than reassemble a torn window.
        g = random_graph(random.Random(0), 0, 0, directed=False)
        for v in range(10):
            g.ensure_node(v)
        for v in range(9):
            g.add_edge(v, v + 1, weight=1.0)
        config = SessionConfig(directory=tmp_path)
        sharded = ShardedSession(g, 3, config=config, processes=False)
        for name, algo, query in ALGOS:
            sharded.register(name, algo, query=query)
        sharded.update(Batch([EdgeInsertion(0, 9, weight=4.0)]))
        seq = sharded.seq + 1
        # session.pre-apply fires on the writer first, then on each
        # shard in index order: hit 3 lands on shard 1.
        with injected("session.pre-apply:3"):
            with pytest.raises(ShardingError) as info:
                sharded.update(Batch([EdgeDeletion(4, 5)]))
        assert info.value.shard == 1
        assert sharded.incidents.by_kind("shard-error")
        assert [s.worker.session.seq for s in sharded._shards] == [seq, seq - 1, seq]
        sharded.close()
        with pytest.raises(ShardRecoveryError, match=str({0: seq, 1: seq - 1, 2: seq})):
            ShardedSession.recover(tmp_path)


class TestProcessMode:
    def test_two_worker_processes_smoke(self):
        rng = random.Random(23)
        g = random_graph(rng, 14, 30, directed=False, weighted=True)
        single, sharded = make_pair(g, shards=2, processes=True)
        stream, next_id = g.copy(), [1000]
        try:
            for step, batch in enumerate(random_windows(rng, stream, 8, next_id)):
                single.update(batch)
                sharded.update(batch)
                assert_equivalent(single, sharded, f"step {step}")
        finally:
            sharded.close()
            single.close()


class TestRegistration:
    def test_any_algorithm_registers_and_recovers(self, tmp_path):
        rng = random.Random(1)
        g = random_graph(rng, 16, 36, directed=False, weighted=True, labels=["b", "c"])
        pattern = Graph(directed=False)
        pattern.add_node("u_b", label="b")
        pattern.add_node("u_c", label="c")
        pattern.add_edge("u_b", "u_c")
        queries = [("lcc", "LCC", None), ("sim", "Sim", pattern), ("core", "Coreness", None)]
        single = DynamicGraphSession(g.copy())
        config = SessionConfig(directory=tmp_path)
        sharded = ShardedSession(g.copy(), 2, config=config, processes=False)
        for name, algo, query in queries:
            single.register(name, algo, query=query)
            sharded.register(name, algo, query=query)
        sharded.register("gone", "SSSP", query=0)
        stream, next_id = g.copy(), [1000]
        for step, batch in enumerate(random_windows(rng, stream, 10, next_id)):
            single.update(batch)
            sharded.update(batch)
            for name, _algo, _query in queries:
                assert sharded.answer(name) == single.answer(name), f"step {step} {name}"
            assert_fragments_match(sharded, f"step {step}")
        sharded.unregister("gone")
        sharded.close()
        recovered = ShardedSession.recover(tmp_path)
        try:
            assert recovered.queries() == [name for name, _a, _q in queries]
            assert recovered.seq == single.seq
            for name, _algo, _query in queries:
                assert recovered.answer(name) == single.answer(name), name
        finally:
            recovered.close()
            single.close()

    def test_update_stream_window(self):
        rng = random.Random(4)
        g = random_graph(rng, 15, 35, directed=False, weighted=True)
        single, sharded = make_pair(g, shards=3)
        stream, next_id = g.copy(), [1000]
        window = list(random_windows(rng, stream, 5, next_id))
        single.update_stream(window)
        sharded.update_stream(window)
        assert_equivalent(single, sharded, "after stream window")
        sharded.close()
        single.close()


class TestDurability:
    def _durable(self, tmp_path, shards=3):
        rng = random.Random(9)
        g = random_graph(rng, 15, 32, directed=False, weighted=True)
        config = SessionConfig(directory=tmp_path, checkpoint_every=2)
        sharded = ShardedSession(g.copy(), shards, config=config, processes=False)
        for name, algo, query in ALGOS:
            sharded.register(name, algo, query=query)
        stream, next_id = g.copy(), [1000]
        for batch in random_windows(rng, stream, 10, next_id):
            sharded.update(batch)
        return sharded

    def test_recover_roundtrip(self, tmp_path):
        sharded = self._durable(tmp_path)
        seq = sharded.seq
        answers = {name: dict(sharded.answer(name)) for name, _a, _q in ALGOS}
        sharded.close()

        recovered = ShardedSession.recover(tmp_path)
        assert recovered.seq == seq
        for name, _algo, _query in ALGOS:
            if name == "cc":
                assert cc_partition(recovered.answer(name)) == cc_partition(answers[name])
            else:
                assert recovered.answer(name) == answers[name]
        # The recovered session keeps serving correctly.
        single = DynamicGraphSession(recovered.graph.copy())
        for name, algo, query in ALGOS:
            single.register(name, algo, query=query)
        batch = Batch([EdgeDeletion(*next(iter(recovered.graph.edges())))])
        single.update(batch)
        recovered.update(batch)
        # The fresh single session starts at seq -1, the recovered one at seq.
        assert_equivalent(single, recovered, "post-recovery update", seq_offset=seq + 1)
        recovered.close()
        single.close()

    def test_empty_batch_advances_seq_and_survives_recovery(self, tmp_path):
        sharded = self._durable(tmp_path)
        seq = sharded.seq
        answers = {name: sharded.answer(name) for name, _a, _q in ALGOS}
        results = sharded.update(Batch([]))
        assert sharded.seq == seq + 1
        assert all(not result.changes for result in results.values())
        assert {name: sharded.answer(name) for name in answers} == answers
        assert [s.worker.session.seq for s in sharded._shards] == [seq + 1] * 3
        sharded.close()
        recovered = ShardedSession.recover(tmp_path)
        try:
            assert recovered.seq == seq + 1
            assert {name: recovered.answer(name) for name in answers} == answers
        finally:
            recovered.close()

    def test_per_shard_directories_do_not_collide(self, tmp_path):
        sharded = self._durable(tmp_path, shards=3)
        sharded.close()
        assert (tmp_path / SHARDING_FILE).exists()
        shard_dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert shard_dirs == ["shard-00", "shard-01", "shard-02"]

    def test_plain_recover_rejects_sharded_directory(self, tmp_path):
        sharded = self._durable(tmp_path)
        sharded.close()
        with pytest.raises(ShardedDirectoryError):
            DynamicGraphSession.recover(tmp_path)

    def test_recover_without_manifest(self, tmp_path):
        with pytest.raises(ShardRecoveryError):
            ShardedSession.recover(tmp_path)

    def test_recover_with_missing_shard(self, tmp_path):
        sharded = self._durable(tmp_path)
        sharded.close()
        import shutil

        shutil.rmtree(tmp_path / "shard-01")
        with pytest.raises(ShardRecoveryError):
            ShardedSession.recover(tmp_path)

    def test_recover_with_corrupt_manifest(self, tmp_path):
        sharded = self._durable(tmp_path)
        sharded.close()
        (tmp_path / SHARDING_FILE).write_text('{"num_shards": "many"}')
        with pytest.raises(ShardRecoveryError):
            ShardedSession.recover(tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(version=1),
            lambda doc: doc.pop("queries"),
            lambda doc: doc.update(queries={"sssp": "SSSP"}),
            lambda doc: doc.update(queries=[["sssp", "SSSP"]]),
            lambda doc: doc.update(queries=[["sssp", "SSSP", "not a query doc"]]),
        ],
        ids=["version-1", "no-queries", "queries-not-a-list", "short-entry", "bad-query"],
    )
    def test_recover_rejects_malformed_manifest(self, tmp_path, edit):
        import json

        sharded = self._durable(tmp_path)
        sharded.close()
        path = tmp_path / SHARDING_FILE
        doc = json.loads(path.read_text())
        assert doc["version"] == 2
        assert [entry[:2] for entry in doc["queries"]] == [[n, a] for n, a, _q in ALGOS]
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ShardRecoveryError):
            ShardedSession.recover(tmp_path)
