"""Session fault tolerance: validation, rollback, quarantine, audits."""

from __future__ import annotations

import pytest

from oracles import oracle_cc, oracle_sssp
from repro.core.state import ABSENT, FixpointState
from repro.generators import assign_weights, barabasi_albert
from repro.errors import (
    BatchValidationError,
    ContradictoryUpdateError,
    FixpointError,
    InvalidWeightError,
    TransactionError,
    UnknownNodeError,
)
from repro.graph import Batch, EdgeDeletion, EdgeInsertion, Graph, from_edges
from repro.graph.updates import VertexDeletion, VertexInsertion
from repro.session import DynamicGraphSession
from repro.resilience import SessionConfig
from repro.resilience.faults import InjectedFault, injected
from repro.resilience.transactions import SessionTransaction


def make_session(config=None):
    g = from_edges([(0, 1), (1, 2), (2, 3)], weights=[1.0, 2.0, 3.0])
    return DynamicGraphSession(g, config)


def make_sim_session(config=None):
    g = Graph(directed=True)
    g.add_node("a1", label="a")
    g.add_node("b1", label="b")
    g.add_node("c1", label="c")
    g.add_edge("a1", "b1")
    g.add_edge("b1", "c1")
    g.add_edge("c1", "b1")
    pattern = Graph(directed=True)
    pattern.add_node("u_b", label="b")
    pattern.add_node("u_c", label="c")
    pattern.add_edge("u_b", "u_c")
    pattern.add_edge("u_c", "u_b")
    session = DynamicGraphSession(g, config)
    session.register("sim", "Sim", query=pattern)
    return session


def fresh_answer(session, name):
    """``Q(G)`` recomputed from scratch on the current reference graph."""
    registered = session._queries[name]
    algo = type(registered.batch)()
    graph = session.graph.copy()
    state = algo.run(graph, registered.query)
    return algo.answer(state, graph, registered.query)


def snapshot(session):
    return (
        session.graph.num_nodes,
        session.graph.num_edges,
        {name: dict(session._queries[name].state.values) for name in session.queries()},
    )


class TestValidation:
    def test_duplicate_insertion_is_typed_and_mutates_nothing(self):
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        before = snapshot(session)
        with pytest.raises(ContradictoryUpdateError) as info:
            session.update([EdgeInsertion(2, 3, weight=1.0)])
        assert info.value.index == 0
        assert isinstance(info.value, BatchValidationError)
        assert snapshot(session) == before

    def test_deleting_absent_edge_rejected(self):
        session = make_session()
        with pytest.raises(ContradictoryUpdateError):
            session.update([EdgeDeletion(0, 3)])

    def test_unknown_node_rejected_with_index(self):
        session = make_session()
        session.register("cc", "CC")
        before = snapshot(session)
        with pytest.raises(UnknownNodeError) as info:
            session.update([EdgeInsertion(0, 9, weight=1.0), VertexDeletion("ghost")])
        assert info.value.index == 1
        assert snapshot(session) == before

    def test_contradiction_within_one_batch(self):
        session = make_session()
        # node 5 is created and destroyed, then referenced again
        with pytest.raises(UnknownNodeError) as info:
            session.update(
                [VertexInsertion(5), VertexDeletion(5), EdgeDeletion(5, 0)]
            )
        assert info.value.index == 2
        # re-inserting an edge the batch itself created is contradictory
        with pytest.raises(ContradictoryUpdateError):
            session.update(
                [EdgeInsertion(0, 9, weight=1.0), EdgeInsertion(0, 9, weight=2.0)]
            )

    def test_nonfinite_weight_rejected_by_default(self):
        session = make_session()
        with pytest.raises(InvalidWeightError):
            session.update([EdgeInsertion(0, 9, weight=float("nan"))])
        with pytest.raises(InvalidWeightError):
            session.update([EdgeInsertion(0, 9, weight=float("inf"))])

    def test_spec_policy_forbids_negative_weights_for_sssp(self):
        session = make_session(SessionConfig(weight_policy="spec"))
        session.register("sssp", "SSSP", query=0)
        with pytest.raises(InvalidWeightError):
            session.update([EdgeInsertion(0, 9, weight=-1.0)])

    def test_spec_policy_allows_negative_weights_without_sssp(self):
        session = make_session(SessionConfig(weight_policy="spec"))
        session.register("cc", "CC")
        session.update([EdgeInsertion(0, 9, weight=-1.0)])
        assert session.graph.has_edge(0, 9)

    def test_any_policy_admits_everything_strict_apply_would(self):
        session = make_session(SessionConfig(weight_policy="any"))
        session.register("cc", "CC")
        session.update([EdgeInsertion(0, 9, weight=float("inf"))])
        assert session.answer("cc") == oracle_cc(session.graph)

    def test_validation_failure_is_an_incident(self):
        session = make_session()
        with pytest.raises(ContradictoryUpdateError):
            session.update([EdgeDeletion(0, 3)])
        assert session.incidents.by_kind("validation-error")


class TestTransactions:
    @pytest.mark.parametrize("failing", ["sssp", "cc", "sswp"], ids=["first", "middle", "last"])
    def test_mid_apply_failure_rolls_back_every_query(self, failing):
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        session.register("cc", "CC")
        session.register("sswp", "SSWP", query=0)
        before = snapshot(session)
        states = {name: session._queries[name].state.copy() for name in session.queries()}

        def explode(*args, **kwargs):
            raise RuntimeError("disk on fire")

        incremental = session._queries[failing].incremental
        incremental.apply = explode
        delta = [EdgeInsertion(0, 3, weight=5.0), EdgeDeletion(1, 2)]
        with pytest.raises(TransactionError) as info:
            session.update(delta)
        assert isinstance(info.value.__cause__, RuntimeError)
        assert snapshot(session) == before
        assert session.batches_applied == 0
        assert session.incidents.by_kind("rollback")
        # Queries ahead of the failing one had already mutated their
        # replicas: every replica must be the pre-window graph again.
        for name, registered in session._queries.items():
            assert registered.graph == session.graph, name
            assert registered.state.values == states[name].values, name
            assert registered.state.timestamps == states[name].timestamps, name
            assert registered.state.clock == states[name].clock, name

        del incremental.apply
        session.update(delta)
        for name in session.queries():
            assert session.answer(name) == fresh_answer(session, name), name

    def test_committed_windows_copy_no_graph(self, monkeypatch):
        session = make_session()
        session.register("cc", "CC")
        session.register("sssp", "SSSP", query=0)
        session.register("sswp", "SSWP", query=0)
        copies = []
        original = Graph.copy

        def counting_copy(graph):
            copies.append(graph)
            return original(graph)

        monkeypatch.setattr(Graph, "copy", counting_copy)
        session.update([EdgeInsertion(0, 3, weight=5.0), EdgeDeletion(1, 2)])
        assert len(copies) == 0

    def test_committed_windows_copy_no_state(self, monkeypatch):
        session = make_session()
        session.register("cc", "CC")
        session.register("sssp", "SSSP", query=0)
        session.register("sswp", "SSWP", query=0)
        copies = []
        original = FixpointState.copy

        def counting_copy(state):
            copies.append(state)
            return original(state)

        monkeypatch.setattr(FixpointState, "copy", counting_copy)
        session.update([EdgeInsertion(0, 3, weight=5.0), EdgeDeletion(1, 2)])
        session.update([EdgeInsertion(1, 2, weight=1.0)])
        assert len(copies) == 0

    def test_undo_logs_hold_only_the_keys_a_hub_window_wrote(self, monkeypatch):
        graph = assign_weights(barabasi_albert(300, 3, seed=5), seed=5)
        hub = max(graph.nodes(), key=graph.degree)
        gone = sorted(graph.out_neighbors(hub))[:32]
        new = [v for v in sorted(graph.nodes()) if v != hub and not graph.has_edge(hub, v)][:32]
        window = [EdgeDeletion(hub, v) for v in gone]
        window += [EdgeInsertion(hub, v, weight=1.0) for v in new]
        assert len(window) == 64
        session = DynamicGraphSession(graph)
        session.register("cc", "CC")
        session.register("sssp", "SSSP", query=0)
        session.register("sswp", "SSWP", query=0)

        def entries(state):
            return {
                key: (state.values.get(key, ABSENT), state.timestamps.get(key, ABSENT))
                for key in set(state.values) | set(state.timestamps)
            }

        before = {name: entries(r.state) for name, r in session._queries.items()}
        logs = {}
        original = SessionTransaction.disarm

        def recording_disarm(txn):
            for name, (state, _clock, _rounds) in txn._states.items():
                logs[name] = dict(state.undo)
            original(txn)

        monkeypatch.setattr(SessionTransaction, "disarm", recording_disarm)
        session.update(window)
        for name, registered in session._queries.items():
            state = registered.state
            assert state.undo is None, name
            after = entries(state)
            keys = before[name].keys() | after.keys()
            written = {key for key in keys if before[name].get(key) != after.get(key)}
            assert set(logs[name]) == written, name
            for key, entry in logs[name].items():
                assert entry == before[name][key], (name, key)
        # The hub move reroutes paths (CC's components stay put, so its log
        # is empty): SSSP's log is non-empty yet misses unwritten keys.
        assert 0 < len(logs["sssp"]) < len(before["sssp"])

    def test_failed_recompute_leaves_the_reference_untouched(self):
        # A quarantined query is recomputed inside the window.  When that
        # recompute fails, the reference graph must still be the
        # pre-window graph the rollback rebuilds every replica from.
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        session.register("cc", "CC")
        session._queries["sssp"].quarantined = True
        before = snapshot(session)
        with pytest.raises(TransactionError):
            session.update([VertexDeletion(0)])  # Dijkstra needs its source
        assert snapshot(session) == before
        assert session.batches_applied == 0
        for name, registered in session._queries.items():
            assert registered.graph == session.graph, name

    def test_committed_hub_window_builds_no_kernel_mirror(self):
        # Sessions drive every window through the generic engine, so even
        # a window that reaches many variables leaves no kernel context to
        # go stale on a later rollback.
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        session.register("cc", "CC")
        hub = [EdgeInsertion(3, 100 + i, weight=1.0) for i in range(64)]
        session.update(hub + [EdgeInsertion(0, 2, weight=5.0)])
        for name, registered in session._queries.items():
            assert registered.incremental._kernel_ctx is None, name
        assert session.answer("sssp") == oracle_sssp(session.graph, 0)

    def test_injected_mid_apply_fault_crashes_without_commit(self):
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        with pytest.raises(InjectedFault):
            with injected("session.mid-apply"):
                session.update([EdgeInsertion(0, 3, weight=1.0)])
        # a crash is not a commit: the reference graph was never touched
        assert not session.graph.has_edge(0, 3)
        assert session.batches_applied == 0
        # ... and it leaves no undo log armed to tax later writes
        assert session._queries["sssp"].state.undo is None

    def test_update_stream_rolls_back_as_one_transaction(self):
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        session.register("cc", "CC")
        before = snapshot(session)

        def explode(*args, **kwargs):
            raise RuntimeError("mid-stream")

        session._queries["cc"].incremental.apply_stream = explode
        with pytest.raises(TransactionError):
            session.update_stream(
                [EdgeInsertion(0, 2, weight=0.5), EdgeDeletion(2, 3)]
            )
        assert snapshot(session) == before

    def test_update_stream_validates_cumulatively(self):
        session = make_session()
        before = snapshot(session)
        with pytest.raises(ContradictoryUpdateError):
            # valid against G, but the first batch already inserts it
            session.update_stream(
                [
                    Batch([EdgeInsertion(0, 3, weight=1.0)]),
                    Batch([EdgeInsertion(0, 3, weight=2.0)]),
                ]
            )
        assert snapshot(session) == before


class TestQuarantine:
    """The per-query fault policy, through ``session.update``.

    :class:`TestQuarantineThroughUpdateStream` reruns every case through
    ``update_stream([Batch(...)], notify=True)``: both entry points share one
    commit path, so both must quarantine, recompute and heal alike.
    """

    @staticmethod
    def commit(session, delta):
        return session.update(delta)

    def test_repeated_faults_quarantine_and_self_heal(self):
        session = make_session(SessionConfig(quarantine_after=2))
        session.register("sssp", "SSSP", query=0)
        session.register("cc", "CC")

        def explode(*args, **kwargs):
            raise RuntimeError("persistent fault")

        session._queries["cc"].incremental.apply = explode
        delta = Batch([EdgeInsertion(0, 3, weight=1.0)])
        with pytest.raises(TransactionError):
            self.commit(session, delta)  # fault 1/2: rolled back
        self.commit(session, delta)  # fault 2/2: cc quarantined, batch commits

        assert session._queries["cc"].quarantined
        assert not session._queries["sssp"].quarantined
        assert session.graph.has_edge(0, 3)
        assert session.answer("cc") == oracle_cc(session.graph)
        assert session.answer("sssp") == oracle_sssp(session.graph, 0)
        kinds = {i.kind for i in session.incidents}
        assert {"rollback", "quarantine", "self-heal"} <= kinds

    def test_quarantined_query_degrades_to_batch_recompute(self):
        session = make_session(SessionConfig(quarantine_after=1))
        session.register("cc", "CC")
        session._queries["cc"].incremental.apply = lambda *a, **k: (_ for _ in ()).throw(
            RuntimeError("broken")
        )
        self.commit(session, [EdgeInsertion(0, 3, weight=1.0)])
        assert session._queries["cc"].quarantined
        # further updates are maintained via the batch algorithm; this one
        # isolates node 3, so its component root must change
        result = self.commit(session, [EdgeDeletion(2, 3), EdgeDeletion(0, 3)])
        assert session.answer("cc") == oracle_cc(session.graph)
        assert result["cc"].changes  # ΔO still reported from the recompute

    def test_runaway_drain_hits_step_budget(self):
        session = make_session(SessionConfig(step_budget=1))
        session.register("sssp", "SSSP", query=0)
        self.commit(session, [EdgeInsertion(0, 2, weight=0.1)])  # repairs 2 & 3
        assert session._queries["sssp"].quarantined
        assert session.incidents.by_kind("runaway-drain")
        assert session.answer("sssp") == oracle_sssp(session.graph, 0)

    def test_step_budget_covers_the_whole_batch(self):
        # 40 new leaves cost one evaluation each, so the batch's one
        # apply exceeds the budget of 20 and the drain trips.
        session = make_session(SessionConfig(step_budget=20))
        session.register("sssp", "SSSP", query=0)
        self.commit(session, [EdgeInsertion(3, 100 + i, weight=1.0) for i in range(40)])
        assert session._queries["sssp"].quarantined
        assert session.incidents.by_kind("runaway-drain")
        assert session.answer("sssp") == oracle_sssp(session.graph, 0)

    def test_heal_restores_the_incremental_path(self):
        session = make_session(SessionConfig(quarantine_after=1))
        session.register("cc", "CC")
        broken = session._queries["cc"].incremental
        original = type(broken).apply

        def explode(self, *args, **kwargs):
            raise RuntimeError("transient outage")

        broken.apply = explode.__get__(broken)
        self.commit(session, [EdgeInsertion(0, 3, weight=1.0)])
        assert session._queries["cc"].quarantined

        broken.apply = original.__get__(broken)  # outage over
        session.heal("cc")
        assert not session._queries["cc"].quarantined
        self.commit(session, [EdgeDeletion(0, 3)])
        assert session.answer("cc") == oracle_cc(session.graph)
        assert session.incidents.by_kind("healed")


class TestQuarantineThroughUpdateStream(TestQuarantine):
    @staticmethod
    def commit(session, delta):
        return session.update_stream([Batch(list(delta))], notify=True)


class TestListenerIsolation:
    def test_raising_listener_does_not_starve_the_rest(self):
        session = make_session()
        session.register("cc", "CC")
        seen = []

        def bad_listener(name, result):
            raise ValueError("listener bug")

        session.subscribe("cc", bad_listener)
        session.subscribe("cc", lambda name, result: seen.append(name))
        session.update([EdgeInsertion(0, 3, weight=1.0)])

        assert seen == ["cc"]
        incidents = session.incidents.by_kind("listener-error")
        assert incidents and incidents[0].query == "cc"

    def test_injected_listener_fault_is_isolated(self):
        session = make_session()
        session.register("cc", "CC")
        seen = []
        session.subscribe("cc", lambda name, result: seen.append(name))
        with injected("session.listener"):
            session.update([EdgeInsertion(0, 3, weight=1.0)])
        # the injected fault consumed the first delivery attempt only
        assert session.incidents.by_kind("listener-error")
        assert session.batches_applied == 1

    def test_listener_failure_does_not_block_commit(self):
        session = make_session()
        session.register("sssp", "SSSP", query=0, listener=lambda n, r: 1 / 0)
        session.update([EdgeInsertion(0, 3, weight=1.0)])
        assert session.answer("sssp") == oracle_sssp(session.graph, 0)


class TestAudit:
    @pytest.mark.parametrize("algorithm,query", [("SSSP", 0), ("CC", None)])
    def test_detects_and_heals_value_corruption(self, algorithm, query):
        session = make_session()
        session.register("q", algorithm, query=query)
        state = session._queries["q"].state
        key = sorted(state.values, key=repr)[0]
        state.values[key] = 12345.0

        report = session.audit()
        assert not report.clean
        entry = report.entries[0]
        assert entry.query == "q"
        assert entry.healed
        assert session.answer("q") == fresh_answer(session, "q")
        assert session.audit().clean
        kinds = {i.kind for i in session.incidents}
        assert {"audit-divergence", "self-heal"} <= kinds

    def test_detects_and_heals_sim_corruption(self):
        session = make_sim_session()
        state = session._queries["sim"].state
        key = sorted(state.values, key=repr)[0]
        state.values[key] = not state.values[key]

        report = session.audit()
        assert not report.clean
        assert session.answer("sim") == fresh_answer(session, "sim")
        assert session.audit().clean

    def test_detects_extra_and_missing_variables(self):
        session = make_session()
        session.register("cc", "CC")
        state = session._queries["cc"].state
        state.values["ghost"] = 7
        report = session.audit(heal=False)
        assert any(f.kind == "extra-variable" for f in report.entries[0].findings)

        session2 = make_session()
        session2.register("cc", "CC")
        state2 = session2._queries["cc"].state
        del state2.values[next(iter(state2.values))]
        report2 = session2.audit(heal=False)
        assert any(f.kind == "missing-variable" for f in report2.entries[0].findings)

    def test_full_audit_covers_specless_algorithms(self):
        session = make_session()
        session.register("dfs", "DFS")
        state = session._queries["dfs"].state
        key = next(iter(state.values))
        state.values[key] = ("corrupted",)
        report = session.audit()  # DFS has no spec: full diff regardless
        assert not report.clean
        assert report.entries[0].mode == "full"
        assert session.answer("dfs") == fresh_answer(session, "dfs")

    def test_no_heal_reports_without_recomputing(self):
        session = make_session()
        session.register("cc", "CC")
        state = session._queries["cc"].state
        key = next(iter(state.values))
        state.values[key] = 999
        report = session.audit(heal=False)
        assert not report.clean and not report.entries[0].healed
        assert state.values[key] == 999  # untouched
        assert session._queries["cc"].quarantined  # still flagged

    def test_audit_cadence_runs_after_updates(self):
        session = make_session(SessionConfig(audit_every=1))
        session.register("sssp", "SSSP", query=0)
        # corrupt a variable the next batch's scope will not repair
        session._queries["sssp"].state.values[3] = 0.001
        session.update([VertexInsertion(9)])
        assert session.incidents.by_kind("audit-divergence")
        assert session.answer("sssp") == oracle_sssp(session.graph, 0)

    def test_clean_audit_reports_clean(self):
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        session.register("cc", "CC")
        report = session.audit()
        assert report.clean
        assert all(e.checked > 0 for e in report.entries)


class TestIncidentLog:
    def test_ring_is_bounded_but_counts_everything(self):
        session = make_session(SessionConfig(max_incidents=4))
        session.register("cc", "CC", listener=lambda n, r: 1 / 0)
        for i in range(6):
            session.update([EdgeInsertion(0, 10 + i, weight=1.0)])
        assert len(session.incidents) == 4
        assert session.incidents.total == 6

    def test_as_dicts_is_json_shaped(self):
        import json

        session = make_session()
        with pytest.raises(ContradictoryUpdateError):
            session.update([EdgeDeletion(0, 3)])
        payload = json.dumps(session.incidents.as_dicts())
        assert "validation-error" in payload
