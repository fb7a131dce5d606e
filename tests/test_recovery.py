"""Crash recovery: WAL + checkpoint round trips back to the exact fixpoint.

The acceptance bar for the durability layer is Lemma 2 made operational:
crash a session anywhere, ``recover()`` it, and the recovered states must
equal a from-scratch batch run on the final graph — asserted here for
SSSP, CC, and Sim.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import RecoveryError
from repro.graph import Batch, EdgeDeletion, EdgeInsertion, Graph, from_edges
from repro.graph.updates import VertexInsertion, apply_updates
from repro.session import ALGORITHM_PAIRS, DynamicGraphSession
from repro.resilience import SessionConfig
from repro.resilience.checkpoint import CHECKPOINT_FILE, WAL_FILE
from repro.resilience.faults import InjectedFault, injected


def base_graph() -> Graph:
    g = from_edges(
        [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)],
        weights=[1.0, 2.0, 3.0, 7.0, 1.0],
        directed=True,
    )
    for v in g.nodes():
        g.set_node_label(v, "b" if v % 2 else "c")
    return g


def sim_pattern() -> Graph:
    pattern = Graph(directed=True)
    pattern.add_node("u_b", label="b")
    pattern.add_node("u_c", label="c")
    pattern.add_edge("u_b", "u_c")
    pattern.add_edge("u_c", "u_b")
    return pattern


BATCHES = [
    Batch([EdgeInsertion(4, 0, weight=1.0)]),
    Batch([EdgeDeletion(0, 3), VertexInsertion(5, label="b")]),
    Batch([EdgeInsertion(5, 0, weight=2.0), EdgeInsertion(2, 5, weight=1.0)]),
]


#: Hub edges out of node 4: a window that reaches many SSSP variables.
HUB = Batch([EdgeInsertion(4, 100 + i, weight=1.0) for i in range(64)])


def durable_session(tmp_path, **config) -> DynamicGraphSession:
    session = DynamicGraphSession(
        base_graph(), SessionConfig(directory=tmp_path / "state", **config)
    )
    session.register("sssp", "SSSP", query=0)
    session.register("cc", "CC")
    session.register("sim", "Sim", query=sim_pattern())
    return session


def scratch_answers(graph: Graph):
    """Every query recomputed from scratch on ``graph``."""
    answers = {}
    for name, query in (("sssp", 0), ("cc", None), ("sim", sim_pattern())):
        algo = ALGORITHM_PAIRS[{"sssp": "SSSP", "cc": "CC", "sim": "Sim"}[name]][0]()
        g = graph.copy()
        answers[name] = algo.answer(algo.run(g, query), g, query)
    return answers


def assert_matches_scratch(session: DynamicGraphSession, graph: Graph) -> None:
    truth = scratch_answers(graph)
    for name in ("sssp", "cc", "sim"):
        assert session.answer(name) == truth[name], name


class TestCheckpointing:
    def test_register_writes_an_eager_checkpoint(self, tmp_path):
        session = durable_session(tmp_path)
        assert (tmp_path / "state" / CHECKPOINT_FILE).exists()
        session.close()

    def test_checkpoint_cadence(self, tmp_path):
        session = durable_session(tmp_path, checkpoint_every=2)
        ckpt = tmp_path / "state" / CHECKPOINT_FILE
        stamp = ckpt.stat().st_mtime_ns

        session.update(BATCHES[0])
        assert ckpt.stat().st_mtime_ns == stamp  # 1 % 2 != 0: no checkpoint
        session.update(BATCHES[1])
        assert ckpt.stat().st_mtime_ns > stamp  # cadence hit
        session.close()

    def test_crash_mid_checkpoint_preserves_the_previous_one(self, tmp_path):
        session = durable_session(tmp_path, checkpoint_every=0)
        session.update(BATCHES[0])
        with pytest.raises(InjectedFault):
            with injected("checkpoint.mid-write"):
                session.checkpoint()
        # the old checkpoint still loads; the WAL carries the tail
        recovered = DynamicGraphSession.recover(tmp_path / "state")
        final = apply_updates(base_graph(), BATCHES[0])
        assert_matches_scratch(recovered, final)
        recovered.close()

    def test_recover_requires_a_checkpoint(self, tmp_path):
        with pytest.raises(RecoveryError):
            DynamicGraphSession.recover(tmp_path / "nothing-here")

    def test_corrupt_checkpoint_is_a_recovery_error(self, tmp_path):
        session = durable_session(tmp_path)
        session.close()
        (tmp_path / "state" / CHECKPOINT_FILE).write_text("{ nope")
        with pytest.raises(RecoveryError):
            DynamicGraphSession.recover(tmp_path / "state")


class TestCrashRecovery:
    def test_clean_shutdown_recovers_identically(self, tmp_path):
        session = durable_session(tmp_path)
        for batch in BATCHES:
            session.update(batch)
        session.close()

        recovered = DynamicGraphSession.recover(tmp_path / "state")
        final = base_graph()
        for batch in BATCHES:
            apply_updates(final, batch)
        assert_matches_scratch(recovered, final)
        recovered.close()

    @pytest.mark.parametrize("hit", [1, 2, 3])
    def test_crash_mid_apply_recovers_to_scratch_fixpoint(self, tmp_path, hit):
        """Crash before the 1st/2nd/3rd query of the last batch is applied.

        The WAL record is durable before any apply, so recovery replays
        the full batch regardless of which replicas the crash tore.
        """
        session = durable_session(tmp_path, checkpoint_every=0)
        session.update(BATCHES[0])
        with pytest.raises(InjectedFault):
            with injected(f"session.mid-apply:{hit}"):
                session.update(BATCHES[1])

        recovered = DynamicGraphSession.recover(tmp_path / "state")
        final = base_graph()
        apply_updates(final, BATCHES[0])
        apply_updates(final, BATCHES[1])
        assert_matches_scratch(recovered, final)
        assert recovered.graph.num_edges == final.num_edges
        recovered.close()

    def test_crash_mid_wal_append_drops_the_torn_batch(self, tmp_path):
        session = durable_session(tmp_path, checkpoint_every=0)
        session.update(BATCHES[0])
        with pytest.raises(InjectedFault):
            with injected("wal.mid-append"):
                session.update(BATCHES[1])

        recovered = DynamicGraphSession.recover(tmp_path / "state")
        # the torn batch never committed anywhere: pre-crash state rules
        final = apply_updates(base_graph(), BATCHES[0])
        assert_matches_scratch(recovered, final)
        assert recovered.incidents.by_kind("wal-torn-tail")
        # and the sanitized WAL accepts new batches afterwards
        recovered.update(BATCHES[1])
        apply_updates(final, BATCHES[1])
        assert_matches_scratch(recovered, final)
        recovered.close()

    def test_recovered_session_keeps_rolling(self, tmp_path):
        session = durable_session(tmp_path, checkpoint_every=0)
        session.update(BATCHES[0])
        with pytest.raises(InjectedFault):
            with injected("session.mid-apply:2"):
                session.update(BATCHES[1])

        recovered = DynamicGraphSession.recover(tmp_path / "state")
        recovered.update(BATCHES[2])
        final = base_graph()
        for batch in BATCHES:
            apply_updates(final, batch)
        assert_matches_scratch(recovered, final)
        recovered.close()

    def test_double_recovery_is_stable(self, tmp_path):
        session = durable_session(tmp_path, checkpoint_every=0)
        session.update(BATCHES[0])
        with pytest.raises(InjectedFault):
            with injected("session.mid-apply:2"):
                session.update(BATCHES[1])
        first = DynamicGraphSession.recover(tmp_path / "state")
        first.close()
        second = DynamicGraphSession.recover(tmp_path / "state")
        final = base_graph()
        apply_updates(final, BATCHES[0])
        apply_updates(final, BATCHES[1])
        assert_matches_scratch(second, final)
        second.close()

    def test_rolled_back_batches_stay_rolled_back_after_recovery(self, tmp_path):
        from repro.errors import TransactionError

        session = durable_session(tmp_path, checkpoint_every=0)
        session.update(BATCHES[0])

        def explode(*args, **kwargs):
            raise RuntimeError("mid-batch failure")

        original = session._queries["cc"].incremental.apply
        session._queries["cc"].incremental.apply = explode
        with pytest.raises(TransactionError):
            session.update(BATCHES[1])
        session._queries["cc"].incremental.apply = original
        session.close()

        recovered = DynamicGraphSession.recover(tmp_path / "state")
        # the aborted batch must not be replayed
        final = apply_updates(base_graph(), BATCHES[0])
        assert_matches_scratch(recovered, final)
        recovered.close()

    def test_failed_wal_append_aborts_the_logged_batches(self, tmp_path):
        # A window's second append fails after its first batch is logged:
        # that batch was never applied, so recovery must not replay it.
        from repro.errors import SessionError

        session = durable_session(tmp_path, checkpoint_every=0)
        append = session._wal.append
        calls = []

        def failing_append(seq, delta):
            calls.append(seq)
            if len(calls) == 2:
                raise OSError("disk full")
            append(seq, delta)

        session._wal.append = failing_append
        with pytest.raises(SessionError):
            session.update_stream([BATCHES[0], BATCHES[1]])
        session.update(Batch([EdgeInsertion(2, 0, weight=1.0)]))
        session._wal.close()  # crash: no final checkpoint

        recovered = DynamicGraphSession.recover(tmp_path / "state")
        assert recovered.graph == session.graph
        for name in ("sssp", "cc", "sim"):
            assert recovered.answer(name) == session.answer(name), name
        final = apply_updates(base_graph(), Batch([EdgeInsertion(2, 0, weight=1.0)]))
        assert_matches_scratch(recovered, final)
        recovered.close()

    def test_quarantine_survives_recovery(self, tmp_path):
        session = durable_session(tmp_path, quarantine_after=1, checkpoint_every=0)
        session._queries["cc"].incremental.apply = lambda *a, **k: (
            _ for _ in ()
        ).throw(RuntimeError("broken"))
        session.update(BATCHES[0])
        assert session._queries["cc"].quarantined
        session.close()

        recovered = DynamicGraphSession.recover(tmp_path / "state")
        assert recovered._queries["cc"].quarantined
        final = apply_updates(base_graph(), BATCHES[0])
        assert_matches_scratch(recovered, final)
        recovered.close()


@pytest.mark.skipif(
    not os.environ.get("REPRO_FAULTS"),
    reason="crash-sweep smoke runs only with REPRO_FAULTS set",
)
class TestCrashSweep:
    """Heavier sweep for the CI fault-injection smoke job: crash at every
    plausible hit of every apply-path site and require exact recovery."""

    SITES = [
        "session.pre-apply",
        "session.mid-apply:1",
        "session.mid-apply:2",
        "session.mid-apply:3",
        "incremental.mid-apply",
        "engine.fixpoint",
        "wal.mid-append",
    ]

    @pytest.mark.parametrize("site", SITES)
    def test_crash_anywhere_recovers_exactly(self, tmp_path, site):
        session = durable_session(tmp_path, checkpoint_every=0)
        session.update(BATCHES[0])
        session.update(HUB)
        with pytest.raises(InjectedFault):
            with injected(site):
                session.update(BATCHES[1])

        recovered = DynamicGraphSession.recover(tmp_path / "state")
        final = apply_updates(apply_updates(base_graph(), BATCHES[0]), HUB)
        # Every site except a torn append leaves the batch durable; a
        # pre-apply crash happens before the batch is logged or applied.
        if site not in ("wal.mid-append", "session.pre-apply"):
            apply_updates(final, BATCHES[1])
        assert_matches_scratch(recovered, final)
        recovered.close()


class TestRecoveryCLI:
    def test_recover_subcommand_reports_the_session(self, tmp_path, capsys):
        from repro.cli import main

        session = durable_session(tmp_path, checkpoint_every=0)
        session.update(BATCHES[0])
        with pytest.raises(InjectedFault):
            with injected("session.mid-apply:2"):
                session.update(BATCHES[1])

        assert main(["recover", str(tmp_path / "state")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["queries"]) == {"sssp", "cc", "sim"}
        assert doc["queries"]["sssp"]["algorithm"] == "SSSP"
        assert doc["batches_replayed"] == 2

    def test_audit_subcommand_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        session = durable_session(tmp_path)
        session.update(BATCHES[0])
        session.close()
        assert main(["audit", str(tmp_path / "state")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True

        # corrupt the checkpointed SSSP state on disk, then re-audit
        ckpt_path = tmp_path / "state" / CHECKPOINT_FILE
        doc = json.loads(ckpt_path.read_text())
        entry = next(q for q in doc["queries"] if q["name"] == "sssp")
        entry["state"]["entries"][0][1] = {"f": 12345.0}
        ckpt_path.write_text(json.dumps(doc))

        assert main(["audit", str(tmp_path / "state")]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        healed = {q["query"]: q["healed"] for q in report["queries"]}
        assert healed["sssp"] is True
        # healing was checkpointed on close: a second audit is clean
        assert main(["audit", str(tmp_path / "state")]) == 0
        capsys.readouterr()
