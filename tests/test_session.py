"""Tests for the continuous-query session API."""

import pytest

from oracles import oracle_cc, oracle_lcc, oracle_sssp
from repro.errors import ReproError
from repro.graph import Batch, EdgeDeletion, EdgeInsertion, from_edges
from repro.session import ALGORITHM_PAIRS, DynamicGraphSession


def make_session():
    g = from_edges([(0, 1), (1, 2), (2, 3)], weights=[1.0, 2.0, 3.0])
    return DynamicGraphSession(g)


class TestRegistration:
    def test_register_runs_batch(self):
        session = make_session()
        session.register("distances", "SSSP", query=0)
        assert session.answer("distances")[3] == 6.0

    def test_duplicate_name_rejected(self):
        session = make_session()
        session.register("q", "CC")
        with pytest.raises(ReproError):
            session.register("q", "CC")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ReproError):
            make_session().register("q", "PageRank")

    def test_unregister(self):
        session = make_session()
        session.register("q", "CC")
        session.unregister("q")
        assert session.queries() == []
        with pytest.raises(ReproError):
            session.answer("q")

    def test_all_builtin_pairs_register(self):
        # Node-query algorithms on a tiny graph; Sim needs a pattern.
        session = make_session()
        for name in ALGORITHM_PAIRS:
            if name == "Sim":
                continue
            query = 0 if name in ("SSSP", "SSWP", "Reach") else None
            session.register(name, name, query=query)
        assert len(session.queries()) == len(ALGORITHM_PAIRS) - 1


class TestUpdates:
    def test_all_queries_maintained_in_lockstep(self):
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        session.register("cc", "CC")
        session.register("lcc", "LCC")
        session.update(Batch([EdgeInsertion(0, 3, weight=1.0), EdgeDeletion(1, 2)]))

        assert session.answer("sssp") == oracle_sssp(session.graph, 0)
        assert session.answer("cc") == oracle_cc(session.graph)
        assert session.answer("lcc") == oracle_lcc(session.graph)

    def test_update_returns_delta_o_per_query(self):
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        results = session.update(Batch([EdgeInsertion(0, 3, weight=1.0)]))
        assert results["sssp"].changes == {3: (6.0, 1.0)}

    def test_plain_update_lists_accepted(self):
        session = make_session()
        session.register("cc", "CC")
        session.update([EdgeDeletion(1, 2)])
        assert session.answer("cc")[3] == 2

    def test_batches_applied_counter(self):
        session = make_session()
        session.update(Batch([EdgeInsertion(0, 2)]))
        session.update(Batch([EdgeDeletion(0, 2)]))
        assert session.batches_applied == 2

    def test_repeated_updates_stay_consistent(self):
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        session.register("coreness", "Coreness")
        for delta in (
            Batch([EdgeInsertion(0, 2, weight=1.0)]),
            Batch([EdgeDeletion(1, 2), EdgeInsertion(1, 3, weight=4.0)]),
            Batch([EdgeDeletion(0, 2)]),
        ):
            session.update(delta)
        assert session.answer("sssp") == oracle_sssp(session.graph, 0)


class TestListeners:
    def test_listener_receives_results(self):
        session = make_session()
        events = []
        session.register("cc", "CC", listener=lambda name, result: events.append((name, len(result.changes))))
        session.update(Batch([EdgeDeletion(1, 2)]))
        assert events == [("cc", 2)]

    def test_subscribe_after_registration(self):
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        seen = []
        session.subscribe("sssp", lambda name, result: seen.append(name))
        session.update(Batch([EdgeInsertion(0, 3, weight=0.5)]))
        assert seen == ["sssp"]

    def test_repr(self):
        session = make_session()
        session.register("cc", "CC")
        assert "cc" in repr(session)


class TestDefensiveCopies:
    def test_queries_returns_a_copy(self):
        session = make_session()
        session.register("cc", "CC")
        names = session.queries()
        names.append("injected")
        assert session.queries() == ["cc"]

    def test_answer_returns_a_copy(self):
        session = make_session()
        session.register("cc", "CC")
        answer = session.answer("cc")
        answer[0] = "poisoned"
        answer[999] = "extra"
        assert session.answer("cc") == oracle_cc(session.graph)

    def test_answer_copy_isolated_from_later_updates(self):
        session = make_session()
        session.register("sssp", "SSSP", query=0)
        before = session.answer("sssp")
        session.update(Batch([EdgeInsertion(0, 3, weight=0.5)]))
        # The earlier extraction is a snapshot, not a live view.
        assert before[3] == 6.0
        assert session.answer("sssp")[3] == 0.5


class TestSeqAndStreamNotify:
    def test_seq_tracks_batches(self):
        session = make_session()
        session.register("cc", "CC")
        assert session.seq == -1
        session.update(Batch([EdgeInsertion(0, 9)]))
        assert session.seq == 0
        session.update_stream([Batch([EdgeInsertion(0, 10)]), Batch([EdgeInsertion(0, 11)])])
        assert session.seq == 2

    def test_update_stream_notifies_once_when_asked(self):
        session = make_session()
        events = []
        session.register("cc", "CC", listener=lambda name, result: events.append(name))
        stream = [Batch([EdgeInsertion(0, 9)]), Batch([EdgeInsertion(9, 10)])]
        session.update_stream(stream)
        assert events == []  # default: no per-stream delivery
        session.update_stream([Batch([EdgeDeletion(0, 9)])], notify=True)
        assert events == ["cc"]  # one composed delivery for the stream

    def test_update_stream_isolates_raising_listener(self):
        session = make_session()

        def bad(name, result):
            raise RuntimeError("subscriber bug")

        session.register("cc", "CC", listener=bad)
        session.update_stream([Batch([EdgeInsertion(0, 9)])], notify=True)
        assert session.seq == 0  # commit survived the listener
        kinds = [incident.kind for incident in session.incidents]
        assert "listener-error" in kinds


class TestHandWrittenWindows:
    """IncDFS and IncCoreness have no ``apply_stream``; the session hands
    them a window's batches, concatenated, in one ``apply``."""

    @pytest.mark.parametrize("algorithm", ["DFS", "Coreness"])
    def test_two_batch_window_composes_delta_o(self, algorithm):
        session = make_session()
        session.register("q", algorithm)
        registered = session._queries["q"]
        before = dict(registered.state.values)
        applied = []
        apply = registered.incremental.apply

        def recording_apply(graph, state, delta, query=None):
            applied.append(list(delta.updates))
            return apply(graph, state, delta, query)

        registered.incremental.apply = recording_apply
        # Node 5 appears in the first batch and changes again in the second.
        stream = [Batch([EdgeInsertion(3, 5)]), Batch([EdgeInsertion(4, 5)])]
        result = session.update_stream(stream)["q"]
        assert applied == [[EdgeInsertion(3, 5), EdgeInsertion(4, 5)]]
        after = registered.state.values
        changed = {
            key for key in set(before) | set(after) if before.get(key) != after.get(key)
        }
        assert 5 in changed
        assert result.changes == {key: (before.get(key), after.get(key)) for key in changed}
        expected = registered.batch.run(session.graph.copy(), registered.query).values
        assert dict(after) == dict(expected)
