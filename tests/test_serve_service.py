"""Tests for the query service: writer thread, admission control, drain."""

import threading
import time

import pytest

from oracles import oracle_cc, oracle_sssp
from repro.errors import (
    BatchValidationError,
    Deadline,
    Overloaded,
    ReproError,
    ServiceClosed,
)
from repro.graph import Batch, EdgeDeletion, EdgeInsertion, from_edges
from repro.serve import QueryService, ServiceConfig
from repro.session import DynamicGraphSession


def make_service(config=None, register=True, start=True):
    g = from_edges([(0, 1), (1, 2), (2, 3)], weights=[1.0, 2.0, 3.0])
    service = QueryService(DynamicGraphSession(g), config)
    if register:
        service.register("cc", "CC")
        service.register("sssp", "SSSP", query=0)
    if start:
        service.start()
    return service


@pytest.fixture
def service():
    svc = make_service()
    yield svc
    svc.close(drain=False)


class TestReadsAndWrites:
    def test_initial_snapshots_published(self, service):
        snap = service.read("cc")
        assert snap.seq == -1 and snap.version == 0
        assert snap.answer == oracle_cc(service.session.graph)

    def test_read_your_writes(self, service):
        seq = service.update(EdgeInsertion(3, 4, weight=1.0))
        assert seq == 0
        snap = service.read("sssp")
        assert snap.seq >= seq
        assert snap.answer == oracle_sssp(service.session.graph, 0)

    def test_answers_track_oracles_through_updates(self, service):
        service.update(EdgeInsertion(0, 3, weight=0.5))
        service.update(Batch([EdgeDeletion(1, 2), EdgeInsertion(2, 4, weight=2.0)]))
        g = service.session.graph
        assert service.read("cc").answer == oracle_cc(g)
        assert service.read("sssp").answer == oracle_sssp(g, 0)

    def test_sequential_seqs_across_submitters(self, service):
        seqs = [service.update(EdgeInsertion(0, 10 + i)) for i in range(4)]
        assert seqs == [0, 1, 2, 3]

    def test_read_never_blocks_on_unknown(self, service):
        with pytest.raises(ReproError):
            service.read("nope")

    def test_register_through_writer(self, service):
        snap = service.register("lcc", "LCC")
        assert snap.name == "lcc"
        assert "lcc" in service.store.names()
        service.unregister("lcc")
        assert "lcc" not in service.store.names()

    def test_validation_error_is_typed_and_isolated(self):
        # Queue a bad and a good op before the writer starts, so both land
        # in one window: the stream fails validation as a whole and the
        # writer falls back to committing op by op.
        service = make_service(start=False)
        outcomes = {}

        def submit(label, update):
            try:
                outcomes[label] = service.update(update)
            except Exception as exc:
                outcomes[label] = exc

        submitters = [
            threading.Thread(target=submit, args=("bad", EdgeInsertion(0, 1))),  # edge exists
            threading.Thread(target=submit, args=("good", EdgeInsertion(0, 7))),
        ]
        try:
            for thread in submitters:
                thread.start()
            deadline = time.monotonic() + 5.0
            while service._queue.qsize() < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service._queue.qsize() == 2
            service.start()
            for thread in submitters:
                thread.join(5.0)
            assert isinstance(outcomes["bad"], BatchValidationError)
            # The service survives and the healthy op commits.
            seq = outcomes["good"]
            assert isinstance(seq, int)
            assert service.read("cc").seq >= seq
            # The fallback window counts through the same absorber as any
            # window: the rejected op once, the good op once in ops and
            # windows, with one apply per registered query.
            window = service.stats()["window"]
            assert window["rejected"] == 1
            assert window["ops"] == 1
            assert window["windows"] == 1
            assert window["applies"] == len(service.session.queries())
            assert window["touched"] > 0
        finally:
            service.close(drain=False)


class TestWatch:
    def test_watch_wakes_on_change(self, service):
        result = {}

        def waiter():
            result["snap"] = service.watch("cc", after_version=0, timeout=5.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        service.update(EdgeInsertion(50, 51))  # new component: CC answer changes
        thread.join(5.0)
        assert not thread.is_alive()
        assert result["snap"].version > 0

    def test_watch_timeout_raises_deadline(self, service):
        with pytest.raises(Deadline):
            service.watch("cc", after_version=10_000, timeout=0.05)


class TestAdmissionControl:
    def test_overloaded_when_queue_full(self):
        # No writer thread: admitted ops stay queued.
        service = make_service(ServiceConfig(queue_size=2), start=False)
        try:
            for i in range(2):
                with pytest.raises(Deadline):
                    service.update(EdgeInsertion(0, 10 + i), deadline=0.01)
            with pytest.raises(Overloaded) as exc_info:
                service.update(EdgeInsertion(0, 12), deadline=0.01)
            assert exc_info.value.depth == 2
            stats = service.stats()
            assert stats["window"]["shed_overloaded"] == 1
            assert stats["window"]["shed_deadline"] == 2
        finally:
            service.close(drain=False)

    def test_expired_op_shed_at_dequeue(self):
        service = make_service(ServiceConfig(queue_size=8), start=False)
        try:
            with pytest.raises(Deadline):
                service.update(EdgeInsertion(0, 10), deadline=0.01)
            # The op is still queued; once the writer starts it must be
            # shed un-applied, not committed behind the caller's back.
            service.start()
            deadline = time.monotonic() + 5.0
            while service._queue.qsize() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.session.seq == -1  # nothing committed
            assert service.stats()["lifetime"]["shed_deadline"] >= 1
        finally:
            service.close(drain=False)

    def test_update_after_close_raises(self):
        service = make_service()
        service.close()
        with pytest.raises(ServiceClosed):
            service.update(EdgeInsertion(0, 9))
        with pytest.raises(ServiceClosed):
            service.register("q2", "CC")


class TestShutdown:
    def test_graceful_drain_commits_queued_tail(self):
        service = make_service()
        seqs = []
        for i in range(10):
            seqs.append(service.update(EdgeInsertion(0, 100 + i)))
        service.close(drain=True)
        assert service.closed
        assert service.session.seq == seqs[-1]
        # Final snapshots reflect the drained state.
        assert service.read("cc").seq == seqs[-1]

    def test_close_without_drain_sheds_queued_ops(self):
        service = make_service(ServiceConfig(queue_size=64), start=False)
        outcomes = []

        def submit(i):
            try:
                outcomes.append(("ok", service.update(EdgeInsertion(0, 200 + i))))
            except ServiceClosed:
                outcomes.append(("shed", None))

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5.0
        while service._queue.qsize() < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        service.close(drain=False)
        for t in threads:
            t.join(5.0)
        assert [kind for kind, _ in outcomes] == ["shed"] * 4

    def test_close_idempotent(self):
        service = make_service()
        service.close()
        service.close()
        assert service.closed


class TestStatsWindows:
    def test_scrape_and_reset_semantics(self, service):
        service.update(EdgeInsertion(0, 20))
        service.update(EdgeInsertion(0, 21))
        first = service.stats(reset_window=True)
        assert first["window"]["ops"] == 2
        assert first["window"]["applies"] > 0
        assert first["latency"]["write"]["window"] == 2
        # The window rolled: a fresh scrape reports only new work.
        second = service.stats(reset_window=True)
        assert second["window"]["ops"] == 0
        assert second["latency"]["write"]["window"] == 0
        # Lifetime totals survive the roll.
        assert second["lifetime"]["ops"] == 2
        assert second["seq"] == 1

    def test_reset_false_preserves_window(self, service):
        service.update(EdgeInsertion(0, 22))
        assert service.stats(reset_window=False)["window"]["ops"] == 1
        assert service.stats(reset_window=False)["window"]["ops"] == 1

    def test_publish_counts_reused_and_rebuilt_answers(self, service):
        service.stats()  # drop the registrations' initial publishes
        # A heavy chord moves neither the component nor any distance:
        # both answers keep their snapshots.
        service.update(EdgeInsertion(0, 3, weight=100.0))
        unchanged = service.stats()["window"]
        assert (unchanged["answers_reused"], unchanged["answers_rebuilt"]) == (2, 0)
        # A new leaf changes both: each is re-extracted once.
        before = service.read("sssp")
        service.update(EdgeInsertion(3, 30, weight=1.0))
        changed = service.stats()
        assert (changed["window"]["answers_reused"], changed["window"]["answers_rebuilt"]) == (0, 2)
        assert changed["lifetime"]["answers_rebuilt"] == 4  # 2 initial + 2
        after = service.read("sssp")
        assert (after.version, after.changed) == (before.version + 1, 1)

    def test_queue_depth_gauge(self, service):
        stats = service.stats()
        assert stats["queue"]["capacity"] == 256
        assert stats["queue"]["depth"] >= 0


class _CommitThenRaise(DynamicGraphSession):
    """A session whose next ``update_stream`` commits and then raises, as
    a failing shard scatter or audit does after the writer committed."""

    raise_after_commit = False

    def update_stream(self, stream, notify=False):
        results = super().update_stream(stream, notify=notify)
        if self.raise_after_commit:
            self.raise_after_commit = False
            raise ReproError("failed after the window committed")
        return results


class TestPublishAfterLostResults:
    def test_a_commit_without_results_rebuilds_every_answer(self):
        g = from_edges([(0, 1), (1, 2), (2, 3)], weights=[1.0, 2.0, 3.0])
        session = _CommitThenRaise(g)
        service = QueryService(session)
        service.register("cc", "CC")
        service.register("sssp", "SSSP", query=0)
        service.start()
        try:
            session.raise_after_commit = True
            # Committed, then raised: the op resolves with the raised
            # error, is not retried, and its window publishes by rebuild.
            with pytest.raises(ReproError):
                service.update(EdgeInsertion(3, 30, weight=1.0))
            # A later window whose own ΔO is empty keeps those answers.
            service.update(EdgeInsertion(0, 3, weight=100.0))
            for name in ("cc", "sssp"):
                snap = service.read(name)
                assert snap.answer == session.answer(name)
                assert 30 in snap.answer and snap.version == 1
        finally:
            service.close(drain=False)


    def test_a_committed_run_is_not_reapplied(self):
        # The window +(3,30), −(3,30) commits as one stream, which then
        # raises.  Re-applying its ops one by one would commit both again.
        g = from_edges([(0, 1), (1, 2), (2, 3)], weights=[1.0, 2.0, 3.0])
        session = _CommitThenRaise(g)
        service = QueryService(session)
        service.register("sssp", "SSSP", query=0)
        outcomes = {}

        def submit(label, update):
            try:
                outcomes[label] = service.update(update)
            except Exception as exc:
                outcomes[label] = exc

        submitters = [
            threading.Thread(target=submit, args=("insert", EdgeInsertion(3, 30, weight=1.0))),
            threading.Thread(target=submit, args=("delete", EdgeDeletion(3, 30))),
        ]
        try:
            for queued, thread in enumerate(submitters, start=1):
                thread.start()  # one at a time, so the window keeps this order
                deadline = time.monotonic() + 5.0
                while service._queue.qsize() < queued and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert service._queue.qsize() == queued
            session.raise_after_commit = True
            service.start()
            for thread in submitters:
                thread.join(5.0)
            assert session.batches_applied == 2
            for label in ("insert", "delete"):
                error = outcomes[label]
                assert isinstance(error, ReproError), label
                assert not isinstance(error, BatchValidationError), label
                assert "after the window committed" in str(error)
            assert not session.graph.has_edge(3, 30)
            snap = service.read("sssp")
            assert snap.answer == session.answer("sssp")
            assert snap.seq == session.seq
        finally:
            service.close(drain=False)

    def test_a_committed_single_op_is_not_rejected_as_present(self):
        g = from_edges([(0, 1), (1, 2), (2, 3)], weights=[1.0, 2.0, 3.0])
        session = _CommitThenRaise(g)
        service = QueryService(session)
        service.register("sssp", "SSSP", query=0)
        service.start()
        try:
            session.raise_after_commit = True
            with pytest.raises(ReproError, match="after the window committed"):
                service.update(EdgeInsertion(3, 30, weight=1.0))
            assert session.batches_applied == 1
            assert service.read("sssp").answer[30] == 7.0
        finally:
            service.close(drain=False)


class TestListenerIsolation:
    def test_raising_listener_does_not_wedge_writer(self):
        g = from_edges([(0, 1), (1, 2)], weights=[1.0, 1.0])
        service = QueryService(DynamicGraphSession(g))
        seen = []

        def bad_listener(name, result):
            seen.append((name, result))
            raise RuntimeError("subscriber bug")

        service.register("cc", "CC", listener=bad_listener)
        service.start()
        try:
            # Multiple windows: the writer must survive every delivery.
            seqs = [service.update(EdgeInsertion(0, 10 + i)) for i in range(3)]
            assert seqs == [0, 1, 2]
            assert len(seen) == 3           # listener ran under the writer
            assert service.read("cc").seq == 2
            stats = service.stats()
            assert stats["incidents"] >= 3  # failures logged, not raised
            # And the queue is empty — nothing wedged.
            assert service._queue.qsize() == 0
        finally:
            service.close(drain=False)


class TestConcurrentSubmitters:
    def test_many_writers_unique_seqs(self, service):
        seqs, lock = [], threading.Lock()

        def writer(tid):
            for i in range(5):
                seq = service.update(EdgeInsertion(1000 + tid, 2000 + tid * 10 + i))
                with lock:
                    seqs.append(seq)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert sorted(seqs) == list(range(30))  # every batch got its own seq
        assert service.read("cc").seq == 29
