"""End-to-end TCP tests: protocol, typed remote errors, and the
differential isolation gate (concurrent readers vs a live write stream)."""

import json
import socket
import sys
import threading

import pytest

from repro.errors import ContradictoryUpdateError, Deadline, ReproError
from repro.graph import Batch, EdgeDeletion, EdgeInsertion, from_edges
from repro.graph.updates import apply_updates
from repro.serve import (
    LoadReport,
    QueryServer,
    QueryService,
    ServiceClient,
    run_load,
    verify_isolation,
)
from repro.serve.protocol import handle_line, jsonable, snapshot_response
from repro.session import ALGORITHM_PAIRS, DynamicGraphSession


def make_graph():
    return from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)],
        weights=[1.0, 2.0, 1.0, 2.0, 5.0, 1.5],
    )


@pytest.fixture
def server():
    service = QueryService(DynamicGraphSession(make_graph()))
    service.register("cc", "CC")
    service.register("sssp", "SSSP", query=0)
    service.start()
    srv = QueryServer(service, port=0).start()
    yield srv
    srv.stop()
    service.close(drain=False)


@pytest.fixture
def client(server):
    with ServiceClient(*server.address) as c:
        yield c


class TestProtocol:
    def test_ping(self, client):
        assert client.ping() == 1

    def test_query_roundtrip(self, client):
        snap = client.query("sssp")
        assert snap["seq"] == -1
        assert snap["answer"]["4"] == 4.5  # 0-1-3-4 via jsonable string keys

    def test_update_then_read_your_writes(self, client):
        seq = client.update([EdgeInsertion(4, 5, weight=1.0)])
        snap = client.query("sssp")
        assert snap["seq"] >= seq
        assert snap["answer"]["5"] == 5.5

    def test_register_and_unregister_over_wire(self, client):
        snap = client.register("lcc", "LCC")
        assert snap["name"] == "lcc" and snap["version"] == 0
        client.unregister("lcc")
        with pytest.raises(ReproError):
            client.query("lcc")

    def test_watch_long_poll(self, server, client):
        with ServiceClient(*server.address) as writer:
            result = {}

            def poll():
                result["snap"] = client.watch("cc", after_version=0, timeout=5.0)

            thread = threading.Thread(target=poll)
            thread.start()
            writer.update([EdgeInsertion(70, 71)])  # cc answer changes
            thread.join(5.0)
        assert not thread.is_alive()
        assert result["snap"]["version"] >= 1

    def test_watch_timeout_raises_typed_deadline(self, client):
        with pytest.raises(Deadline):
            client.watch("cc", after_version=9999, timeout=0.05)

    def test_validation_error_arrives_typed(self, client):
        with pytest.raises(ContradictoryUpdateError):
            client.update([EdgeInsertion(0, 1)])  # already present

    def test_unknown_query_is_error_not_disconnect(self, client):
        with pytest.raises(ReproError):
            client.query("nope")
        assert client.ping() == 1  # connection survived

    def test_stats_over_wire(self, client):
        client.update([EdgeInsertion(80, 81)])
        stats = client.stats(reset=True)
        assert stats["window"]["ops"] == 1
        assert client.stats(reset=False)["window"]["ops"] == 0  # window rolled

    def test_malformed_line_survives_connection(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            response = json.loads(f.readline())
            assert response["ok"] is False
            assert "malformed" in response["error"]["message"]
            f.write(json.dumps({"op": "ping"}).encode() + b"\n")
            f.flush()
            assert json.loads(f.readline())["ok"] is True


class TestDifferentialIsolation:
    """The acceptance gate: >= 8 concurrent reader threads during a
    500-op write stream; every read must equal the batch-recomputed
    answer at its reported WAL sequence number.  Zero torn reads."""

    QUERIES = {"cc": ("CC", None), "sssp": ("SSSP", 0)}

    def test_concurrent_reads_match_batch_recompute_at_seq(self, server):
        host, port = server.address
        initial = make_graph()
        report = LoadReport()
        lock = threading.Lock()
        writers_done = threading.Event()
        failures = []

        def writer(tid, ops):
            try:
                with ServiceClient(host, port) as c:
                    for i in range(ops):
                        node = 1000 + tid  # private per writer
                        batch = (
                            [EdgeInsertion(tid % 5, node, weight=1.0 + i)]
                            if i % 2 == 0
                            else [EdgeDeletion(tid % 5, node)]
                        )
                        seq = c.update(batch)
                        with lock:
                            report.write_records.append((seq, batch))
            except Exception as exc:  # pragma: no cover - fail loudly
                failures.append(exc)

        def reader():
            try:
                with ServiceClient(host, port) as c:
                    while not writers_done.is_set():
                        for name in ("cc", "sssp"):
                            snap = c.query(name)
                            with lock:
                                report.read_records.append(
                                    (name, int(snap["seq"]), snap["answer"])
                                )
            except Exception as exc:  # pragma: no cover - fail loudly
                failures.append(exc)

        writer_threads = [
            threading.Thread(target=writer, args=(tid, 125)) for tid in range(4)
        ]
        reader_threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in reader_threads + writer_threads:
            t.start()
        for t in writer_threads:
            t.join(60.0)
        writers_done.set()
        for t in reader_threads:
            t.join(30.0)

        assert not failures, failures
        assert len(report.write_records) == 500
        # Sanity: the stream really was observed while in flight.
        observed = {seq for _n, seq, _a in report.read_records}
        assert len(observed) > 10, "readers saw too few distinct versions"

        violations = verify_isolation(
            initial, self.QUERIES, report, base_seq=-1
        )
        assert violations == []

        # Every recorded read was inside the contiguous prefix (writers
        # never shed), so none of the checks above were vacuous skips.
        assert max(seq for seq, _ in report.write_records) == 499


class TestCachedAnswerLines:
    """Reader threads hammer ``handle_line`` while the writer publishes
    changed answers: every line must parse and must equal the published
    snapshot of its own ``(seq, version)`` byte for byte, so memoized
    answer text is never served under another version's header."""

    def test_no_torn_cached_reads(self):
        service = QueryService(DynamicGraphSession(make_graph()))
        service.register("cc", "CC")
        service.register("sssp", "SSSP", query=0)
        published = {}
        publish = service.store.publish

        def recording_publish(answers, seq, algorithms):
            fresh = publish(answers, seq, algorithms)
            for name, snap in fresh.items():
                published.setdefault((name, snap.seq, snap.version), []).append(snap)
            return fresh

        service.store.publish = recording_publish
        for name in ("cc", "sssp"):
            snap = service.read(name)
            published[(name, snap.seq, snap.version)] = [snap]
        service.start()
        done = threading.Event()
        lines, failures = [], []

        def reader():
            requests = [
                json.dumps({"op": "query", "name": "cc"}),
                json.dumps({"op": "query", "name": "sssp"}),
                json.dumps({"op": "watch", "name": "cc", "after_version": -1}),
            ]
            seen = []
            try:
                while not done.is_set():
                    for request in requests:
                        seen.append(handle_line(service, request))
            except Exception as exc:  # pragma: no cover - fail loudly
                failures.append(exc)
            lines.extend(seen)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave readers and the writer finely
        for t in readers:
            t.start()
        try:
            for i in range(80):
                node = 500 + i // 2
                batch = (
                    [EdgeInsertion(i % 5, node, weight=1.0 + i % 3)]
                    if i % 2 == 0
                    else [EdgeDeletion((i - 1) % 5, node)]
                )
                service.update(batch)
        finally:
            done.set()
            for t in readers:
                t.join(30.0)
            sys.setswitchinterval(interval)
            service.close(drain=False)

        assert not any(t.is_alive() for t in readers)
        assert not failures, failures
        expected = {}
        for text in lines:
            doc = json.loads(text)
            assert doc["ok"] is True, doc
            key = (doc["name"], doc["seq"], doc["version"])
            if key not in expected:
                expected[key] = {json.dumps(snapshot_response(s)) for s in published[key]}
            assert text in expected[key]
        assert len(expected) > 10, "readers saw too few distinct versions"


class TestShutdownPublish:
    """The writer's final publish on close re-publishes the last ``seq``:
    it must keep each snapshot as served, so one ``(name, seq, version)``
    never carries two ``changed`` values."""

    def test_close_keeps_the_last_snapshot(self):
        service = QueryService(DynamicGraphSession(make_graph()))
        service.register("cc", "CC")
        service.register("sssp", "SSSP", query=0)
        service.start()
        service.update([EdgeInsertion(0, 9, weight=1.0)])
        before = {name: service.read(name) for name in ("cc", "sssp")}
        assert all(snap.changed == 1 for snap in before.values())
        service.close()
        for name, snap in before.items():
            after = service.read(name)
            assert (after.seq, after.version, after.changed) == (
                snap.seq, snap.version, snap.changed,
            )
            assert after is snap


class TestLoadgen:
    def test_run_load_closed_loop_verifies_clean(self, server):
        host, port = server.address
        initial = make_graph()
        report = run_load(
            host,
            port,
            ["cc", "sssp"],
            duration=1.0,
            read_fraction=0.6,
            threads=8,
            base_nodes=[0, 1, 2, 3, 4],
            seed=23,
        )
        assert report.reads > 0 and report.writes > 0
        assert report.write_errors == {}
        violations = verify_isolation(
            initial, {"cc": ("CC", None), "sssp": ("SSSP", 0)}, report, base_seq=-1
        )
        assert violations == []
        summary = report.summary()
        assert summary["read_latency_s"]["p99"] >= summary["read_latency_s"]["p50"]

    def test_open_loop_respects_rate(self, server):
        host, port = server.address
        report = run_load(
            host, port, ["cc"], duration=1.0, read_fraction=1.0,
            threads=4, mode="open", rate=100, base_nodes=[0], seed=5,
        )
        # ~100 ops scheduled in 1s; allow generous slack for CI jitter.
        assert 50 <= report.reads <= 140

    def test_verify_isolation_catches_a_torn_read(self):
        # A read whose answer does NOT match its seq must be flagged.
        initial = make_graph()
        batch = [EdgeInsertion(0, 9, weight=1.0)]
        good = initial.copy()
        apply_updates(good, Batch(batch))
        cc_factory, _ = ALGORITHM_PAIRS["CC"]
        algo = cc_factory()
        state = algo.run(good.copy(), None)
        right = jsonable(algo.answer(state, good, None))
        report = LoadReport()
        report.write_records.append((0, batch))
        report.read_records.append(("cc", 0, right))       # consistent
        assert verify_isolation(initial, {"cc": ("CC", None)}, report) == []
        torn = dict(right)
        torn[next(iter(torn))] = 999                        # corrupt one key
        report.read_records.append(("cc", 0, torn))
        violations = verify_isolation(initial, {"cc": ("CC", None)}, report)
        assert len(violations) == 1
        assert "torn read" in violations[0]
