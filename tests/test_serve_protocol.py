"""Wire-level tests of the answer memo: every answer verb's response line
is byte-identical to ``json.dumps(snapshot_response(snapshot))``, and an
answer object is encoded once, by its first reader, never by the writer."""

import json

import pytest

from repro.graph import EdgeInsertion, Graph, from_edges
from repro.serve import QueryService, protocol
from repro.serve.protocol import encode_query, handle_line, handle_request, snapshot_response
from repro.session import DynamicGraphSession


def labeled_graph() -> Graph:
    g = from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 2), (0, 3), (3, 4), (4, 2)],
        weights=[1.0, 2.0, 3.0, 1.0, 7.0, 1.0, 0.5],
        directed=True,
    )
    g.add_node(5)  # unreachable: inf distances, a second component
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


#: One query per built-in algorithm, covering every answer shape: int-keyed
#: dicts with inf (SSSP, SSWP), CC labels, Sim's set of pairs, LCC floats,
#: Reach's booleans, a DFSResult and Coreness' ints.
QUERIES = [
    ("sssp", "SSSP", 0),
    ("sswp", "SSWP", 0),
    ("cc", "CC", None),
    ("sim", "Sim", sim_pattern()),
    ("lcc", "LCC", None),
    ("reach", "Reach", 0),
    ("dfs", "DFS", 0),
    ("core", "Coreness", None),
    ('q "é"', "CC", None),  # a name the header has to escape
]


def line(service, **doc) -> str:
    return handle_line(service, json.dumps(doc))


def expected(service, name) -> str:
    return json.dumps(snapshot_response(service.read(name)))


@pytest.fixture
def service():
    svc = QueryService(DynamicGraphSession(labeled_graph()))
    yield svc
    svc.close(drain=False)


class TestByteIdentity:
    def test_answer_shapes_are_covered(self, service):
        for name, algorithm, query in QUERIES:
            service.register(name, algorithm, query=query)
        answers = {name: service.read(name).answer for name, _a, _q in QUERIES}
        assert float("inf") in answers["sssp"].values()
        assert float("inf") in answers["sswp"].values()
        assert answers["sim"] and all(isinstance(p, tuple) for p in answers["sim"])
        assert any(0.0 < v < 1.0 for v in answers["lcc"].values())
        assert set(answers["reach"].values()) == {True, False}
        assert hasattr(answers["dfs"], "parent")
        assert len(set(answers["cc"].values())) == 2

    @pytest.mark.parametrize("name,algorithm,query", QUERIES, ids=[q[0] for q in QUERIES])
    def test_register_query_watch_lines(self, service, name, algorithm, query):
        registered = line(
            service, op="register", name=name, algorithm=algorithm,
            query=encode_query(query) if query is not None else None,
        )
        assert registered == expected(service, name)
        for _ in range(2):  # a miss, then a hit
            assert line(service, op="query", name=name) == expected(service, name)
            assert line(service, op="watch", name=name, after_version=-1) == expected(service, name)

    def test_lines_after_changed_and_equal_publishes(self, service):
        for name, algorithm, query in QUERIES:
            service.register(name, algorithm, query=query)
        service.start()
        before = {name: line(service, op="query", name=name) for name, _a, _q in QUERIES}
        service.update([EdgeInsertion(4, 6, weight=2.0)])  # new node: every answer changes
        service.update([EdgeInsertion(5, 5, weight=1.0)])  # self-loop: some answers stay
        for name, _a, _q in QUERIES:
            text = line(service, op="query", name=name)
            assert text == expected(service, name)
            assert text != before[name]  # seq moved at least

    def test_in_process_path_still_returns_dicts(self, service):
        service.register("sssp", "SSSP", query=0)
        response = handle_request(service, {"op": "query", "name": "sssp"})
        assert response == snapshot_response(service.read("sssp"))

    def test_errors_and_other_verbs_unchanged(self, service):
        service.register("cc", "CC")
        assert json.loads(line(service, op="query", name="nope"))["ok"] is False
        assert line(service, op="ping") == json.dumps(handle_request(service, {"op": "ping"}))
        assert json.loads(line(service, op="bogus"))["error"]["type"] == "ReproError"


class TestEncodeCount:
    @pytest.fixture
    def encodes(self, monkeypatch):
        """Top-level ``jsonable`` calls (it recurses through the module
        global, so nested calls are not counted)."""
        original = protocol.jsonable
        depth = [0]
        count = [0]

        def counting(answer):
            if depth[0] == 0:
                count[0] += 1
            depth[0] += 1
            try:
                return original(answer)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(protocol, "jsonable", counting)
        return count

    def test_once_per_published_answer(self, service, encodes):
        service.register("cc", "CC")
        service.start()
        assert encodes[0] == 0  # registering publishes, it does not encode

        for _ in range(5):
            line(service, op="query", name="cc")
        assert encodes[0] == 1

        first = service.read("cc")
        service.update([EdgeInsertion(0, 2, weight=1.0)])  # inside one component
        equal = service.read("cc")
        assert (equal.seq, equal.version) == (first.seq + 1, first.version)
        assert encodes[0] == 1  # the writer never encodes
        for _ in range(5):
            line(service, op="query", name="cc")
            line(service, op="watch", name="cc", after_version=-1)
        assert encodes[0] == 1  # equal re-publish shares the memo

        service.update([EdgeInsertion(4, 7, weight=1.0)])  # a new node joins
        changed = service.read("cc")
        assert changed.version == first.version + 1
        assert encodes[0] == 1
        for _ in range(5):
            line(service, op="query", name="cc")
        assert encodes[0] == 2

    def test_in_process_reads_do_not_fill_the_memo(self, service, encodes):
        service.register("cc", "CC")
        handle_request(service, {"op": "query", "name": "cc"})
        assert service.read("cc").memo.text is None
        line(service, op="query", name="cc")
        assert encodes[0] == 2
