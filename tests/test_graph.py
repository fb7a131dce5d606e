"""Unit tests for the core Graph structure."""

import pytest

from repro.errors import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
)
from repro.graph import Graph, from_edges


class TestNodes:
    def test_add_and_contains(self):
        g = Graph()
        g.add_node("a")
        assert g.has_node("a")
        assert "a" in g
        assert g.num_nodes == 1

    def test_add_duplicate_raises(self):
        g = Graph()
        g.add_node(1)
        with pytest.raises(DuplicateNodeError):
            g.add_node(1)

    def test_ensure_node_is_idempotent(self):
        g = Graph()
        g.ensure_node(1)
        g.ensure_node(1)
        assert g.num_nodes == 1

    def test_ensure_node_updates_label(self):
        g = Graph()
        g.ensure_node(1, label="x")
        g.ensure_node(1, label="y")
        assert g.node_label(1) == "y"

    def test_node_labels(self):
        g = Graph()
        g.add_node(1, label="person")
        assert g.node_label(1) == "person"
        g.set_node_label(1, "bot")
        assert g.node_label(1) == "bot"
        g.add_node(2)
        assert g.node_label(2, default="none") == "none"

    def test_label_of_missing_node_raises(self):
        g = Graph()
        with pytest.raises(NodeNotFoundError):
            g.node_label(42)
        with pytest.raises(NodeNotFoundError):
            g.set_node_label(42, "x")

    def test_remove_node_removes_incident_edges(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(3, 1)
        g.add_edge(2, 3)
        g.remove_node(1)
        assert not g.has_node(1)
        assert g.num_edges == 1
        assert g.has_edge(2, 3)

    def test_remove_node_undirected(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(1, 3)
        g.remove_node(1)
        assert g.num_edges == 0
        assert sorted(g.nodes()) == [2, 3]

    def test_remove_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph().remove_node(9)

    def test_len_counts_nodes(self):
        g = from_edges([(0, 1), (1, 2)])
        assert len(g) == 3


class TestEdges:
    def test_add_edge_creates_endpoints(self):
        g = Graph(directed=True)
        g.add_edge("a", "b", weight=2.0)
        assert g.has_node("a") and g.has_node("b")
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")
        assert g.weight("a", "b") == 2.0

    def test_undirected_edge_is_symmetric(self):
        g = Graph()
        g.add_edge(1, 2, weight=3.0)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert g.weight(2, 1) == 3.0
        assert g.num_edges == 1

    def test_duplicate_edge_raises(self):
        g = Graph()
        g.add_edge(1, 2)
        with pytest.raises(DuplicateEdgeError):
            g.add_edge(2, 1)  # same undirected edge

    def test_directed_reverse_is_distinct(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert g.num_edges == 2

    def test_remove_edge(self):
        g = Graph()
        g.add_edge(1, 2)
        g.remove_edge(2, 1)
        assert g.num_edges == 0
        assert not g.has_edge(1, 2)

    def test_remove_missing_edge_raises(self):
        g = Graph()
        g.add_node(1)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 2)

    def test_weight_of_missing_edge_raises(self):
        g = Graph()
        g.ensure_node(1)
        g.ensure_node(2)
        with pytest.raises(EdgeNotFoundError):
            g.weight(1, 2)

    def test_set_weight(self):
        g = Graph()
        g.add_edge(1, 2, weight=1.0)
        g.set_weight(1, 2, 9.0)
        assert g.weight(2, 1) == 9.0

    def test_edge_labels(self):
        g = Graph(directed=True)
        g.add_edge(1, 2, label="follows")
        assert g.edge_label(1, 2) == "follows"
        g.set_edge_label(1, 2, "blocks")
        assert g.edge_label(1, 2) == "blocks"

    def test_edge_label_canonical_for_undirected(self):
        g = Graph()
        g.add_edge(2, 1, label="x")
        assert g.edge_label(1, 2) == "x"

    def test_self_loop_roundtrip(self):
        for directed in (True, False):
            g = Graph(directed=directed)
            g.add_edge(5, 5)
            assert g.num_edges == 1
            assert g.has_edge(5, 5)
            g.remove_edge(5, 5)
            assert g.num_edges == 0

    def test_edges_iteration_matches_count(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)])
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]
        gd = from_edges([(1, 0), (0, 1)], directed=True)
        assert sorted(gd.edges()) == [(0, 1), (1, 0)]

    def test_size_is_nodes_plus_edges(self):
        g = from_edges([(0, 1), (1, 2)])
        assert g.size == 3 + 2


class TestNeighborhoods:
    def test_directed_in_out(self):
        g = from_edges([(0, 1), (2, 1), (1, 3)], directed=True)
        assert sorted(g.out_neighbors(1)) == [3]
        assert sorted(g.in_neighbors(1)) == [0, 2]
        assert sorted(g.neighbors(1)) == [0, 2, 3]
        assert g.out_degree(1) == 1
        assert g.in_degree(1) == 2
        assert g.degree(1) == 3

    def test_undirected_symmetry(self):
        g = from_edges([(0, 1), (1, 2)])
        assert sorted(g.neighbors(1)) == [0, 2]
        assert sorted(g.in_neighbors(1)) == sorted(g.out_neighbors(1)) == [0, 2]
        assert g.degree(1) == 2

    def test_items_carry_weights(self):
        g = Graph(directed=True)
        g.add_edge(0, 1, weight=4.0)
        assert list(g.out_items(0)) == [(1, 4.0)]
        assert list(g.in_items(1)) == [(0, 4.0)]

    def test_missing_node_raises(self):
        g = Graph()
        with pytest.raises(NodeNotFoundError):
            list(g.neighbors(0))
        with pytest.raises(NodeNotFoundError):
            g.degree(0)


class TestNeighborSet:
    def test_undirected_is_a_live_view(self):
        g = from_edges([(0, 1), (1, 2), (1, 1)])
        nbrs = g.neighbor_set(1)
        assert nbrs == set(g.neighbors(1)) == {0, 1, 2}
        g.add_edge(1, 3)
        g.remove_edge(0, 1)
        assert nbrs == set(g.neighbors(1)) == {1, 2, 3}

    def test_directed_is_in_union_out(self):
        g = from_edges([(0, 1), (1, 0), (2, 1), (1, 3), (1, 1)], directed=True)
        nbrs = g.neighbor_set(1)
        assert nbrs == set(g.in_neighbors(1)) | set(g.out_neighbors(1)) == {0, 1, 2, 3}
        assert nbrs == set(g.neighbors(1))
        assert g.neighbor_set(2) == {1}
        assert g.neighbor_set(3) == {1}

    def test_intersection_gives_common_neighbors(self):
        for directed in (False, True):
            g = from_edges([(0, 2), (3, 0), (1, 2), (1, 3), (1, 4)], directed=directed)
            assert g.neighbor_set(0) & g.neighbor_set(1) == {2, 3}

    @pytest.mark.parametrize("directed", [False, True])
    def test_missing_node_raises(self, directed):
        g = from_edges([(0, 1)], directed=directed)
        with pytest.raises(NodeNotFoundError):
            g.neighbor_set(7)


class TestWholeGraph:
    def test_copy_is_independent(self):
        g = from_edges([(0, 1)], directed=True)
        g.set_node_label(0, "a")
        h = g.copy()
        h.add_edge(1, 2)
        h.set_node_label(0, "b")
        assert g.num_edges == 1
        assert g.node_label(0) == "a"
        assert h.num_edges == 2

    def test_copy_preserves_structure_and_weights(self):
        g = from_edges([(0, 1), (1, 2)], weights=[2.0, 3.0])
        h = g.copy()
        assert h == g
        assert h.weight(1, 2) == 3.0

    def test_equality(self):
        a = from_edges([(0, 1)])
        b = from_edges([(0, 1)])
        assert a == b
        b.add_node(5)
        assert a != b
        assert a != "not a graph"

    def test_repr_mentions_counts(self):
        g = from_edges([(0, 1)])
        assert "|V|=2" in repr(g)
        assert "undirected" in repr(g)

    def test_from_edges_with_weights(self):
        g = from_edges([(0, 1), (1, 2)], directed=True, weights=[5.0, 6.0])
        assert g.weight(0, 1) == 5.0
        assert g.weight(1, 2) == 6.0
