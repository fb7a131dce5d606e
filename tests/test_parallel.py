"""Tests for edge-cut partitioning."""

import pytest

from repro.errors import GraphError
from repro.generators import erdos_renyi
from repro.graph import from_edges
from repro.parallel import build_partitioning, stable_partition


class TestPartitioning:
    def test_hash_partition_covers_all_nodes(self):
        g = erdos_renyi(30, 60, seed=1)
        p = stable_partition(g, 4)
        assert set(p.assignment) == set(g.nodes())
        owned = [{v for v, i in p.assignment.items() if i == k} for k in range(4)]
        assert sum(len(nodes) for nodes in owned) == 30
        for k, fragment in enumerate(p.fragments):
            assert owned[k] <= set(fragment.nodes())

    def test_fragments_keep_incident_edges(self):
        g = from_edges([(0, 1), (1, 2)], directed=True)
        p = build_partitioning(g, {0: 0, 1: 1, 2: 1}, 2)
        # Fragment 0 owns node 0 and holds a replica of 1 plus the cut edge.
        assert p.fragments[0].has_edge(0, 1)
        assert not p.fragments[0].has_node(2)
        assert p.fragments[1].has_edge(0, 1) and p.fragments[1].has_edge(1, 2)

    def test_replica_locations(self):
        g = from_edges([(0, 1)], directed=True)
        p = build_partitioning(g, {0: 0, 1: 1}, 2)
        # Each endpoint of the cut edge is replicated on the other's owner.
        assert set(p.fragments[0].nodes()) == set(p.fragments[1].nodes()) == {0, 1}

    def test_invalid_assignment_rejected(self):
        g = from_edges([(0, 1)])
        with pytest.raises(GraphError):
            build_partitioning(g, {0: 0}, 2)  # node 1 unassigned
        with pytest.raises(GraphError):
            build_partitioning(g, {0: 0, 1: 5}, 2)  # fragment out of range
        with pytest.raises(GraphError):
            stable_partition(g, 0)

    def test_no_cut_for_single_fragment(self):
        g = erdos_renyi(20, 40, seed=3)
        (fragment,) = stable_partition(g, 1).fragments
        assert set(fragment.nodes()) == set(g.nodes())
        assert set(fragment.edges()) == set(g.edges())
