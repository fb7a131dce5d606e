"""Tests for edge-cut partitioning."""

import pytest

from repro.errors import GraphError
from repro.generators import erdos_renyi
from repro.graph import from_edges
from repro.parallel import build_partitioning, hash_partition


class TestPartitioning:
    def test_hash_partition_covers_all_nodes(self):
        g = erdos_renyi(30, 60, seed=1)
        p = hash_partition(g, 4)
        assert set(p.assignment) == set(g.nodes())
        assert sum(len(nodes) for nodes in p.owned) == 30

    def test_fragments_keep_incident_edges(self):
        g = from_edges([(0, 1), (1, 2)], directed=True)
        p = build_partitioning(g, {0: 0, 1: 1, 2: 1}, 2)
        # Fragment 0 owns node 0 and holds a replica of 1 plus the cut edge.
        assert p.fragments[0].has_edge(0, 1)
        assert 1 in p.replicas[0]
        assert p.edge_cut == 1

    def test_replica_locations(self):
        g = from_edges([(0, 1)], directed=True)
        p = build_partitioning(g, {0: 0, 1: 1}, 2)
        assert p.replica_locations[1] == {0}
        assert p.replica_locations[0] == {1}

    def test_balance_metric(self):
        g = erdos_renyi(40, 0, seed=2)
        p = build_partitioning(g, {v: 0 if v < 39 else 1 for v in g.nodes()}, 2)
        assert p.balance > 1.5

    def test_invalid_assignment_rejected(self):
        g = from_edges([(0, 1)])
        with pytest.raises(GraphError):
            build_partitioning(g, {0: 0}, 2)  # node 1 unassigned
        with pytest.raises(GraphError):
            build_partitioning(g, {0: 0, 1: 5}, 2)  # fragment out of range
        with pytest.raises(GraphError):
            hash_partition(g, 0)

    def test_no_cut_for_single_fragment(self):
        g = erdos_renyi(20, 40, seed=3)
        assert hash_partition(g, 1).edge_cut == 0
