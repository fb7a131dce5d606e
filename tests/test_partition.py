"""Tests for the sharded tier's partitioning (`repro.parallel.partition`).

Covers boundary-vertex identification, edge-cut ownership, and the
empty/singleton-shard edge cases — plus the cross-process stability
contract of ``stable_assign`` that the router/worker boundary relies
on.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import random_graph
from repro.errors import GraphError
from repro.graph import Graph, from_edges
from repro.parallel import build_partitioning, stable_assign, stable_partition

SRC = Path(__file__).resolve().parent.parent / "src"


def brute_force_boundary(graph, assignment):
    """Nodes incident to at least one cut edge — the boundary set."""
    boundary = set()
    for u, v in graph.edges():
        if assignment[u] != assignment[v]:
            boundary.add(u)
            boundary.add(v)
    return boundary


class TestStableAssign:
    def test_matches_md5_formula(self):
        import hashlib

        for node in (0, 17, "v", ("a", 3)):
            digest = hashlib.md5(f"1\x00{node!r}".encode()).digest()
            expected = int.from_bytes(digest[:8], "big") % 5
            assert stable_assign(node, 5, seed=1) == expected

    def test_memoization_is_transparent(self):
        # The lru_cache must not change results across repeat calls or
        # interleaved (node, k, seed) combinations.
        rng = random.Random(3)
        probes = [(rng.randrange(100), rng.randint(1, 8), rng.randint(0, 3)) for _ in range(200)]
        first = [stable_assign(n, k, s) for n, k, s in probes]
        second = [stable_assign(n, k, s) for n, k, s in reversed(probes)]
        assert first == list(reversed(second))

    def test_stable_across_processes(self):
        # Python's builtin hash is salted per process; stable_assign must
        # not be.  Recompute a sample in a fresh interpreter.
        sample = [(node, 4, 0) for node in range(20)]
        here = [stable_assign(*args) for args in sample]
        code = (
            "from repro.parallel import stable_assign;"
            "print([stable_assign(n, 4, 0) for n in range(20)])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "random"},
        ).stdout
        assert eval(out) == here

    def test_seed_changes_assignment(self):
        nodes = range(64)
        a = [stable_assign(v, 4, seed=0) for v in nodes]
        b = [stable_assign(v, 4, seed=1) for v in nodes]
        assert a != b

    def test_invalid_fragment_count(self):
        with pytest.raises(GraphError):
            stable_assign(0, 0)


def owned(p, i):
    return {v for v, k in p.assignment.items() if k == i}


def replicas(p, i):
    """Nodes present on fragment ``i`` that another fragment owns."""
    return set(p.fragments[i].nodes()) - owned(p, i)


class TestStablePartition:
    def test_assignment_in_range_and_total(self):
        g = random_graph(random.Random(5), 30, 60, directed=False)
        p = stable_partition(g, 4)
        assert set(p.assignment) == set(g.nodes())
        assert all(0 <= i < 4 for i in p.assignment.values())
        assert p.assignment == {v: stable_assign(v, 4, 0) for v in g.nodes()}

    def test_boundary_vertex_identification(self):
        g = random_graph(random.Random(7), 40, 90, directed=False)
        p = stable_partition(g, 3)
        # Every node with a replica anywhere is a boundary vertex, and
        # vice versa — matches the brute-force cut-edge scan.
        replicated = set().union(*(replicas(p, i) for i in range(3)))
        assert replicated == brute_force_boundary(g, p.assignment)

    def test_edge_cut_ownership(self):
        g = random_graph(random.Random(11), 25, 70, directed=True)
        p = stable_partition(g, 4)
        for u, v in g.edges():
            iu, iv = p.assignment[u], p.assignment[v]
            # Every edge lives on the owner fragment(s) of its endpoints
            # and nowhere else, with its weight.
            holders = {i for i in range(4) if p.fragments[i].has_edge(u, v)}
            assert holders == {iu, iv}
            for i in holders:
                assert p.fragments[i].weight(u, v) == g.weight(u, v)
            if iu != iv:
                assert v in replicas(p, iu) and u in replicas(p, iv)

    def test_replicas_are_remote_endpoints(self):
        g = random_graph(random.Random(13), 20, 50, directed=False)
        p = stable_partition(g, 3)
        for i in range(3):
            for v in replicas(p, i):
                assert any(
                    p.assignment[u] == i
                    for u, w in g.edges()
                    for u, w in [(u, w), (w, u)]
                    if w == v
                )

    def test_singleton_shard(self):
        g = random_graph(random.Random(2), 15, 30, directed=False)
        p = stable_partition(g, 1)
        assert replicas(p, 0) == set()
        assert owned(p, 0) == set(g.nodes())
        assert p.fragments[0].num_edges == g.num_edges

    def test_more_shards_than_nodes_leaves_empty_shards(self):
        g = from_edges([(0, 1), (1, 2)])
        p = stable_partition(g, 16)
        assert sum(len(owned(p, i)) for i in range(16)) == 3
        assert sum(1 for f in p.fragments if f.num_nodes == 0) >= 13
        assert {e for f in p.fragments for e in f.edges()} == set(g.edges())

    def test_empty_graph(self):
        p = stable_partition(Graph(), 4)
        assert p.assignment == {}
        assert len(p.fragments) == 4
        assert all(f.num_nodes == 0 for f in p.fragments)

    def test_invalid_fragment_count(self):
        with pytest.raises(GraphError):
            stable_partition(from_edges([(0, 1)]), 0)


class TestBuildPartitioningEdgeCases:
    def test_explicit_empty_shard(self):
        g = from_edges([(0, 1), (1, 2)])
        p = build_partitioning(g, {0: 0, 1: 0, 2: 2}, 3)
        assert owned(p, 1) == set()
        assert p.fragments[1].num_nodes == 0
        assert replicas(p, 0) == {2} and replicas(p, 2) == {1}

    def test_out_of_range_assignment_rejected(self):
        g = from_edges([(0, 1)])
        with pytest.raises(GraphError):
            build_partitioning(g, {0: 0, 1: 5}, 2)
