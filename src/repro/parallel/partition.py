"""Edge-cut graph partitioning for the sharded tier.

``G`` is split into fragments: each shard owns a set of nodes, keeps
every edge incident to them, and holds *replicas* of the remote
endpoints of cut edges.  This module builds such a partitioning
(hash-based by default) and reports its quality (edge cut, balance).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Set

from ..errors import GraphError
from ..graph.graph import Graph, Node


@dataclass
class Partitioning:
    """An edge-cut partitioning of a graph into ``k`` fragments.

    Attributes
    ----------
    assignment:
        Owner fragment of every node.
    fragments:
        Per-fragment subgraphs: owned nodes + replicas of remote
        neighbors + every edge incident to an owned node.
    owned / replicas:
        Per-fragment node sets.
    replica_locations:
        For every node, the fragments holding a replica of it — the
        shards a changed value is pinned on.
    """

    num_fragments: int
    assignment: Dict[Node, int]
    fragments: List[Graph] = field(default_factory=list)
    owned: List[Set[Node]] = field(default_factory=list)
    replicas: List[Set[Node]] = field(default_factory=list)
    replica_locations: Dict[Node, Set[int]] = field(default_factory=dict)

    @property
    def edge_cut(self) -> int:
        """Number of edges whose endpoints live on different fragments."""
        return self._edge_cut

    @property
    def balance(self) -> float:
        """max fragment size / ideal size (1.0 = perfectly balanced)."""
        sizes = [len(nodes) for nodes in self.owned]
        ideal = sum(sizes) / len(sizes) if sizes else 1.0
        return max(sizes) / ideal if ideal else 1.0

    _edge_cut: int = 0


def hash_partition(graph: Graph, num_fragments: int, seed: int = 0) -> Partitioning:
    """Partition by hashing node ids into ``num_fragments`` buckets.

    >>> from repro.generators import erdos_renyi
    >>> p = hash_partition(erdos_renyi(20, 40, seed=1), 4)
    >>> sorted(set(p.assignment.values()))
    [0, 1, 2, 3]
    """
    if num_fragments < 1:
        raise GraphError("need at least one fragment")
    assignment = {
        v: hash((seed, v)) % num_fragments for v in graph.nodes()
    }
    return build_partitioning(graph, assignment, num_fragments)


@lru_cache(maxsize=1 << 16)
def stable_assign(node: Node, num_fragments: int, seed: int = 0) -> int:
    """Owner fragment of ``node``, stable across processes and runs.

    Python's builtin ``hash`` is salted per process, so
    :func:`hash_partition` assignments cannot be recomputed inside a
    worker process.  The sharded tier (:mod:`repro.parallel.router`)
    instead derives ownership from this pure function of
    ``(node, num_fragments, seed)``, so a recovered router reassembles
    the fragments without a stored assignment table.  Memoized: the
    split path consults it for both endpoints of every routed edge.
    """
    if num_fragments < 1:
        raise GraphError("need at least one fragment")
    digest = hashlib.md5(f"{seed}\x00{node!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % num_fragments


def stable_partition(graph: Graph, num_fragments: int, seed: int = 0) -> Partitioning:
    """Like :func:`hash_partition` but via :func:`stable_assign`, so the
    assignment is reproducible across processes (the sharded tier's
    requirement)."""
    if num_fragments < 1:
        raise GraphError("need at least one fragment")
    assignment = {v: stable_assign(v, num_fragments, seed) for v in graph.nodes()}
    return build_partitioning(graph, assignment, num_fragments)


def build_partitioning(graph: Graph, assignment: Dict[Node, int], num_fragments: int) -> Partitioning:
    """Materialize fragments from an explicit node→fragment assignment."""
    for v in graph.nodes():
        if v not in assignment:
            raise GraphError(f"node {v!r} has no fragment assignment")
        if not 0 <= assignment[v] < num_fragments:
            raise GraphError(f"node {v!r} assigned to invalid fragment {assignment[v]}")

    partitioning = Partitioning(num_fragments=num_fragments, assignment=dict(assignment))
    fragments = [Graph(directed=graph.directed) for _ in range(num_fragments)]
    owned: List[Set[Node]] = [set() for _ in range(num_fragments)]
    replicas: List[Set[Node]] = [set() for _ in range(num_fragments)]

    for v in graph.nodes():
        i = assignment[v]
        owned[i].add(v)
        fragments[i].ensure_node(v, label=graph.node_label(v))

    edge_cut = 0
    for u, v in graph.edges():
        iu, iv = assignment[u], assignment[v]
        targets = {iu, iv}
        if iu != iv:
            edge_cut += 1
        for i in targets:
            fragments[i].ensure_node(u, label=graph.node_label(u))
            fragments[i].ensure_node(v, label=graph.node_label(v))
            if not fragments[i].has_edge(u, v):
                fragments[i].add_edge(u, v, weight=graph.weight(u, v))
            if assignment[u] != i:
                replicas[i].add(u)
            if assignment[v] != i:
                replicas[i].add(v)

    replica_locations: Dict[Node, Set[int]] = {}
    for i, nodes in enumerate(replicas):
        for v in nodes:
            replica_locations.setdefault(v, set()).add(i)

    partitioning.fragments = fragments
    partitioning.owned = owned
    partitioning.replicas = replicas
    partitioning.replica_locations = replica_locations
    partitioning._edge_cut = edge_cut
    return partitioning
