"""Edge-cut graph partitioning for the sharded tier.

``G`` is split into fragments: each shard owns a set of nodes, keeps
every edge incident to them, and holds *replicas* of the remote
endpoints of cut edges.  Ownership is a stable hash of the node id
(:func:`stable_assign`), so any process can recompute it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List

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
    """

    num_fragments: int
    assignment: Dict[Node, int]
    fragments: List[Graph] = field(default_factory=list)


@lru_cache(maxsize=1 << 16)
def stable_assign(node: Node, num_fragments: int, seed: int = 0) -> int:
    """Owner fragment of ``node``, stable across processes and runs.

    Python's builtin ``hash`` is salted per process, so it cannot assign
    owners a worker process must agree on.  The sharded tier
    (:mod:`repro.parallel.router`) instead derives ownership from this
    pure function of ``(node, num_fragments, seed)``, so a recovered
    router reassembles the fragments without a stored assignment table.
    Memoized: the split path consults it for both endpoints of every
    routed edge.
    """
    if num_fragments < 1:
        raise GraphError("need at least one fragment")
    digest = hashlib.md5(f"{seed}\x00{node!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % num_fragments


def stable_partition(graph: Graph, num_fragments: int, seed: int = 0) -> Partitioning:
    """Partition by :func:`stable_assign`, reproducibly across processes.

    >>> from repro.generators import erdos_renyi
    >>> p = stable_partition(erdos_renyi(20, 40, seed=1), 4)
    >>> sorted(set(p.assignment.values()))
    [0, 1, 2, 3]
    """
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

    fragments = [Graph(directed=graph.directed) for _ in range(num_fragments)]
    for v in graph.nodes():
        fragments[assignment[v]].ensure_node(v, label=graph.node_label(v))
    for u, v in graph.edges():
        for i in {assignment[u], assignment[v]}:
            fragments[i].ensure_node(u, label=graph.node_label(u))
            fragments[i].ensure_node(v, label=graph.node_label(v))
            if not fragments[i].has_edge(u, v):
                fragments[i].add_edge(u, v, weight=graph.weight(u, v))
    return Partitioning(num_fragments, dict(assignment), fragments)
