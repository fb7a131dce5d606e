"""Reference ("oracle") implementations used across the test suite.

Written independently from the library's fixpoint machinery — plain
textbook algorithms on plain dicts — so that agreement with them is
meaningful evidence of correctness.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, Optional, Set, Tuple

from repro.graph import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    Graph,
    VertexDeletion,
    VertexInsertion,
    apply_updates,
)


def oracle_sssp(graph: Graph, source) -> Dict:
    """Textbook Dijkstra over out-edges."""
    dist = {v: math.inf for v in graph.nodes()}
    if graph.has_node(source):
        dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, -1.0):
            continue
        for u, w in graph.out_items(v):
            candidate = d + w
            if candidate < dist[u]:
                dist[u] = candidate
                heapq.heappush(heap, (candidate, u))
    return dist


def oracle_cc(graph: Graph) -> Dict:
    """Flood fill; component id = min node id."""
    comp: Dict = {}
    for v in graph.nodes():
        if v in comp:
            continue
        stack, seen, members = [v], {v}, []
        while stack:
            x = stack.pop()
            members.append(x)
            for w in graph.neighbors(x):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        label = min(members)
        for x in members:
            comp[x] = label
    return comp


def oracle_sim(graph: Graph, pattern: Graph) -> Set[Tuple]:
    """Naive greatest-fixpoint simulation."""
    relation = {
        (v, u)
        for v in graph.nodes()
        for u in pattern.nodes()
        if graph.node_label(v) == pattern.node_label(u)
    }
    changed = True
    while changed:
        changed = False
        for (v, u) in list(relation):
            ok = True
            for u_next in pattern.out_neighbors(u):
                if not any((v_next, u_next) in relation for v_next in graph.out_neighbors(v)):
                    ok = False
                    break
            if not ok:
                relation.discard((v, u))
                changed = True
    return relation


def oracle_triangles(graph: Graph, v) -> int:
    """Triangles through ``v``: the double loop over every neighbor's row."""
    nbrs = {w for w in graph.neighbors(v) if w != v}
    triangles = 0
    for u in nbrs:
        triangles += sum(
            1 for w in graph.neighbors(u) if w != u and w != v and w in nbrs
        )
    return triangles // 2


def oracle_lcc(graph: Graph) -> Dict:
    """Direct triangle counting per node."""
    out: Dict = {}
    for v in graph.nodes():
        d = sum(1 for w in graph.neighbors(v) if w != v)
        out[v] = 0.0 if d < 2 else 2.0 * oracle_triangles(graph, v) / (d * (d - 1))
    return out


def random_graph(
    rng: random.Random,
    n: int,
    m: int,
    directed: bool,
    weighted: bool = False,
    labels: Optional[list] = None,
) -> Graph:
    """A random simple graph on nodes 0..n-1 with exactly up-to m edges."""
    graph = Graph(directed=directed)
    for v in range(n):
        graph.ensure_node(v, label=rng.choice(labels) if labels else None)
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            weight = float(rng.randint(1, 9)) if weighted else 1.0
            graph.add_edge(u, v, weight=weight)
    return graph


def random_edge_batch(rng: random.Random, graph: Graph, size: int, weighted: bool = False) -> Batch:
    """A consistent batch of edge insertions/deletions against ``graph``."""
    directed = graph.directed

    def key(u, v):
        return (u, v) if directed else (min(u, v), max(u, v))

    present = {key(u, v) for u, v in graph.edges()}
    nodes = list(graph.nodes())
    batch = Batch()
    for _ in range(size):
        if rng.random() < 0.5 and present:
            u, v = rng.choice(sorted(present))
            present.discard(key(u, v))
            batch.append(EdgeDeletion(u, v))
        else:
            for _attempt in range(50):
                u, v = rng.choice(nodes), rng.choice(nodes)
                if u != v and key(u, v) not in present:
                    present.add(key(u, v))
                    weight = float(rng.randint(1, 9)) if weighted else 1.0
                    batch.append(EdgeInsertion(u, v, weight=weight))
                    break
    return batch


def random_mixed_batch(
    rng: random.Random,
    graph: Graph,
    size: int,
    weighted: bool = False,
    protect: Tuple = (),
) -> Batch:
    """A consistent batch that may also grow/shrink the node set.

    Ops are generated against a scratch copy so multi-op batches stay
    strictly consistent.  Nodes in ``protect`` (e.g. the query source)
    are never deleted.
    """
    scratch = graph.copy()
    protected = set(protect)
    batch = Batch()
    for _ in range(size):
        roll = rng.random()
        nodes = sorted(scratch.nodes())
        if len(nodes) < 2:
            roll = 0.0  # too small for edge ops or deletions: grow
        if roll < 0.15:
            new = (max(nodes) if nodes else -1) + 1
            edges = []
            if nodes:
                u = rng.choice(nodes)
                weight = float(rng.randint(1, 9)) if weighted else 1.0
                edges.append(EdgeInsertion(u, new, weight=weight))
            op = VertexInsertion(new, edges=tuple(edges))
        elif roll < 0.30:
            candidates = [v for v in nodes if v not in protected]
            if not candidates:
                continue
            op = VertexDeletion(rng.choice(candidates))
        else:
            sub = random_edge_batch(rng, scratch, 1, weighted=weighted)
            if not sub.updates:
                continue
            op = sub.updates[0]
        apply_updates(scratch, Batch([op]))
        batch.append(op)
    return batch
