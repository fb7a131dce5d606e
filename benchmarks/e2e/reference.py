"""Textbook reference answers on plain adjacency dicts.

Nothing here imports ``repro``: the graphs are ``{u: {v: weight}}``
dicts (undirected, both directions stored) built from the benchmark's own
inputs and replayed updates, so agreement with the program is evidence
about the program, not about shared code.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Set, Tuple

Adj = Dict[int, Dict[int, float]]


def adjacency(nodes: Iterable[int], edges) -> Adj:
    adj: Adj = {v: {} for v in nodes}
    for u, v, w in edges:
        adj[u][v] = w
        adj[v][u] = w
    return adj


def apply_ops(adj: Adj, ops) -> None:
    """Replay unit updates in the :mod:`inputs` tuple encoding."""
    for op in ops:
        kind = op[0]
        if kind == "+e":
            _k, u, v, w = op
            adj.setdefault(u, {})[v] = w
            adj.setdefault(v, {})[u] = w
        elif kind == "-e":
            _k, u, v = op
            del adj[u][v]
            del adj[v][u]
        else:
            raise ValueError(f"unknown op {op!r}")


def sssp(adj: Adj, source: int) -> Dict[int, float]:
    """Dijkstra; unreachable nodes are ``inf``."""
    dist = {v: math.inf for v in adj}
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in adj[v].items():
            if d + w < dist[u]:
                dist[u] = d + w
                heapq.heappush(heap, (d + w, u))
    return dist


def widest(adj: Adj, source: int) -> Dict[int, float]:
    """Max-min Dijkstra: the source has width ``inf``, unreachable 0."""
    width = {v: 0.0 for v in adj}
    width[source] = math.inf
    heap = [(-math.inf, source)]
    while heap:
        negative, v = heapq.heappop(heap)
        if -negative < width[v]:
            continue
        for u, w in adj[v].items():
            candidate = min(-negative, w)
            if candidate > width[u]:
                width[u] = candidate
                heapq.heappush(heap, (-candidate, u))
    return width


def components(adj: Adj) -> Set[frozenset]:
    """Connected components as a partition (a set of node sets)."""
    seen: Set[int] = set()
    parts = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack, members = [start], [start]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
                    members.append(u)
        parts.add(frozenset(members))
    return parts


def partition_of(labels: Dict) -> Set[frozenset]:
    """The partition a ``{node: component label}`` answer induces."""
    groups: Dict = {}
    for node, label in labels.items():
        groups.setdefault(label, []).append(node)
    return {frozenset(members) for members in groups.values()}


def lcc(adj: Adj) -> Dict[int, float]:
    """Local clustering coefficient by neighbourhood intersection."""
    out = {}
    sets = {v: set(nbrs) - {v} for v, nbrs in adj.items()}
    for v, nbrs in sets.items():
        d = len(nbrs)
        if d < 2:
            out[v] = 0.0
            continue
        links = sum(len(nbrs & sets[u]) for u in nbrs) // 2
        out[v] = 2.0 * links / (d * (d - 1))
    return out


def simulation(adj: Adj, labels: Dict[int, str], pattern_labels: Dict[str, str],
               pattern_edges: List[Tuple[str, str]]) -> Set[Tuple[int, str]]:
    """Maximum graph simulation by iterated refinement."""
    succ: Dict[str, List[str]] = {u: [] for u in pattern_labels}
    for a, b in pattern_edges:
        succ[a].append(b)
    sim = {u: {v for v in adj if labels.get(v) == lab} for u, lab in pattern_labels.items()}
    changed = True
    while changed:
        changed = False
        for u, targets in succ.items():
            for u_next in targets:
                keep = {v for v in sim[u] if any(x in sim[u_next] for x in adj[v])}
                if len(keep) != len(sim[u]):
                    sim[u] = keep
                    changed = True
    return {(v, u) for u, matches in sim.items() for v in matches}
