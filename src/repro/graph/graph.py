"""Mutable labeled graphs ``G = (V, E, L)``.

This module implements the graph model of Section 2 of the paper: finite
node set ``V``, edge set ``E ⊆ V × V`` (directed or undirected), and a
labeling ``L`` on nodes and edges.  Edge labels double as weights for
weighted queries such as SSSP.

The representation is a pair of adjacency dictionaries per node
(``successors`` and, for directed graphs, ``predecessors``) so that the
operations incremental algorithms perform constantly — edge insertion,
edge deletion, neighbor iteration — are all O(1) or O(degree).

Example
-------
>>> g = Graph(directed=True)
>>> g.add_edge(0, 1, weight=2.5)
>>> g.add_edge(1, 2)
>>> sorted(g.out_neighbors(1))
[2]
>>> g.weight(0, 1)
2.5
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, Hashable, Iterable, Iterator, Optional, Tuple

from ..errors import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
)

Node = Hashable
Edge = Tuple[Node, Node]

DEFAULT_WEIGHT = 1.0


class Graph:
    """A directed or undirected graph with node labels and edge weights.

    Parameters
    ----------
    directed:
        If true, edges are ordered pairs and in/out neighborhoods are
        distinct.  If false, ``add_edge(u, v)`` makes ``v`` reachable from
        ``u`` and vice versa, and the edge is stored once under the
        canonical key ``(min(u, v), max(u, v))`` for labeling purposes.

    Notes
    -----
    Self-loops are permitted; parallel edges are not (the paper's model is
    a set of edges).  Inserting an existing edge raises
    :class:`~repro.errors.DuplicateEdgeError`; use :meth:`set_weight` to
    change the weight of an existing edge.
    """

    __slots__ = ("directed", "_succ", "_pred", "_node_labels", "_edge_labels", "_num_edges")

    def __init__(self, directed: bool = False) -> None:
        self.directed = directed
        self._succ: Dict[Node, Dict[Node, float]] = {}
        # For undirected graphs predecessors are the successors.
        self._pred: Dict[Node, Dict[Node, float]] = {} if directed else self._succ
        self._node_labels: Dict[Node, Any] = {}
        self._edge_labels: Dict[Edge, Any] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, v: Node, label: Any = None) -> None:
        """Add node ``v``; raise if it already exists."""
        if v in self._succ:
            raise DuplicateNodeError(v)
        self._succ[v] = {}
        if self.directed:
            self._pred[v] = {}
        if label is not None:
            self._node_labels[v] = label

    def ensure_node(self, v: Node, label: Any = None) -> None:
        """Add node ``v`` if absent; never raises."""
        if v not in self._succ:
            self.add_node(v, label)
        elif label is not None:
            self._node_labels[v] = label

    def remove_node(self, v: Node) -> None:
        """Remove ``v`` and all incident edges."""
        if v not in self._succ:
            raise NodeNotFoundError(v)
        for u in list(self._succ[v]):
            self.remove_edge(v, u)
        if self.directed:
            for u in list(self._pred[v]):
                self.remove_edge(u, v)
        del self._succ[v]
        if self.directed:
            del self._pred[v]
        self._node_labels.pop(v, None)

    def has_node(self, v: Node) -> bool:
        return v in self._succ

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._succ)

    @property
    def num_nodes(self) -> int:
        return len(self._succ)

    def node_label(self, v: Node, default: Any = None) -> Any:
        if v not in self._succ:
            raise NodeNotFoundError(v)
        return self._node_labels.get(v, default)

    def set_node_label(self, v: Node, label: Any) -> None:
        if v not in self._succ:
            raise NodeNotFoundError(v)
        self._node_labels[v] = label

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def _edge_key(self, u: Node, v: Node) -> Edge:
        if self.directed:
            return (u, v)
        # Canonical key for undirected edges.  Node ids may not be
        # mutually orderable, so fall back to a repr-based tiebreak.
        try:
            return (u, v) if u <= v else (v, u)  # type: ignore[operator]
        except TypeError:
            return (u, v) if repr(u) <= repr(v) else (v, u)

    def add_edge(
        self,
        u: Node,
        v: Node,
        weight: float = DEFAULT_WEIGHT,
        label: Any = None,
    ) -> None:
        """Insert edge ``(u, v)``; endpoints are created if absent."""
        self.ensure_node(u)
        self.ensure_node(v)
        if v in self._succ[u]:
            raise DuplicateEdgeError(u, v)
        self._succ[u][v] = weight
        self._pred[v][u] = weight
        self._num_edges += 1
        if label is not None:
            self._edge_labels[self._edge_key(u, v)] = label

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete edge ``(u, v)``; raises if absent."""
        if u not in self._succ or v not in self._succ[u]:
            raise EdgeNotFoundError(u, v)
        del self._succ[u][v]
        if self.directed or u != v:
            del self._pred[v][u]
        self._num_edges -= 1
        self._edge_labels.pop(self._edge_key(u, v), None)

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._succ and v in self._succ[u]

    def weight(self, u: Node, v: Node) -> float:
        """The weight of edge ``(u, v)``; raises if absent."""
        if u not in self._succ or v not in self._succ[u]:
            raise EdgeNotFoundError(u, v)
        return self._succ[u][v]

    def set_weight(self, u: Node, v: Node, weight: float) -> None:
        if u not in self._succ or v not in self._succ[u]:
            raise EdgeNotFoundError(u, v)
        self._succ[u][v] = weight
        self._pred[v][u] = weight

    def edge_label(self, u: Node, v: Node, default: Any = None) -> Any:
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._edge_labels.get(self._edge_key(u, v), default)

    def set_edge_label(self, u: Node, v: Node, label: Any) -> None:
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._edge_labels[self._edge_key(u, v)] = label

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges.

        For undirected graphs each edge is yielded once, as its canonical
        key; for directed graphs each ordered pair is yielded.
        """
        if self.directed:
            for u, nbrs in self._succ.items():
                for v in nbrs:
                    yield (u, v)
        else:
            seen_loops = set()
            for u, nbrs in self._succ.items():
                for v in nbrs:
                    if u == v:
                        if u not in seen_loops:
                            seen_loops.add(u)
                            yield (u, v)
                    elif self._edge_key(u, v) == (u, v):
                        yield (u, v)

    @property
    def num_edges(self) -> int:
        # _num_edges counts add_edge calls minus remove_edge calls, which
        # is exactly one per edge for directed and undirected graphs alike
        # (the symmetric adjacency entry is bookkeeping, not a second edge).
        return self._num_edges

    @property
    def size(self) -> int:
        """``|G| = |V| + |E|``, the size measure used throughout the paper."""
        return self.num_nodes + self.num_edges

    # ------------------------------------------------------------------
    # Neighborhoods
    # ------------------------------------------------------------------
    def out_neighbors(self, v: Node) -> Iterator[Node]:
        if v not in self._succ:
            raise NodeNotFoundError(v)
        return iter(self._succ[v])

    def in_neighbors(self, v: Node) -> Iterator[Node]:
        if v not in self._pred:
            raise NodeNotFoundError(v)
        return iter(self._pred[v])

    def neighbors(self, v: Node) -> Iterator[Node]:
        """Neighbors of ``v``.

        For a directed graph this is the union of in- and out-neighbors;
        for an undirected graph it is the adjacency set.
        """
        if v not in self._succ:
            raise NodeNotFoundError(v)
        if not self.directed:
            return iter(self._succ[v])
        merged = dict.fromkeys(self._succ[v])
        merged.update(dict.fromkeys(self._pred[v]))
        return iter(merged)

    def neighbor_set(self, v: Node) -> AbstractSet[Node]:
        """The neighbors of ``v`` as a set, for C-level intersections.

        Undirected: the live ``keys()`` view of ``v``'s adjacency row.
        Directed: a new set, the union of in- and out-neighbors.  ``&``
        between two such sets iterates the smaller side in C.
        """
        if v not in self._succ:
            raise NodeNotFoundError(v)
        if not self.directed:
            return self._succ[v].keys()
        return self._succ[v].keys() | self._pred[v].keys()

    def out_items(self, v: Node) -> Iterator[Tuple[Node, float]]:
        """Pairs ``(u, weight)`` over out-neighbors of ``v``."""
        if v not in self._succ:
            raise NodeNotFoundError(v)
        return iter(self._succ[v].items())

    def in_items(self, v: Node) -> Iterator[Tuple[Node, float]]:
        """Pairs ``(u, weight)`` over in-neighbors of ``v``."""
        if v not in self._pred:
            raise NodeNotFoundError(v)
        return iter(self._pred[v].items())

    def out_degree(self, v: Node) -> int:
        if v not in self._succ:
            raise NodeNotFoundError(v)
        return len(self._succ[v])

    def in_degree(self, v: Node) -> int:
        if v not in self._pred:
            raise NodeNotFoundError(v)
        return len(self._pred[v])

    def degree(self, v: Node) -> int:
        """Total degree (in + out for directed; adjacency size undirected)."""
        if self.directed:
            return self.out_degree(v) + self.in_degree(v)
        return len(self._succ[v]) if v in self._succ else self._raise_missing(v)

    def _raise_missing(self, v: Node) -> int:
        raise NodeNotFoundError(v)

    # ------------------------------------------------------------------
    # Whole-graph operations
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """A deep structural copy (labels are shared, not copied)."""
        g = Graph(directed=self.directed)
        g._succ = {v: dict(nbrs) for v, nbrs in self._succ.items()}
        if self.directed:
            g._pred = {v: dict(nbrs) for v, nbrs in self._pred.items()}
        else:
            g._pred = g._succ
        g._node_labels = dict(self._node_labels)
        g._edge_labels = dict(self._edge_labels)
        g._num_edges = self._num_edges
        return g

    def __contains__(self, v: Node) -> bool:
        return v in self._succ

    def __len__(self) -> int:
        return self.num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self._succ == other._succ
            and self._node_labels == other._node_labels
            and self._edge_labels == other._edge_labels
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, |V|={self.num_nodes}, |E|={self.num_edges})"


def from_edges(
    edges: Iterable[Tuple[Node, Node]],
    directed: bool = False,
    weights: Optional[Iterable[float]] = None,
) -> Graph:
    """Build a graph from an iterable of edge pairs.

    >>> g = from_edges([(0, 1), (1, 2)], directed=True)
    >>> g.num_edges
    2
    """
    g = Graph(directed=directed)
    if weights is None:
        for u, v in edges:
            g.add_edge(u, v)
    else:
        for (u, v), w in zip(edges, weights):
            g.add_edge(u, v, weight=w)
    return g
