"""DynLCC — streaming local clustering coefficients.

Reference [19] of the paper: D. Ediger, K. Jiang, E. J. Riedy,
D. A. Bader, *Massive streaming data analytics: A case study with
clustering coefficients* (IPDPS Workshops 2010).  Their exact variant
maintains per-vertex degree and triangle counters under an edge stream:
for an inserted (deleted) edge ``{u, v}`` the common neighborhood
``N(u) ∩ N(v)`` gives exactly the triangles created (destroyed), so

    ``λ_u += |C|``,  ``λ_v += |C|``,  ``λ_w += 1`` for each ``w ∈ C``.

DynLCC is a *stream* algorithm: it processes unit updates one at a time
and keeps only the counters — trading runtime for space, as the paper
notes when explaining its Figure 8 footprint.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from ..errors import GraphError
from ..graph.graph import Graph, Node
from ..graph.updates import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    VertexDeletion,
    VertexInsertion,
)
from .base import DynamicAlgorithm


class DynLCC(DynamicAlgorithm):
    """Ediger et al. streaming clustering-coefficient maintenance."""

    name = "DynLCC"

    def __init__(self) -> None:
        super().__init__()
        self.degree: Dict[Node, int] = {}
        self.triangles: Dict[Node, int] = {}

    # ------------------------------------------------------------------
    def build(self, graph: Graph, query: Any = None) -> None:
        if graph.directed:
            raise GraphError("DynLCC operates on undirected graphs")
        self.graph = graph
        self.query = query
        self.degree = {}
        self.triangles = {v: 0 for v in graph.nodes()}
        for v in graph.nodes():
            self.degree[v] = sum(1 for w in graph.neighbors(v) if w != v)
        for u, v in graph.edges():
            if u == v:
                continue
            common = self._common_neighbors(u, v)
            # Sweeping all edges credits each triangle 3 times per vertex
            # (once from each of its edges), hence the //3 below.
            self.triangles[u] += len(common)
            self.triangles[v] += len(common)
            for w in common:
                self.triangles[w] += 1
        for v in self.triangles:
            self.triangles[v] //= 3

    def _common_neighbors(self, u: Node, v: Node) -> Set[Node]:
        common = self.graph.neighbor_set(u) & self.graph.neighbor_set(v)
        common -= {u, v}
        return common

    # ------------------------------------------------------------------
    def answer(self) -> Dict[Node, float]:
        """{node: γ_v} from the maintained counters."""
        result: Dict[Node, float] = {}
        for v in self.graph.nodes():
            d = self.degree.get(v, 0)
            if d < 2:
                result[v] = 0.0
            else:
                result[v] = 2.0 * self.triangles.get(v, 0) / (d * (d - 1))
        return result

    # ------------------------------------------------------------------
    def apply(self, delta: Batch) -> None:
        """Stream ``ΔG`` one unit update at a time."""
        self._require_built()
        graph = self.graph
        for update in delta.expanded(graph):
            if isinstance(update, EdgeInsertion):
                u, v = update.u, update.v
                graph.add_edge(u, v, weight=update.weight)
                self.degree.setdefault(u, 0)
                self.degree.setdefault(v, 0)
                self.triangles.setdefault(u, 0)
                self.triangles.setdefault(v, 0)
                if u == v:
                    continue
                common = self._common_neighbors(u, v)
                self.degree[u] += 1
                self.degree[v] += 1
                self.triangles[u] += len(common)
                self.triangles[v] += len(common)
                for w in common:
                    self.triangles[w] += 1
            elif isinstance(update, EdgeDeletion):
                u, v = update.u, update.v
                if u != v:
                    common = self._common_neighbors(u, v)
                    self.degree[u] -= 1
                    self.degree[v] -= 1
                    self.triangles[u] -= len(common)
                    self.triangles[v] -= len(common)
                    for w in common:
                        self.triangles[w] -= 1
                graph.remove_edge(u, v)
            elif isinstance(update, VertexInsertion):
                graph.ensure_node(update.v, label=update.label)
                self.degree.setdefault(update.v, 0)
                self.triangles.setdefault(update.v, 0)
            elif isinstance(update, VertexDeletion):
                if graph.has_node(update.v):
                    graph.remove_node(update.v)
                self.degree.pop(update.v, None)
                self.triangles.pop(update.v, None)
