"""CSR (compressed sparse row) snapshots of a graph.

Batch algorithms in the paper run on static graphs; the authors' C++
implementation stores them in compressed adjacency arrays.  This module
provides the Python analogue: a flat-array CSR view of a
:class:`~repro.graph.graph.Graph`, used by the dense batch engine
(:mod:`repro.kernels.engine`) where neighbor scans dominate.  The arrays
are plain Python lists, not numpy: the kernel loops index them
element-wise, and a list index returns an unboxed ``int``/``float`` where
a numpy index would allocate a scalar — lists are both faster to build
(C-speed ``extend`` straight off the adjacency dicts) and faster to read
at these sizes.

A snapshot is read-only.  The incremental kernel does not use one: it
keeps its own mutable row dicts in dense ids (see
:mod:`repro.kernels.incremental`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..errors import NodeNotFoundError
from .graph import Graph, Node


def _rows_from_dicts(
    node_of: List[Node],
    index_of: Dict[Node, int],
    adj: Dict[Node, Dict[Node, float]],
) -> Tuple[List[int], List[int], List[float]]:
    """CSR rows straight off adjacency dicts (per-edge work in C)."""
    indptr: List[int] = [0]
    indices: List[int] = []
    weights: List[float] = []
    get_index = index_of.__getitem__
    for v in node_of:
        row = adj[v]
        indices.extend(map(get_index, row))
        weights.extend(row.values())
        indptr.append(len(indices))
    return indptr, indices, weights


class CSRGraph:
    """A compressed sparse row snapshot of a graph.

    Node ids are densified into ``0..n-1``; :attr:`index_of` and
    :attr:`node_of` translate between the original ids and dense indices.

    >>> g = Graph(directed=True)
    >>> g.add_edge('a', 'b', weight=2.0)
    >>> csr = CSRGraph.from_graph(g)
    >>> [csr.node_of[j] for j in csr.out_neighbors(csr.index_of['a'])]
    ['b']
    """

    __slots__ = (
        "directed",
        "indptr",
        "indices",
        "weights",
        "rindptr",
        "rindices",
        "rweights",
        "node_of",
        "index_of",
    )

    def __init__(
        self,
        directed: bool,
        indptr: List[int],
        indices: List[int],
        weights: List[float],
        rindptr: List[int],
        rindices: List[int],
        rweights: List[float],
        node_of: List[Node],
        index_of: Dict[Node, int],
    ) -> None:
        self.directed = directed
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.rindptr = rindptr
        self.rindices = rindices
        self.rweights = rweights
        self.node_of = node_of
        self.index_of = index_of

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot a :class:`Graph` into CSR form.

        For undirected graphs each edge appears in both rows, so the
        forward arrays double as the reverse arrays.

        The rows are read off the graph's adjacency dicts wholesale
        (``extend`` + ``map`` run the per-edge work in C).
        """
        node_of = list(graph.nodes())
        index_of = {v: i for i, v in enumerate(node_of)}
        indptr, indices, weights = _rows_from_dicts(node_of, index_of, graph._succ)
        if not graph.directed:
            return cls(False, indptr, indices, weights, indptr, indices, weights, node_of, index_of)
        rindptr, rindices, rweights = _rows_from_dicts(node_of, index_of, graph._pred)
        return cls(True, indptr, indices, weights, rindptr, rindices, rweights, node_of, index_of)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_of)

    @property
    def num_edges(self) -> int:
        m = len(self.indices)
        if self.directed:
            return m
        indptr, indices = self.indptr, self.indices
        loops = 0
        for i in range(self.num_nodes):
            for k in range(indptr[i], indptr[i + 1]):
                if indices[k] == i:
                    loops += 1
        return (m - loops) // 2 + loops

    def out_neighbors(self, i: int) -> List[int]:
        """Dense indices of out-neighbors of dense node ``i``."""
        self._check(i)
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def out_weights(self, i: int) -> List[float]:
        self._check(i)
        return self.weights[self.indptr[i] : self.indptr[i + 1]]

    def in_neighbors(self, i: int) -> List[int]:
        self._check(i)
        return self.rindices[self.rindptr[i] : self.rindptr[i + 1]]

    def in_weights(self, i: int) -> List[float]:
        self._check(i)
        return self.rweights[self.rindptr[i] : self.rindptr[i + 1]]

    def out_degree(self, i: int) -> int:
        self._check(i)
        return self.indptr[i + 1] - self.indptr[i]

    def _check(self, i: int) -> None:
        if not 0 <= i < self.num_nodes:
            raise NodeNotFoundError(i)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate dense ``(i, j, weight)`` triples (both directions if undirected)."""
        for i in range(self.num_nodes):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            for k in range(lo, hi):
                yield (i, self.indices[k], self.weights[k])

    def nbytes(self) -> int:
        """Approximate memory footprint at 8 bytes per array element."""
        total = 8 * (len(self.indptr) + len(self.indices) + len(self.weights))
        if self.directed:
            total += 8 * (len(self.rindptr) + len(self.rindices) + len(self.rweights))
        return total

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"CSRGraph({kind}, |V|={self.num_nodes}, nnz={len(self.indices)})"
