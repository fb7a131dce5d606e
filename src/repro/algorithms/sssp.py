"""Single-source shortest paths (SSSP) — Figures 1 and 5 of the paper.

Batch algorithm
---------------
Dijkstra's algorithm, expressed as a fixpoint (Figure 1): every node ``v``
carries a status variable ``x_v`` — its tentative distance from the
source — initialized to ``∞`` (``0`` at the source).  The update function

    ``f_{x_v}(Y_{x_v}) = min_{w ∈ in_nbr(v)} (x_w + L(w, v))``

is evaluated under a priority schedule (smallest settled distance first),
which makes the generic engine behave exactly like Dijkstra with a
decrease-key queue.  The algorithm is contracting and monotonic under
numeric ``≤`` with ``∞`` on top.

Incremental algorithm (IncSSSP, Figure 5)
-----------------------------------------
*Deducible*: no auxiliary structure is needed because the fixpoint itself
subsumes the anchor sets — ``x_w`` is an anchor of ``x_v`` iff
``x_w + L(w, v) = x_v``, and the order ``<_C`` is the numeric order of the
final distances (Example 3).  The generic scope function of Figure 4 then
repairs distances invalidated by deletions, and the resumed step function
lowers distances improved by insertions (Example 4).

Edge weights must be non-negative: Dijkstra's priority schedule and the
anchor-order argument both rely on distances growing along paths.

>>> from repro.graph import Graph
>>> g = Graph(directed=True)
>>> for u, v, w in [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)]:
...     g.add_edge(u, v, weight=w)
>>> sssp(g, 0)[1]
2.0
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Hashable, Iterable

from ..core.incremental import BatchAlgorithm, IncrementalAlgorithm
from ..core.orders import MinValueOrder
from ..core.spec import FixpointSpec
from ..graph.graph import Graph, Node
from ..graph.updates import Batch
from ._common import edge_heads, inserted_arcs, lost_anchor_heads, nodes_inserted, nodes_removed

INF = math.inf


class SSSPSpec(FixpointSpec):
    """Fixpoint spec for SSSP.  The query is the source node."""

    name = "SSSP"
    order = MinValueOrder()
    uses_timestamps = False
    supports_push = True  # f is the min over per-edge candidates

    # -- model ----------------------------------------------------------
    def variables(self, graph: Graph, query: Node) -> Iterable[Node]:
        return graph.nodes()

    def initial_value(self, key: Node, graph: Graph, query: Node) -> float:
        return 0.0 if key == query else INF

    def update(self, key: Node, value_of, graph: Graph, query: Node) -> float:
        if key == query:
            return 0.0
        best = INF
        for w, weight in graph.in_items(key):
            candidate = value_of(w) + weight
            if candidate < best:
                best = candidate
        return best

    def dependents(self, key: Node, graph: Graph, query: Node) -> Iterable[Node]:
        return graph.out_neighbors(key)

    def input_keys(self, key: Node, graph: Graph, query: Node) -> Iterable[Node]:
        # Y_{x_v} = in-neighbor distances (the source reads nothing).
        return () if key == query else graph.in_neighbors(key)

    def edge_candidate(self, dep: Node, cause: Node, cause_value: float, graph: Graph, query: Node) -> float:
        if dep == query:
            return 0.0  # the source's statement is constant
        return cause_value + graph.weight(cause, dep)

    def initial_scope(self, graph: Graph, query: Node) -> Iterable[Node]:
        # The source's statement holds by construction; its out-neighbors
        # may violate theirs (Figure 1, line 3).
        if not graph.has_node(query):
            from ..errors import NodeNotFoundError

            raise NodeNotFoundError(query)
        return list(graph.out_neighbors(query))

    def priority(self, key: Node, cause_value: Any) -> float:
        # Pop in order of the settled distance that caused the push: the
        # engine then processes nodes in nondecreasing distance, which is
        # Dijkstra's schedule.
        return cause_value if cause_value is not None else 0.0

    def kernel(self):
        # Min-plus over float distances; deducible, so the repair queue
        # orders by (encoded) old values.
        from ..kernels.spec import ADD, FLOAT, VALUE, KernelSpec

        return KernelSpec(
            combine=ADD, domain=FLOAT, prioritized=True, anchor=VALUE, has_source=True
        )

    # -- anchors (Section 4 / Example 3) ---------------------------------
    def order_key(self, key: Node, value: float, timestamp: int) -> float:
        # <_C is the order of final distances; deducible, no timestamps.
        return value

    def changed_input_keys(self, delta: Batch, graph_new: Graph, query: Node) -> Iterable[Node]:
        return edge_heads(delta, not graph_new.directed)

    def repair_seed_keys(self, delta, graph_new, query, state, old_weights):
        # Only deletions can invalidate stored distances (raise f), and
        # only at the head of a *tight* edge — one of its anchors:
        # old(x_u) + L(u, v) = old(x_v).  Insertion heads are lowered by
        # the resumed step function.
        old = state.values

        def tight(u: Node, v: Node, weight: float) -> bool:
            x_v = old.get(v, INF)
            return v != query and x_v != INF and old.get(u, INF) + weight == x_v

        return lost_anchor_heads(delta, graph_new, not graph_new.directed, old_weights, tight)

    def relaxation_pairs(self, delta: Batch, graph_new: Graph, query: Node):
        return inserted_arcs(delta, graph_new, not graph_new.directed)

    def anchor_dependents(
        self,
        key: Node,
        value_of: Callable[[Node], float],
        timestamp_of: Callable[[Node], int],
        graph_new: Graph,
        query: Node,
    ) -> Iterable[Node]:
        # z with x_key ∈ C_{x_z}: out-edges (key, z) lying on an old
        # shortest path, i.e. old(x_key) + L(key, z) = old(x_z).
        x_key = value_of(key)
        if x_key == INF:
            return
        for z, weight in graph_new.out_items(key):
            if z != query and value_of(z) == x_key + weight:
                yield z

    def new_variables(self, delta: Batch, graph_new: Graph, query: Node) -> Iterable[Node]:
        return nodes_inserted(delta, graph_new)

    def removed_variables(self, delta: Batch, graph_new: Graph, query: Node) -> Iterable[Node]:
        return nodes_removed(delta, graph_new)

    # -- extraction -------------------------------------------------------
    def extract(self, values: Dict[Hashable, float], graph: Graph, query: Node) -> Dict[Node, float]:
        """``Q(G)``: the distance map {node: shortest distance from source}."""
        return dict(values)


class Dijkstra(BatchAlgorithm):
    """The batch SSSP algorithm ``A`` (Figure 1)."""

    def __init__(self, engine: str = "auto") -> None:
        super().__init__(SSSPSpec(), engine=engine)


class IncSSSP(IncrementalAlgorithm):
    """The deduced incremental SSSP algorithm ``A_Δ`` (Figure 5)."""

    def __init__(self, engine: str = "auto") -> None:
        super().__init__(SSSPSpec(), engine=engine)


def sssp(graph: Graph, source: Node) -> Dict[Node, float]:
    """One-shot batch SSSP: distances from ``source`` (``∞`` if unreachable)."""
    return Dijkstra()(graph, source)
