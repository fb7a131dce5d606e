"""Single-source reachability — the Boolean member of the class Φ.

``x_v`` is true iff ``v`` is reachable from the source.  As a fixpoint:

    ``f_{x_v}(Y_{x_v}) = OR_{w ∈ in_nbr(v)} x_w``      (``x_s = true``)

Under the order ``true ⪯ false`` — reachability starts *false* and only
flips to true, so false is the ⪯-top — the algorithm is contracting and
monotonic and push-capable (the candidate over an edge is just the
tail's value).  Like CC, the final values alone cannot order the flood
(every reached node holds the same ``true``), so the deduced
``IncReach`` is *weakly deducible*: the batch run's timestamps provide
``<_C``, and the anchor of ``x_v`` is any in-neighbor reached before it.

Reachability is where incremental recomputation shines hardest: an
inserted edge floods only the newly reached region, a deleted non-anchor
edge costs O(1).

>>> from repro.graph import from_edges
>>> g = from_edges([(0, 1), (1, 2), (3, 4)], directed=True)
>>> reach(g, 0) == {0: True, 1: True, 2: True, 3: False, 4: False}
True
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable

from ..core.incremental import BatchAlgorithm, IncrementalAlgorithm
from ..core.orders import PartialOrder
from ..core.spec import FixpointSpec
from ..graph.graph import Graph, Node
from ..graph.updates import Batch
from ._common import edge_heads, inserted_arcs, lost_anchor_heads, nodes_inserted, nodes_removed


class ReachOrder(PartialOrder):
    """``true ⪯ false``: unreached (false) is the initial top."""

    def leq(self, a: Any, b: Any) -> bool:
        return a or (not b)


class ReachSpec(FixpointSpec):
    """Fixpoint spec for single-source reachability.  Query = source."""

    name = "Reach"
    order = ReachOrder()
    uses_timestamps = True  # <_C from the batch run's flood order
    supports_push = True

    # -- model ----------------------------------------------------------
    def variables(self, graph: Graph, query: Node) -> Iterable[Node]:
        return graph.nodes()

    def initial_value(self, key: Node, graph: Graph, query: Node) -> bool:
        return key == query

    def update(self, key: Node, value_of, graph: Graph, query: Node) -> bool:
        if key == query:
            return True
        for w in graph.in_neighbors(key):
            if value_of(w):
                return True
        return False

    def dependents(self, key: Node, graph: Graph, query: Node) -> Iterable[Node]:
        return graph.out_neighbors(key)

    def input_keys(self, key: Node, graph: Graph, query: Node) -> Iterable[Node]:
        # Y_{x_v} = in-neighbor reachability bits (the source reads nothing).
        return () if key == query else graph.in_neighbors(key)

    def edge_candidate(self, dep: Node, cause: Node, cause_value: bool, graph: Graph, query: Node) -> bool:
        return True if dep == query else cause_value

    def initial_scope(self, graph: Graph, query: Node) -> Iterable[Node]:
        if not graph.has_node(query):
            from ..errors import NodeNotFoundError

            raise NodeNotFoundError(query)
        return list(graph.out_neighbors(query))

    def kernel(self):
        # Boolean flood: True → -1.0 / False → 0.0, candidates copy the
        # tail's bit; weakly deducible, ordered by the flood timestamps
        # (unreached nodes sit at the top of <_C).
        from ..kernels.spec import BOOL, COPY, TIMESTAMP, KernelSpec

        return KernelSpec(
            combine=COPY,
            domain=BOOL,
            prioritized=False,
            anchor=TIMESTAMP,
            has_source=True,
        )

    # -- anchors ----------------------------------------------------------
    def order_key(self, key: Node, value: bool, timestamp: int) -> float:
        # Reached nodes settle in flood order; unreached nodes never
        # settle and sit at the top of <_C.
        return float(timestamp) if value else float("inf")

    def changed_input_keys(self, delta: Batch, graph_new: Graph, query: Node) -> Iterable[Node]:
        return edge_heads(delta, not graph_new.directed)

    def repair_seed_keys(self, delta, graph_new, query, state, old_weights):
        # Deletions can strand reached nodes (raise toward false), but
        # only where the tail fed the flood into the head: it was reached
        # no later than the head, or it is the source, whose initial true
        # passes a feasibilized pull whatever its timestamp.
        values, ts = state.values, state.timestamps

        def supported(t: Node, h: Node, _weight: float) -> bool:
            if h == query or not values.get(h) or not values.get(t):
                return False
            return t == query or ts.get(t, -1) <= ts.get(h, -1)

        return lost_anchor_heads(delta, graph_new, not graph_new.directed, old_weights, supported)

    def relaxation_pairs(self, delta: Batch, graph_new: Graph, query: Node):
        return inserted_arcs(delta, graph_new, not graph_new.directed)

    def anchor_dependents(
        self,
        key: Node,
        value_of: Callable[[Node], bool],
        timestamp_of: Callable[[Node], int],
        graph_new: Graph,
        query: Node,
    ) -> Iterable[Node]:
        # key fed the flood into every reached out-neighbor it preceded.
        if not value_of(key):
            return
        ts_key = timestamp_of(key)
        for z in graph_new.out_neighbors(key):
            if z != query and value_of(z) and timestamp_of(z) > ts_key:
                yield z

    def new_variables(self, delta: Batch, graph_new: Graph, query: Node) -> Iterable[Node]:
        return nodes_inserted(delta, graph_new)

    def removed_variables(self, delta: Batch, graph_new: Graph, query: Node) -> Iterable[Node]:
        return nodes_removed(delta, graph_new)

    # -- extraction -------------------------------------------------------
    def extract(self, values: Dict[Hashable, bool], graph: Graph, query: Node) -> Dict[Node, bool]:
        """``Q(G)``: {node: reachable-from-source}."""
        return dict(values)


class Reachability(BatchAlgorithm):
    """The batch reachability flood."""

    def __init__(self, engine: str = "auto") -> None:
        super().__init__(ReachSpec(), engine=engine)


class IncReach(IncrementalAlgorithm):
    """The deduced incremental reachability."""

    def __init__(self, engine: str = "auto") -> None:
        super().__init__(ReachSpec(), engine=engine)


def reach(graph: Graph, source: Node) -> Dict[Node, bool]:
    """One-shot batch reachability from ``source``."""
    return Reachability()(graph, source)
