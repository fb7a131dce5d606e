"""Single-source widest paths (SSWP) — an extension of the class Φ.

The paper's conclusion lists "extending the class Φ of fixpoint
algorithms" as future work; SSWP is the textbook member we add.  The
*width* of a path is its minimum edge capacity, and ``x_v`` is the
maximum width over all paths from the source:

    ``f_{x_v}(Y_{x_v}) = max_{w ∈ in_nbr(v)} min(x_w, L(w, v))``

This is the (max, min) semiring analogue of SSSP, and it exercises the
framework's generality: the partial order ``⪯`` is *reversed* numeric
order (widths start at 0 — the ⪯-top — and only grow), the schedule is
"largest width first" (a max-heap Dijkstra), and the anchor order is
value-derived, so the deduced ``IncSSWP`` is *deducible*.

Unlike SSSP's ``x + w`` — strictly increasing in its anchor, so an
anchor change forces a dependent change — SSWP's ``min(x, capacity)``
both *ties* across paths sharing a bottleneck and *saturates* (the
anchor can move without moving the dependent).  Ties are broken by old
timestamp in the repair order ``<_C`` (docs/theory.md), so a tied input
that settled earlier stays trusted and one deleted hub edge no longer
resets a whole width plateau.  Saturation, and a dependent whose only
tied support settled after it, can still pull an unaffected variable
into ``H⁰``, so ``H⁰`` may exceed ``AFF`` along anchor-cascade chains —
*semi-boundedness* in the sense of the paper's reference [23].  IncSSWP
stays exactly correct either way.

>>> from repro.graph import Graph
>>> g = Graph(directed=True)
>>> for u, v, c in [(0, 1, 5.0), (1, 2, 2.0), (0, 2, 1.0)]:
...     g.add_edge(u, v, weight=c)
>>> sswp(g, 0)[2]
2.0
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Hashable, Iterable

from ..core.incremental import BatchAlgorithm, IncrementalAlgorithm
from ..core.orders import PartialOrder
from ..core.spec import FixpointSpec
from ..graph.graph import Graph, Node
from ..graph.updates import Batch
from ._common import edge_heads, inserted_arcs, lost_anchor_heads, nodes_inserted, nodes_removed

INF = math.inf


class MaxValueOrder(PartialOrder):
    """Reversed numeric order: ``a ⪯ b`` iff ``a ≥ b`` (0 is the top).

    Widest-path widths contract downward in this order as they grow
    numerically — the mirror image of SSSP distances.
    """

    def leq(self, a: Any, b: Any) -> bool:
        return a >= b


class SSWPSpec(FixpointSpec):
    """Fixpoint spec for single-source widest paths.  Query = source."""

    name = "SSWP"
    order = MaxValueOrder()
    uses_timestamps = False
    supports_push = True  # f is the ⪯-min (numeric max) of edge candidates

    # -- model ----------------------------------------------------------
    def variables(self, graph: Graph, query: Node) -> Iterable[Node]:
        return graph.nodes()

    def initial_value(self, key: Node, graph: Graph, query: Node) -> float:
        return INF if key == query else 0.0

    def update(self, key: Node, value_of, graph: Graph, query: Node) -> float:
        if key == query:
            return INF
        best = 0.0
        for w, capacity in graph.in_items(key):
            candidate = min(value_of(w), capacity)
            if candidate > best:
                best = candidate
        return best

    def dependents(self, key: Node, graph: Graph, query: Node) -> Iterable[Node]:
        return graph.out_neighbors(key)

    def input_keys(self, key: Node, graph: Graph, query: Node) -> Iterable[Node]:
        # Y_{x_v} = in-neighbor widths (the source reads nothing).
        return () if key == query else graph.in_neighbors(key)

    def edge_candidate(self, dep: Node, cause: Node, cause_value: float, graph: Graph, query: Node) -> float:
        if dep == query:
            return INF
        return min(cause_value, graph.weight(cause, dep))

    def initial_scope(self, graph: Graph, query: Node) -> Iterable[Node]:
        if not graph.has_node(query):
            from ..errors import NodeNotFoundError

            raise NodeNotFoundError(query)
        return list(graph.out_neighbors(query))

    def priority(self, key: Node, cause_value: Any) -> float:
        # Widest-first schedule: pop the largest settled width (negated
        # because the worklist is a min-heap).
        return -cause_value if cause_value is not None else 0.0

    def kernel(self):
        # Negated max-min: widths encode as -width so ⪯ becomes numeric ≤
        # and the combine is max(value, -capacity).
        from ..kernels.spec import FLOAT, MAXNEG, VALUE, KernelSpec

        return KernelSpec(
            combine=MAXNEG, domain=FLOAT, prioritized=True, anchor=VALUE, has_source=True
        )

    # -- anchors ----------------------------------------------------------
    def order_key(self, key: Node, value: float, timestamp: int) -> float:
        # <_C follows settling order: larger widths settle first; the
        # scope function breaks width ties by old timestamp.
        return -value

    def changed_input_keys(self, delta: Batch, graph_new: Graph, query: Node) -> Iterable[Node]:
        return edge_heads(delta, not graph_new.directed)

    def repair_seed_keys(self, delta, graph_new, query, state, old_weights):
        # Deleting an edge can only *narrow* paths — widths may need to
        # fall back toward 0, the raising direction of ⪯ — and only at the
        # head of a bottleneck-tight edge: min(old x_u, cap) = old x_v.
        old = state.values

        def tight(u: Node, v: Node, capacity: float) -> bool:
            x_v = old.get(v, 0.0)
            return v != query and x_v != 0.0 and min(old.get(u, 0.0), capacity) == x_v

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
        # z with x_key ∈ C_{x_z}: the old widest path into z bottlenecked
        # through key — min(old x_key, capacity) achieved old x_z.
        x_key = value_of(key)
        if x_key == 0.0:
            return
        for z, capacity in graph_new.out_items(key):
            if z != query and value_of(z) == min(x_key, capacity):
                yield z

    def new_variables(self, delta: Batch, graph_new: Graph, query: Node) -> Iterable[Node]:
        return nodes_inserted(delta, graph_new)

    def removed_variables(self, delta: Batch, graph_new: Graph, query: Node) -> Iterable[Node]:
        return nodes_removed(delta, graph_new)

    # -- extraction -------------------------------------------------------
    def extract(self, values: Dict[Hashable, float], graph: Graph, query: Node) -> Dict[Node, float]:
        """``Q(G)``: {node: maximum path width from the source}."""
        return dict(values)


class WidestPath(BatchAlgorithm):
    """The batch SSWP algorithm (max-min Dijkstra)."""

    def __init__(self, engine: str = "auto") -> None:
        super().__init__(SSWPSpec(), engine=engine)


class IncSSWP(IncrementalAlgorithm):
    """The deduced incremental SSWP algorithm."""

    def __init__(self, engine: str = "auto") -> None:
        super().__init__(SSWPSpec(), engine=engine)


def sswp(graph: Graph, source: Node) -> Dict[Node, float]:
    """One-shot batch widest paths from ``source`` (0.0 if unreachable)."""
    return WidestPath()(graph, source)
