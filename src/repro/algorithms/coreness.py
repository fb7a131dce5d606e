"""Core decomposition (k-core numbers) — a second extension of Φ.

The *coreness* of a node is the largest ``k`` such that the node belongs
to a subgraph whose nodes all have degree ≥ k inside it.  Lü et al.'s
H-operator characterization makes core decomposition a textbook member
of the paper's fixpoint class: starting every ``x_v`` at the degree of
``v`` and repeatedly applying

    ``f_{x_v}(Y_{x_v}) = H({x_w : w ∈ nbr(v)})``

— where ``H`` is the H-index (the largest ``h`` with at least ``h``
inputs ≥ ``h``) — converges to the coreness of every node.  The operator
is monotonic and, from the degree initialization, contracting under
numeric ``≤`` with the degree as ``x^⊥``.

This makes `IncCoreness` *weakly deducible*: like CC, the anchor
structure is not visible in the final values (whole k-cores share a
value), so timestamps order ``<_C``.  Insertions raise degrees — their
endpoints are re-seeded at the fresh ``x^⊥`` (the new degree) so values
can grow; the contracting step function then prunes downward.

>>> from repro.graph import from_edges
>>> g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
>>> coreness(g) == {0: 2, 1: 2, 2: 2, 3: 1}
True
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, List

from ..core.incremental import BatchAlgorithm
from ..core.orders import MinValueOrder
from ..core.spec import FixpointSpec
from ..graph.graph import Graph, Node
from ..graph.updates import Batch
from ._common import edge_updates, nodes_inserted, nodes_removed


def h_index(values: List[int]) -> int:
    """The largest ``h`` such that at least ``h`` of ``values`` are ≥ h.

    >>> h_index([3, 3, 2, 1])
    2
    >>> h_index([])
    0
    """
    values = sorted(values, reverse=True)
    h = 0
    for i, value in enumerate(values, start=1):
        if value >= i:
            h = i
        else:
            break
    return h


def _simple_degree(graph: Graph, v: Node) -> int:
    return sum(1 for w in graph.neighbors(v) if w != v)


class CorenessSpec(FixpointSpec):
    """Fixpoint spec for core decomposition (undirected).  Query unused."""

    name = "Coreness"
    order = MinValueOrder()
    uses_timestamps = True

    # -- model ----------------------------------------------------------
    def variables(self, graph: Graph, query: Any) -> Iterable[Node]:
        return graph.nodes()

    def initial_value(self, key: Node, graph: Graph, query: Any) -> int:
        return _simple_degree(graph, key)

    def update(self, key: Node, value_of, graph: Graph, query: Any) -> int:
        neighbor_values = [value_of(w) for w in graph.neighbors(key) if w != key]
        return min(_simple_degree(graph, key), h_index(neighbor_values))

    def dependents(self, key: Node, graph: Graph, query: Any) -> Iterable[Node]:
        return (w for w in graph.neighbors(key) if w != key)

    def input_keys(self, key: Node, graph: Graph, query: Any) -> Iterable[Node]:
        # Y_{x_v} = neighbor corenesses (self-loops contribute nothing).
        return (w for w in graph.neighbors(key) if w != key)

    # FIFO scheduling; H-index evaluation is not a per-edge min, so the
    # push engine does not apply.

    # -- anchors ----------------------------------------------------------
    def order_key(self, key: Node, value: Any, timestamp: int) -> int:
        return timestamp

    def changed_input_keys(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Node]:
        keys = set()
        for u, v, _inserted in edge_updates(delta):
            keys.add(u)
            keys.add(v)
        return keys

    def anchor_dependents(
        self,
        key: Node,
        value_of: Callable[[Node], Any],
        timestamp_of: Callable[[Node], int],
        graph_new: Graph,
        query: Any,
    ) -> Iterable[Node]:
        ts_key = timestamp_of(key)
        for z in graph_new.neighbors(key):
            if z != key and timestamp_of(z) > ts_key:
                yield z

    def new_variables(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Node]:
        return nodes_inserted(delta, graph_new)

    def removed_variables(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Node]:
        return nodes_removed(delta, graph_new)

    # -- extraction -------------------------------------------------------
    def extract(self, values: Dict[Hashable, int], graph: Graph, query: Any) -> Dict[Node, int]:
        """``Q(G)``: {node: coreness}."""
        return dict(values)


class CorenessFp(BatchAlgorithm):
    """The batch H-operator core decomposition."""

    def __init__(self) -> None:
        super().__init__(CorenessSpec())


class IncCoreness:
    """Incremental core decomposition.

    Deletions only *lower* coreness, so they are batched: the endpoints
    seed the contracting step function directly (their old values remain
    feasible upper bounds).  Insertions can *raise* coreness, which the
    contracting engine cannot do on its own; each inserted edge is
    processed with the classical subcore-traversal lift — only nodes
    with coreness ``K = min(core(u), core(v))`` reachable from the edge
    through nodes of coreness ≥ K can rise, and lifting them to their
    degrees (the initial value ``x^⊥``) restores feasibility, after
    which one engine pass prunes back to the exact fixpoint.  The
    Lü-et-al. sandwich argument guarantees exactness from any feasible
    start: iterating H from both ``coreness`` and ``degree`` converges
    to ``coreness``, so every start in between does too.

    API-compatible with :class:`~repro.core.incremental.IncrementalAlgorithm`.
    """

    name = "IncCoreness"
    deducible = False  # per-insertion traversal needs the subcore region

    def __init__(self) -> None:
        self._spec = CorenessSpec()

    def _lift_region(self, graph: Graph, state, u: Node, v: Node) -> set:
        """The subcore region of inserted edge {u, v}, lifted one level.

        By the subcore theorem, only vertices of coreness exactly
        ``K = min(core(u), core(v))`` reachable from the edge through
        coreness-K vertices can rise, and only to ``K + 1``; lifting them
        to ``min(degree, K + 1)`` is therefore feasible and tight.
        """
        values = state.values
        k = min(values[u], values[v])
        region = set()
        stack = [x for x in (u, v) if values[x] == k]
        while stack:
            z = stack.pop()
            if z in region:
                continue
            region.add(z)
            for w in graph.neighbors(z):
                if w != z and w not in region and values.get(w) == k:
                    stack.append(w)
        for z in region:
            state.set(z, min(_simple_degree(graph, z), k + 1))
        return region

    def apply(self, graph: Graph, state, delta: Batch, query: Any = None,
              trace: bool = False, measure: bool = False):
        from ..core.engine import run_fixpoint
        from ..core.incremental import IncrementalResult
        from ..errors import IncrementalizationError
        from ..graph.updates import (
            EdgeDeletion,
            EdgeInsertion,
            VertexDeletion,
            VertexInsertion,
            apply_updates,
        )
        from ..metrics.counters import AccessCounter, NullCounter

        if not isinstance(delta, Batch):
            delta = Batch(list(delta))
        if not state.values:
            raise IncrementalizationError(
                "incremental run started from an empty state; run the batch algorithm first"
            )
        counting = measure or trace
        result = IncrementalResult(
            h_counter=AccessCounter(trace=trace) if counting else NullCounter(),
            engine_counter=AccessCounter(trace=trace) if counting else NullCounter(),
        )
        # Deletions are batched ahead of the per-insertion lifts, which is
        # only sound for order-independent batches: normalize first so
        # each edge carries its net effect (coreness ignores weights).
        delta = delta.expanded(graph).normalized(directed=graph.directed)
        changelog = state.start_changelog()
        saved = state.counter
        try:
            # Phase 1: vertex bookkeeping + all deletions, one prune pass.
            deletion_seeds = set()

            def bookkeep(update) -> None:
                if isinstance(update, EdgeDeletion):
                    deletion_seeds.add(update.u)
                    deletion_seeds.add(update.v)
                elif isinstance(update, VertexInsertion):
                    state.seed(update.v, 0)
                elif isinstance(update, VertexDeletion):
                    state.drop(update.v)

            insertions = [u for u in delta if isinstance(u, EdgeInsertion)]
            apply_updates(
                graph, [u for u in delta if not isinstance(u, EdgeInsertion)], on_op=bookkeep
            )
            deletion_seeds = {z for z in deletion_seeds if z in state.values}
            state.counter = result.engine_counter
            if deletion_seeds:
                run_fixpoint(self._spec, graph, query, state=state, scope=deletion_seeds)

            # Phase 2: insertions one at a time (classical traversal lift),
            # each on the graph with exactly that insertion applied.
            def lift(update) -> None:
                if not isinstance(update, EdgeInsertion):
                    return
                u, v = update.u, update.v
                if u == v or u not in state.values or v not in state.values:
                    return
                state.counter = result.h_counter
                region = self._lift_region(graph, state, u, v)
                result.scope |= region
                state.counter = result.engine_counter
                run_fixpoint(self._spec, graph, query, state=state, scope=region)

            apply_updates(graph, insertions, on_op=lift)
        finally:
            state.counter = saved
            state.stop_changelog()
        for key, old in changelog.items():
            new = state.values.get(key)
            if old != new:
                result.changes[key] = (old, new)
        return result


def coreness(graph: Graph) -> Dict[Node, int]:
    """One-shot batch core decomposition: {node: coreness}."""
    return CorenessFp()(graph)
