"""Connected components (CC) — Examples 2 and 5 of the paper.

Batch algorithm (CC_fp)
-----------------------
Min-label propagation on an undirected graph: every node ``v`` carries a
status variable ``x_v`` holding a component id, initialized to ``v``'s own
node id.  The update function

    ``f_{x_v}(Y_{x_v}) = min({id_v} ∪ {x_w : w ∈ nbr(v)})``

propagates the smallest id through each component; the fixpoint labels
every node with the minimum node id of its component.  Contracting and
monotonic under numeric ``≤`` (ids only shrink).

Incremental algorithm (IncCC, Example 5)
----------------------------------------
*Weakly deducible*: the anchor sets cannot be read off the final values —
all nodes of a component share one id — so IncCC keeps the *timestamp* of
each variable's last change.  A neighbor ``w`` is a contributor of ``v``
iff ``ts(w) < ts(v)``, and ``<_C`` is the timestamp order.  With these,
the generic scope function of Figure 4 repairs only the side of a deleted
edge whose value actually flowed through it (the later-timestamped
endpoint), instead of resetting whole components as the brute-force
deducible algorithm of Example 2 would.

Node ids must be mutually orderable (e.g. all ints), since they are also
the component-id domain.

>>> from repro.graph import from_edges
>>> g = from_edges([(0, 1), (2, 3)])
>>> cc(g) == {0: 0, 1: 0, 2: 2, 3: 2}
True
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable

from ..core.incremental import BatchAlgorithm, IncrementalAlgorithm
from ..core.orders import MinValueOrder
from ..core.spec import FixpointSpec
from ..graph.graph import Graph, Node
from ..graph.updates import Batch
from ._common import edge_heads, inserted_arcs, lost_anchor_heads, nodes_inserted, nodes_removed


class CCSpec(FixpointSpec):
    """Fixpoint spec for connected components.  The query is unused."""

    name = "CC"
    order = MinValueOrder()
    uses_timestamps = True
    supports_push = True  # f is the min over neighbor values and the own id

    # -- model ----------------------------------------------------------
    def variables(self, graph: Graph, query: Any) -> Iterable[Node]:
        return graph.nodes()

    def initial_value(self, key: Node, graph: Graph, query: Any) -> Node:
        return key

    def update(self, key: Node, value_of, graph: Graph, query: Any):
        best = key
        for w in graph.neighbors(key):
            value = value_of(w)
            if value < best:
                best = value
        return best

    def dependents(self, key: Node, graph: Graph, query: Any) -> Iterable[Node]:
        return graph.neighbors(key)

    def input_keys(self, key: Node, graph: Graph, query: Any) -> Iterable[Node]:
        # Y_{x_v} = neighbor component ids (the own id is a constant).
        return graph.neighbors(key)

    def edge_candidate(self, dep: Node, cause: Node, cause_value, graph: Graph, query: Any):
        return cause_value  # component ids flow over edges unchanged

    # FIFO scheduling (the default priority of None).

    def kernel(self):
        # Min-label propagation over float-encoded node ids; weakly
        # deducible, so the repair queue orders by old timestamps.  The
        # dependency structure is the symmetric neighborhood, so the
        # kernel requires an undirected graph (directed graphs fall back
        # to the generic engine, which handles them via neighbor unions).
        from ..kernels.spec import COPY, NODE, TIMESTAMP, KernelSpec

        return KernelSpec(
            combine=COPY,
            domain=NODE,
            prioritized=False,
            anchor=TIMESTAMP,
            undirected_only=True,
        )

    # -- anchors (Example 5) ----------------------------------------------
    def order_key(self, key: Node, value: Any, timestamp: int) -> int:
        # <_C is the timestamp order of the batch run's change propagation.
        return timestamp

    def changed_input_keys(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Node]:
        return edge_heads(delta, True)

    def repair_seed_keys(self, delta, graph_new, query, state, old_weights):
        # Only deletions can strand a component id (insertions merge
        # components downward via the resumed step function), and only
        # where the tail supported the head: it changed no later than the
        # head, or it is the head's root holding its own id — a
        # feasibilized pull passes an initial value whatever its
        # timestamp (docs/theory.md, "Anchor-tested repair seeds").
        values, ts = state.values, state.timestamps

        def supported(t: Node, h: Node, _weight: float) -> bool:
            x_h = values.get(h, h)
            if x_h == h or values.get(t) != x_h:
                return False  # h holds its own id (the top), or t never fed it
            return x_h == t or ts.get(t, -1) <= ts.get(h, -1)

        return lost_anchor_heads(delta, graph_new, True, old_weights, supported)

    def relaxation_pairs(self, delta: Batch, graph_new: Graph, query: Any):
        return inserted_arcs(delta, graph_new, True)

    def anchor_dependents(
        self,
        key: Node,
        value_of: Callable[[Node], Any],
        timestamp_of: Callable[[Node], int],
        graph_new: Graph,
        query: Any,
    ) -> Iterable[Node]:
        # x_key ∈ C_{x_z} iff z is a neighbor whose last change came later:
        # key's old value may have flowed into z.
        ts_key = timestamp_of(key)
        for z in graph_new.neighbors(key):
            if timestamp_of(z) > ts_key:
                yield z

    def new_variables(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Node]:
        return nodes_inserted(delta, graph_new)

    def removed_variables(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Node]:
        return nodes_removed(delta, graph_new)

    # -- extraction -------------------------------------------------------
    def extract(self, values: Dict[Hashable, Any], graph: Graph, query: Any) -> Dict[Node, Any]:
        """``Q(G)``: {node: component id} (component id = min node id)."""
        return dict(values)


class CCfp(BatchAlgorithm):
    """The batch CC algorithm ``CC_fp`` (Example 2)."""

    def __init__(self, engine: str = "auto") -> None:
        super().__init__(CCSpec(), engine=engine)


class IncCC(IncrementalAlgorithm):
    """The weakly deducible incremental CC algorithm (Example 5)."""

    def __init__(self, engine: str = "auto") -> None:
        super().__init__(CCSpec(), engine=engine)


def cc(graph: Graph) -> Dict[Node, Any]:
    """One-shot batch connected components: {node: component id}."""
    return CCfp()(graph)


class NaiveIncCC:
    """The brute-force *deducible* incremental CC of Example 2 (Theorem 1).

    PE variables are found by the conservative change-propagation closure:
    every variable touched by ``ΔG`` is PE, and PE-ness spreads to every
    neighbor — i.e. entire components containing an update.  PE variables
    are reset to their node ids and the batch step function recomputes
    them.  Correct, but *not* relatively bounded: a unit deletion inside a
    big component resets the whole component (the pathology motivating
    Section 4).  Kept as the ablation baseline for the scope function.
    """

    name = "NaiveIncCC"
    deducible = True

    def __init__(self) -> None:
        self._spec = CCSpec()

    def apply(self, graph, state, delta, query: Any = None, trace: bool = False):
        from ..core.engine import run_fixpoint
        from ..core.incremental import IncrementalResult
        from ..graph.updates import Batch, apply_updates
        from ..metrics.counters import AccessCounter

        if not isinstance(delta, Batch):
            delta = Batch(list(delta))
        result = IncrementalResult(
            h_counter=AccessCounter(trace=trace),
            engine_counter=AccessCounter(trace=trace),
        )
        delta = apply_updates(graph, delta, expand=True)
        changelog = state.start_changelog()
        saved = state.counter
        try:
            state.counter = result.h_counter
            for v in self._spec.removed_variables(delta, graph, query):
                state.drop(v)
            for v in self._spec.new_variables(delta, graph, query):
                if v not in state.values:
                    state.seed(v, v)
            # PE closure: flood from the touched nodes over all neighbors.
            pe = set()
            frontier = [v for v in delta.touched_nodes() if graph.has_node(v)]
            while frontier:
                v = frontier.pop()
                if v in pe:
                    continue
                pe.add(v)
                result.h_counter.on_scope_push(v)
                for w in graph.neighbors(v):
                    if w not in pe:
                        frontier.append(w)
            for v in pe:
                state.set(v, v)  # reset to the initial value (node id)
            result.scope = pe

            state.counter = result.engine_counter
            run_fixpoint(self._spec, graph, query, state=state, scope=pe)
        finally:
            state.counter = saved
            state.stop_changelog()
        for key, old in changelog.items():
            new = state.values.get(key)
            if old != new:
                result.changes[key] = (old, new)
        return result
