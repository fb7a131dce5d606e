"""Graph simulation (Sim) — Section 5.1 of the paper.

Given a data graph ``G`` and a pattern ``Q`` (both directed, node
labeled), graph simulation computes the unique maximum relation
``R ⊆ V × V_Q`` such that ``⟨v, u⟩ ∈ R`` implies (a) ``L(v) = L_Q(u)``
and (b) for every pattern edge ``(u, u')`` there is a graph edge
``(v, v')`` with ``⟨v', u'⟩ ∈ R``.

Batch algorithm (Sim_fp)
------------------------
The Henzinger–Henzinger–Kopke style fixpoint: a Boolean status variable
``x[v, u]`` per node pair, initialized true iff labels match, then
monotonically *retracted* — a variable flips true→false when some pattern
edge out of ``u`` has no surviving witness out of ``v``.  Contracting and
monotonic under ``false ⪯ true``.

Incremental algorithm (IncSim, Example 6)
------------------------------------------
*Weakly deducible*: each variable records the timestamp of its
falsification (``-1`` for label mismatches, conceptually ``∞`` while
true).  The anchor set of ``x[v, u]`` consists of the input variables
falsified *before* it — they caused its retraction — and ``<_C`` is the
falsification order.  On edge insertions the scope function of Figure 4
resurrects variables whose retraction chain is no longer justified
(false → true, moving up toward the initial value); the resumed step
function then re-prunes, handling deletions.

>>> from repro.graph import Graph
>>> g = Graph(directed=True); q = Graph(directed=True)
>>> g.add_edge(0, 1); g.set_node_label(0, 'a'); g.set_node_label(1, 'b')
>>> q.add_edge('x', 'y'); q.set_node_label('x', 'a'); q.set_node_label('y', 'b')
>>> sorted(sim(g, q))
[(0, 'x'), (1, 'y')]
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Hashable, Iterable, Set, Tuple

from ..core.incremental import BatchAlgorithm, IncrementalAlgorithm
from ..core.orders import BooleanOrder
from ..core.spec import FixpointSpec
from ..graph.graph import Graph, Node
from ..graph.updates import Batch
from ._common import edge_updates, nodes_inserted, nodes_removed

Pair = Tuple[Node, Node]


class SimSpec(FixpointSpec):
    """Fixpoint spec for graph simulation.  The query is the pattern graph."""

    name = "Sim"
    order = BooleanOrder()
    uses_timestamps = True

    # -- model ----------------------------------------------------------
    def variables(self, graph: Graph, query: Graph) -> Iterable[Pair]:
        for v in graph.nodes():
            for u in query.nodes():
                yield (v, u)

    def initial_value(self, key: Pair, graph: Graph, query: Graph) -> bool:
        v, u = key
        return graph.node_label(v) == query.node_label(u)

    def update(self, key: Pair, value_of, graph: Graph, query: Graph) -> bool:
        v, u = key
        if graph.node_label(v) != query.node_label(u):
            return False
        for u_next in query.out_neighbors(u):
            witnessed = False
            for v_next in graph.out_neighbors(v):
                if value_of((v_next, u_next)):
                    witnessed = True
                    break
            if not witnessed:
                return False
        return True

    def dependents(self, key: Pair, graph: Graph, query: Graph) -> Iterable[Pair]:
        v, u = key
        for v_prev in graph.in_neighbors(v):
            for u_prev in query.in_neighbors(u):
                yield (v_prev, u_prev)

    def input_keys(self, key: Pair, graph: Graph, query: Graph) -> Iterable[Pair]:
        # Y_{x[v,u]} = successor pairs over data × pattern out-edges; a
        # label mismatch is false whatever its inputs and reads none.
        v, u = key
        if graph.node_label(v) != query.node_label(u):
            return
        for v_next in graph.out_neighbors(v):
            for u_next in query.out_neighbors(u):
                yield (v_next, u_next)

    def initial_scope(self, graph: Graph, query: Graph) -> Iterable[Pair]:
        # Label mismatches start false and satisfy their statements; only
        # candidate matches may violate the simulation condition.
        return [
            (v, u)
            for v in graph.nodes()
            for u in query.nodes()
            if graph.node_label(v) == query.node_label(u)
        ]

    # -- anchors (Example 6) ----------------------------------------------
    def order_key(self, key: Pair, value: bool, timestamp: int) -> float:
        # Paper convention: x.t = ∞ while true, the falsification tick once
        # false, -1 for never-matching variables (timestamp -1 covers both
        # conventions for false variables never written).
        if value:
            return math.inf
        return float(timestamp)

    def changed_input_keys(self, delta: Batch, graph_new: Graph, query: Graph) -> Iterable[Pair]:
        # Inserting/deleting graph edge (a, b) evolves Y_{x[a, u]} for every
        # label-matched pattern node u (≤ |ΔG|·|V_Q| seeds); label
        # mismatches read no inputs.  A vertex (re)inserted by ΔG may
        # carry a new label, so its pairs keep every u.  On undirected
        # data graphs both endpoints are tails.
        pattern_nodes = list(query.nodes())
        keys: Set[Pair] = {(v, u) for v in nodes_inserted(delta) for u in pattern_nodes}
        by_label: Dict[Any, list] = {}
        for u in pattern_nodes:
            by_label.setdefault(query.node_label(u), []).append(u)
        edges = edge_updates(delta)
        tails = {a for a, _b, _inserted in edges}
        if not graph_new.directed:
            tails.update(b for _a, b, _inserted in edges)
        has_node, label_of = graph_new.has_node, graph_new.node_label
        keys.update(
            (tail, u)
            for tail in tails
            if has_node(tail)
            for u in by_label.get(label_of(tail), ())
        )
        return keys

    def repair_seed_keys(self, delta, graph_new, query, state, old_weights):
        # Only insertions can resurrect matches (raise toward true), and
        # inserted edge (a, b) only a false, label-matched x[a, u] with a
        # pattern edge (u, u') whose L_Q(u') = L(b): b can witness nothing
        # else.  A vertex re-inserted with a new label keeps its live
        # pairs, so its false, now label-matched ones are seeds too.
        # Deletions retract matches via the resumed step function.
        values = state.values
        label_of = graph_new.node_label
        pattern_label = {u: query.node_label(u) for u in query.nodes()}
        keys: Set[Pair] = set()
        for v in nodes_inserted(delta, graph_new):
            label = label_of(v)
            for u, label_u in pattern_label.items():
                if label_u == label and not values.get((v, u), False):
                    keys.add((v, u))
        # label of b -> pattern nodes u with an out-neighbor of that label
        witnessed: Dict[Any, Set[Node]] = {}
        for u in pattern_label:
            for u_next in query.out_neighbors(u):
                witnessed.setdefault(pattern_label[u_next], set()).add(u)
        inserted_edges = [(a, b) for a, b, inserted in edge_updates(delta) if inserted]
        arcs = set(inserted_edges)
        if not graph_new.directed:
            arcs.update((b, a) for a, b in inserted_edges)
        has_node = graph_new.has_node
        for tail, head in arcs:
            if not (has_node(tail) and has_node(head)):
                continue
            witnesses = witnessed.get(label_of(head))
            if not witnesses:
                continue
            label = label_of(tail)
            for u in witnesses:
                if pattern_label[u] == label and not values.get((tail, u), False):
                    keys.add((tail, u))
        return keys

    def anchor_dependents(
        self,
        key: Pair,
        value_of: Callable[[Pair], bool],
        timestamp_of: Callable[[Pair], int],
        graph_new: Graph,
        query: Graph,
    ) -> Iterable[Pair]:
        # z = x[v', u'] with x[v, u] in its input set and a *later*
        # falsification: key's retraction may have caused z's.  Variables
        # still true are feasible and never need upward repair.
        v, u = key
        ts_key = timestamp_of(key)
        for v_prev in graph_new.in_neighbors(v):
            for u_prev in query.in_neighbors(u):
                z = (v_prev, u_prev)
                if not value_of(z) and timestamp_of(z) > ts_key:
                    yield z

    def new_variables(self, delta: Batch, graph_new: Graph, query: Graph) -> Iterable[Pair]:
        pattern_nodes = list(query.nodes())
        for v in nodes_inserted(delta, graph_new):
            for u in pattern_nodes:
                yield (v, u)

    def removed_variables(self, delta: Batch, graph_new: Graph, query: Graph) -> Iterable[Pair]:
        pattern_nodes = list(query.nodes())
        for v in nodes_removed(delta, graph_new):
            for u in pattern_nodes:
                yield (v, u)

    # -- extraction -------------------------------------------------------
    def extract(self, values: Dict[Hashable, bool], graph: Graph, query: Graph) -> Set[Pair]:
        """``Q(G)``: the maximum simulation relation as a set of pairs."""
        return {key for key, value in values.items() if value}


class Simfp(BatchAlgorithm):
    """The batch simulation algorithm ``Sim_fp`` (Section 5.1)."""

    def __init__(self) -> None:
        super().__init__(SimSpec())


class IncSim(IncrementalAlgorithm):
    """The weakly deducible incremental simulation algorithm (Example 6)."""

    def __init__(self) -> None:
        super().__init__(SimSpec())


def sim(graph: Graph, pattern: Graph) -> Set[Pair]:
    """One-shot batch graph simulation: the maximum relation ``Q(G)``."""
    return Simfp()(graph, pattern)
