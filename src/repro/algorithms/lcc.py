"""Local clustering coefficient (LCC) — Section 5.3 of the paper.

For each node ``v`` of an undirected graph, the local clustering
coefficient is

    ``γ_v = 2·λ_v / (d_v·(d_v − 1))``

where ``d_v`` is the degree and ``λ_v`` the number of triangles through
``v``.  Self-loops are ignored.  On a directed graph both are taken in
the underlying simple undirected graph: ``v``'s neighbors are its in- and
out-neighbors, a reciprocated pair ``u → v``, ``v → u`` is one edge, and
``d_v`` is the size of that neighbor set.

Cost of one recount
-------------------
``λ_v`` intersects ``N(v) ∖ {v}`` with ``N(u)`` for each neighbor ``u``
(:meth:`~repro.graph.Graph.neighbor_set`): ``deg(v)`` interpreter steps,
each a C-level set intersection that walks the smaller side.  ``d_v`` is
O(1) on an undirected graph.  The batch run pays this once per node; an
incremental apply pays none of it (see below): one edge update costs one
intersection ``N(u) ∩ N(v)`` plus one increment per common neighbor.

Batch algorithm (LCC_fp)
------------------------
Two status variables per node — ``('d', v)`` and ``('λ', v)`` — whose
update functions read the graph directly (their input sets are adjacency
lists, not other status variables), so the step function simply sweeps
the scope once.  LCC is *not* contracting: insertions raise degrees and
triangle counts.  Its incrementalization therefore relies on Theorem 1
(deducible, PE-variable recomputation), not on Theorem 3.

Incremental algorithm (IncLCC, Example 8)
------------------------------------------
*Deducible*, no auxiliary structures.  For each updated edge ``(u, v)``
the PE variables are ``d_u``, ``d_v``, and ``λ_w`` for every ``w`` within
one hop of ``u`` or ``v``; Example 8 recomputes them all.  IncLCC keeps
the same PE set but derives the new values instead of recounting them —
DynLCC's rule, as :meth:`LCCSpec.derivative`: with ``C = N(u) ∩ N(v) ∖
{u, v}`` on the graph with the edge applied, an insertion (deletion)
moves ``d_u`` and ``d_v`` by ±1, ``λ_u`` and ``λ_v`` by ±|C|, and
``λ_w`` by ±1 for each ``w ∈ C``.  ``IncrementalAlgorithm.apply``
applies the expanded ``ΔG`` one op at a time and the derivative adds
each op's increments into one dict, so a triangle closed by two or
three new edges is counted once, by the last of them (see
``docs/theory.md``); no step function runs, and
``H⁰`` is exactly the variables whose values changed, plus those of
inserted nodes.  On a directed graph an arc whose reverse arc exists
changes no adjacency, and a self-loop changes nothing.

>>> from repro.graph import from_edges
>>> g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
>>> lcc(g)[2]
0.3333333333333333
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Set, Tuple

from ..core.incremental import BatchAlgorithm, IncrementalAlgorithm
from ..core.spec import FixpointSpec
from ..graph.graph import Graph, Node
from ..graph.updates import Batch, EdgeDeletion, EdgeInsertion, Update
from ._common import edge_updates, nodes_inserted, nodes_removed

Key = Tuple[str, Node]

D = "d"
LAMBDA = "λ"


def _triangles_at(graph: Graph, v: Node) -> int:
    """Number of triangles through ``v`` (self-loops ignored)."""
    nbrs = graph.neighbor_set(v) - {v}
    count = 0
    for u in nbrs:
        # N(v)∖{v} ∩ N(u) holds u itself iff u has a self-loop.
        nu = graph.neighbor_set(u)
        count += len(nbrs & nu) - (u in nu)
    # Each triangle (v, u, w) is seen twice: from u and from w.
    return count // 2


class LCCSpec(FixpointSpec):
    """Fixpoint spec for LCC.  The query is unused."""

    name = "LCC"
    order = None  # not contracting: Theorem 1 territory
    uses_timestamps = False
    # Update functions read the graph only: there is nothing for the
    # Figure-4 repair loop to do, and IncLCC derives its PE variables
    # through ``derivative`` rather than recomputing them.
    repair_with_scope_function = False

    # -- model ----------------------------------------------------------
    def variables(self, graph: Graph, query: Any) -> Iterable[Key]:
        for v in graph.nodes():
            yield (D, v)
            yield (LAMBDA, v)

    def initial_value(self, key: Key, graph: Graph, query: Any) -> int:
        return 0

    def update(self, key: Key, value_of, graph: Graph, query: Any) -> int:
        kind, v = key
        if kind == D:
            # Degree in the underlying simple graph, as λ counts: a
            # self-loop is no neighbor, a reciprocated pair one neighbor.
            nbrs = graph.neighbor_set(v)
            return len(nbrs) - (v in nbrs)
        return _triangles_at(graph, v)

    def dependents(self, key: Key, graph: Graph, query: Any) -> Iterable[Key]:
        # Input sets are adjacency lists, not status variables: value
        # changes never propagate through the scope.
        return ()

    def input_keys(self, key: Key, graph: Graph, query: Any) -> Iterable[Key]:
        # Update functions read the graph only — Y is empty.
        return ()

    # -- PE variables (Example 8) -----------------------------------------
    def changed_input_keys(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Key]:
        # The PE variables of Example 8, tightened to the variables whose
        # values actually change: d and λ of the endpoints, plus λ of the
        # triangles' third vertices — the *common* neighbors of u and v.
        # (The common neighborhood in G ⊕ ΔG identifies the affected third
        # vertices for deletions too: removing (u, v) keeps w adjacent to
        # both endpoints.)
        keys: Set[Key] = set()
        for u, v, _inserted in edge_updates(delta):
            for x in (u, v):
                keys.add((D, x))
                keys.add((LAMBDA, x))
            if graph_new.has_node(u) and graph_new.has_node(v):
                common = graph_new.neighbor_set(u) & graph_new.neighbor_set(v)
                keys.update((LAMBDA, w) for w in common if w != u and w != v)
        return keys

    def anchor_dependents(
        self,
        key: Key,
        value_of: Callable[[Key], int],
        timestamp_of: Callable[[Key], int],
        graph_new: Graph,
        query: Any,
    ) -> Iterable[Key]:
        # No status-variable dependencies: repairs never cascade.
        return ()

    def derivative(
        self, update: Update, graph_new: Graph, query: Any, increments: Dict[Key, int]
    ) -> None:
        # DynLCC's rule in the underlying simple graph: only an op that
        # makes or breaks the adjacency of two distinct nodes counts.
        kind = type(update)
        if kind is EdgeInsertion:
            sign = 1
        elif kind is EdgeDeletion:
            sign = -1
        else:
            return  # bare vertex ops: apply seeds and retires
        u, v = update.u, update.v
        if u == v:
            return
        if graph_new.directed:
            if graph_new.has_edge(v, u):
                return
            common = graph_new.neighbor_set(u) & graph_new.neighbor_set(v)
        else:
            succ = graph_new._succ
            common = succ[u].keys() & succ[v].keys()
        common.discard(u)
        common.discard(v)
        get = increments.get
        key = (D, u)
        increments[key] = get(key, 0) + sign
        key = (D, v)
        increments[key] = get(key, 0) + sign
        if common:
            triangles = sign * len(common)
            key = (LAMBDA, u)
            increments[key] = get(key, 0) + triangles
            key = (LAMBDA, v)
            increments[key] = get(key, 0) + triangles
            for w in common:
                key = (LAMBDA, w)
                increments[key] = get(key, 0) + sign

    def new_variables(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Key]:
        for v in nodes_inserted(delta, graph_new):
            yield (D, v)
            yield (LAMBDA, v)

    def removed_variables(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Key]:
        for v in nodes_removed(delta, graph_new):
            yield (D, v)
            yield (LAMBDA, v)

    # -- extraction -------------------------------------------------------
    def extract(self, values: Dict[Hashable, int], graph: Graph, query: Any) -> Dict[Node, float]:
        """``Q(G)``: the coefficient map {node: γ_v} (0.0 when d_v < 2)."""
        result: Dict[Node, float] = {}
        for key, value in values.items():
            kind, v = key
            if kind != D:
                continue
            degree = value
            if degree < 2:
                result[v] = 0.0
            else:
                result[v] = 2.0 * values[(LAMBDA, v)] / (degree * (degree - 1))
        return result


class LCCfp(BatchAlgorithm):
    """The batch LCC algorithm ``LCC_fp`` (Section 5.3)."""

    def __init__(self) -> None:
        super().__init__(LCCSpec())


class IncLCC(IncrementalAlgorithm):
    """The deducible incremental LCC algorithm (Example 8)."""

    def __init__(self) -> None:
        super().__init__(LCCSpec())


def lcc(graph: Graph) -> Dict[Node, float]:
    """One-shot batch LCC: {node: local clustering coefficient}."""
    return LCCfp()(graph)
