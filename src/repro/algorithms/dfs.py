"""Depth-first search (DFS) — Section 5.2 of the paper.

Batch algorithm (DFS_fp)
------------------------
Every node ``v`` carries a status variable ``x_v = [v.first, v.last]``,
the discovery/finish interval of the DFS traversal, initialized to
``[∞, ∞]``.  A virtual root ``r`` is connected to every node, and the
traversal is made *canonical* (deterministic): the root considers nodes
in ascending id order, and every node scans its (out-)neighbors in
ascending id order.  Each node's interval is a strict subinterval of its
parent's, so DFS_fp is contracting and monotonic under the interval
order ``x_v ⪯ x_u ⟺ v.last ≤ u.first`` (Section 5.2).  The invariant is
the classic "no forward-cross edge": no edge ``(v', v)`` with
``v'.last < v.first``.

Incremental algorithm (IncDFS, Example 7)
------------------------------------------
*Deducible*: the anchor set of ``x_v`` is its parent interval, and the
order ``<_C`` is the order of the ``first`` values — both read directly
off the fixpoint, no timestamps.  The scope function computes, for every
update, the earliest traversal moment it can influence:

* deleting a non-tree edge never changes the traversal (``∞``);
* deleting the tree edge to ``v`` takes effect at ``v.first``;
* inserting ``(u, v)`` takes effect at the *consideration slot* of ``v``
  in ``u``'s canonical neighbor scan — and not at all if ``v`` was
  already discovered by then;
* vertex insertions/deletions take effect at their root-scan slot /
  ``first`` time.

Everything strictly before ``f* = min`` of these moments is provably
identical in the old and new canonical traversals, so IncDFS keeps that
prefix — all completed subtrees and the active path at ``f*`` — and
resumes the traversal from ``f*`` on the updated graph.  The variables it
recomputes are exactly those whose intervals or parents may change,
matching the paper's observation that small updates to early traversal
regions still affect a large suffix (Exp-2(1e): IncDFS loses to the
batch run beyond ``|ΔG| ≈ 4%``).

Node ids must be mutually orderable (the canonical traversal sorts them).

>>> from repro.graph import from_edges
>>> g = from_edges([(0, 1), (1, 2)], directed=True)
>>> result = dfs(g)
>>> result.first[0], result.last[2]
(0, 3)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..errors import IncrementalizationError
from ..graph.graph import Graph, Node
from ..graph.updates import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    VertexDeletion,
    VertexInsertion,
    apply_updates,
)
from ..core.incremental import IncrementalResult
from ..core.state import FixpointState
from ..metrics.counters import AccessCounter, NullCounter

INF = math.inf

PARENT = "p"  # state key prefix for the parent component of S_A


@dataclass
class DFSResult:
    """The DFS tree: discovery/finish numbers and parents.

    ``parent[v] is None`` means ``v`` hangs off the virtual root.
    """

    first: Dict[Node, int] = field(default_factory=dict)
    last: Dict[Node, int] = field(default_factory=dict)
    parent: Dict[Node, Optional[Node]] = field(default_factory=dict)

    def preorder(self) -> List[Node]:
        """Nodes in discovery order."""
        return sorted(self.first, key=self.first.get)

    def tree_edges(self) -> Iterator[Tuple[Node, Node]]:
        for v, p in self.parent.items():
            if p is not None:
                yield (p, v)

    def is_ancestor(self, a: Node, b: Node) -> bool:
        """Whether ``a`` is an ancestor of ``b`` in the DFS tree."""
        return self.first[a] <= self.first[b] and self.last[b] <= self.last[a]

    def classify_edge(self, u: Node, v: Node) -> str:
        """The DFS type of directed edge ``(u, v)``.

        ``'tree/forward'`` (v inside u's interval), ``'back'`` (v an
        ancestor of u — witnesses a cycle), or ``'cross'`` (v finished
        before u started).
        """
        if self.is_ancestor(u, v):
            return "tree/forward"
        if self.is_ancestor(v, u):
            return "back"
        return "cross"


def has_cycle(graph: Graph, result: Optional[DFSResult] = None) -> bool:
    """Whether a directed graph contains a cycle (a DFS back edge).

    >>> from repro.graph import from_edges
    >>> has_cycle(from_edges([(0, 1), (1, 2)], directed=True))
    False
    >>> has_cycle(from_edges([(0, 1), (1, 0)], directed=True))
    True
    """
    if not graph.directed:
        raise IncrementalizationError("cycle classification requires a directed graph")
    if result is None:
        result = dfs(graph)
    return any(
        u != v and result.classify_edge(u, v) == "back" for u, v in graph.edges()
    ) or any(u == v for u, v in graph.edges())


def topological_order(graph: Graph, result: Optional[DFSResult] = None):
    """Nodes in topological order (reverse DFS finish order).

    Raises :class:`~repro.errors.IncrementalizationError` if the graph is
    cyclic.  Combined with :class:`IncDFS`, this keeps a topological
    order of a DAG maintained incrementally.

    >>> from repro.graph import from_edges
    >>> topological_order(from_edges([(0, 2), (2, 1)], directed=True))
    [0, 2, 1]
    """
    if result is None:
        result = dfs(graph)
    if has_cycle(graph, result):
        raise IncrementalizationError("graph is cyclic: no topological order exists")
    return sorted(result.last, key=result.last.get, reverse=True)


def _scan_neighbors(graph: Graph, v: Node) -> List[Node]:
    """The canonical neighbor scan order of ``v``."""
    if graph.directed:
        return sorted(graph.out_neighbors(v))
    return sorted(graph.neighbors(v))


def _continue_traversal(
    graph: Graph,
    first: Dict[Node, int],
    last: Dict[Node, int],
    parent: Dict[Node, Optional[Node]],
    discovered: Set[Node],
    clock: int,
    stack: List[Tuple[Node, Iterator[Node]]],
    counter: AccessCounter,
) -> int:
    """Run the canonical DFS to completion from a primed traversal state.

    ``stack`` holds the active path (deepest node last), each with a fresh
    neighbor iterator — already-considered neighbors are in ``discovered``
    and are skipped, which reproduces the canonical run exactly.  Returns
    the final clock.
    """
    roots = iter(sorted(graph.nodes()))
    while True:
        while stack:
            v, neighbors = stack[-1]
            advanced = False
            for w in neighbors:
                counter.on_read(w)
                if w not in discovered:
                    counter.on_eval(w)
                    first[w] = clock
                    clock += 1
                    parent[w] = v
                    discovered.add(w)
                    stack.append((w, iter(_scan_neighbors(graph, w))))
                    advanced = True
                    break
            if not advanced:
                last[v] = clock
                clock += 1
                counter.on_write(v)
                stack.pop()
        started = False
        for r in roots:
            counter.on_read(r)
            if r not in discovered:
                counter.on_eval(r)
                first[r] = clock
                clock += 1
                parent[r] = None
                discovered.add(r)
                stack.append((r, iter(_scan_neighbors(graph, r))))
                started = True
                break
        if not started:
            return clock


class DFSfp:
    """The batch DFS algorithm ``DFS_fp`` (Section 5.2).

    API-compatible with :class:`~repro.core.incremental.BatchAlgorithm`:
    :meth:`run` returns a :class:`FixpointState` whose values are the
    interval variables ``v → (first, last)`` plus parent entries
    ``('p', v) → parent``.
    """

    name = "DFS"

    def run(self, graph: Graph, query: Any = None, counter: AccessCounter = None) -> FixpointState:
        state = FixpointState(counter=counter)
        first: Dict[Node, int] = {}
        last: Dict[Node, int] = {}
        parent: Dict[Node, Optional[Node]] = {}
        _continue_traversal(
            graph, first, last, parent, set(), 0, [], state.counter
        )
        for v in first:
            state.seed(v, (first[v], last[v]))
            state.seed((PARENT, v), parent[v])
        return state

    def answer(self, state: FixpointState, graph: Graph = None, query: Any = None) -> DFSResult:
        result = DFSResult()
        for key, value in state.values.items():
            if isinstance(key, tuple) and len(key) == 2 and key[0] == PARENT:
                result.parent[key[1]] = value
            else:
                result.first[key] = value[0]
                result.last[key] = value[1]
        return result

    def __call__(self, graph: Graph, query: Any = None) -> DFSResult:
        return self.answer(self.run(graph, query))


def dfs(graph: Graph) -> DFSResult:
    """One-shot canonical batch DFS."""
    return DFSfp()(graph)


class IncDFS:
    """The deducible incremental DFS algorithm (Example 7).

    API-compatible with :class:`~repro.core.incremental.IncrementalAlgorithm`:
    :meth:`apply` mutates ``graph`` to ``G ⊕ ΔG`` and ``state`` to the new
    fixpoint, returning the output changes ``ΔO``.
    """

    name = "IncDFS"
    deducible = True

    # ------------------------------------------------------------------
    # Effect-time analysis (the scope function h)
    # ------------------------------------------------------------------
    def _consideration_slot(
        self,
        graph: Graph,
        state: FixpointState,
        u: Node,
        v: Node,
        counter: AccessCounter,
    ) -> float:
        """When ``u``'s canonical scan reaches the slot of neighbor ``v``.

        Walks ``u``'s *old* neighbor list: skipped neighbors consume no
        time, tree children advance the clock past their subtree.
        """
        if u not in state.values:
            return INF  # u itself is new; its scan lies in the recomputed suffix
        counter.on_read(u)
        slot = state.values[u][0] + 1  # first consideration right after discovery
        for w in _scan_neighbors(graph, u):
            if not (w < v):
                break
            counter.on_read(w)
            if state.values.get((PARENT, w)) == u:
                slot = state.values[w][1] + 1
        return slot

    def _root_slot(self, graph: Graph, state: FixpointState, v: Node, counter: AccessCounter) -> float:
        """When the virtual root's scan reaches the slot of new node ``v``."""
        slot = 0
        for c in sorted(graph.nodes()):
            if not (c < v):
                break
            counter.on_read(c)
            if state.values.get((PARENT, c), "missing") is None:
                slot = state.values[c][1] + 1
        return slot

    def _insertion_effect(
        self, graph: Graph, state: FixpointState, u: Node, v: Node, counter: AccessCounter
    ) -> float:
        """Earliest effect of inserting edge ``(u, v)`` (directed sense)."""
        slot = self._consideration_slot(graph, state, u, v, counter)
        if slot == INF:
            return INF
        v_first = state.values[v][0] if v in state.values else INF
        if v_first < slot:
            return INF  # v already discovered when considered: edge is skipped
        return slot

    def _effect_time(
        self, graph: Graph, state: FixpointState, update, counter: AccessCounter
    ) -> float:
        if isinstance(update, EdgeDeletion):
            u, v = update.u, update.v
            counter.on_eval((u, v))
            best = INF
            if state.values.get((PARENT, v), "missing") == u and v in state.values:
                best = state.values[v][0]
            if not graph.directed and state.values.get((PARENT, u), "missing") == v and u in state.values:
                best = min(best, state.values[u][0])
            return best
        if isinstance(update, EdgeInsertion):
            u, v = update.u, update.v
            counter.on_eval((u, v))
            best = self._insertion_effect(graph, state, u, v, counter)
            if not graph.directed:
                best = min(best, self._insertion_effect(graph, state, v, u, counter))
            return best
        if isinstance(update, VertexDeletion):
            counter.on_eval(update.v)
            if update.v in state.values:
                return state.values[update.v][0]
            return INF
        if isinstance(update, VertexInsertion):
            counter.on_eval(update.v)
            return self._root_slot(graph, state, update.v, counter)
        return INF

    # ------------------------------------------------------------------
    def apply(
        self,
        graph: Graph,
        state: FixpointState,
        delta: Batch,
        query: Any = None,
        trace: bool = False,
        measure: bool = False,
    ) -> IncrementalResult:
        """Apply ``ΔG``; mutate ``graph`` and ``state``; return ``ΔO``."""
        if not isinstance(delta, Batch):
            delta = Batch(list(delta))
        if not state.values:
            raise IncrementalizationError(
                "incremental run started from an empty state; run DFS_fp first"
            )
        counting = measure or trace
        result = IncrementalResult(
            h_counter=AccessCounter(trace=trace) if counting else NullCounter(),
            engine_counter=AccessCounter(trace=trace) if counting else NullCounter(),
        )
        delta = delta.expanded(graph)

        # Scope function: earliest effect time f* over all unit updates,
        # computed against the old graph and old fixpoint.
        f_star = INF
        for update in delta:
            f_star = min(f_star, self._effect_time(graph, state, update, result.h_counter))

        apply_updates(graph, delta)

        removed = {u.v for u in delta if isinstance(u, VertexDeletion)}
        if f_star == INF:
            # No unit update can alter the canonical traversal.
            for v in removed:  # pragma: no cover - removal implies finite f*
                state.drop(v)
                state.drop((PARENT, v))
            return result

        # Reconstruct the traversal state at time f*.
        first: Dict[Node, int] = {}
        last: Dict[Node, int] = {}
        parent: Dict[Node, Optional[Node]] = {}
        discovered: Set[Node] = set()
        active: List[Node] = []
        for key, value in state.values.items():
            if isinstance(key, tuple) and len(key) == 2 and key[0] == PARENT:
                continue
            v = key
            if v in removed or not graph.has_node(v):
                continue
            v_first, v_last = value
            if v_first < f_star:
                discovered.add(v)
                first[v] = v_first
                parent[v] = state.values.get((PARENT, v))
                if v_last < f_star:
                    last[v] = v_last
                else:
                    active.append(v)

        active.sort(key=first.get)
        stack = [(v, iter(_scan_neighbors(graph, v))) for v in active]

        _continue_traversal(
            graph, first, last, parent, discovered, f_star, stack, result.engine_counter
        )

        # Write back, recording ΔO against the pre-apply values: a node
        # deleted and re-inserted by this batch changes, it is not created.
        # ``None`` marks a missing side, so a root's parent never enters ΔO
        # on its own.
        # The dicts are written directly, so an armed undo log is fed
        # here; an unchanged variable is not rewritten and not logged.
        values = state.values
        retired: Dict[Any, Any] = {}
        for v in removed:
            for key in (v, (PARENT, v)):
                state.touch(key)
                retired[key] = values.pop(key, None)
                state.timestamps.pop(key, None)
        for v in first:
            for key, new in ((v, (first[v], last[v])), ((PARENT, v), parent[v])):
                old = retired.pop(key) if key in retired else values.get(key)
                if old != new:
                    result.changes[key] = (old, new)
                    result.scope.add(v)
                elif key in values:
                    continue
                state.touch(key)
                values[key] = new
        for key, old in retired.items():
            if old is not None:
                result.changes[key] = (old, None)
        return result
