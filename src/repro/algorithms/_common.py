"""Shared helpers for the algorithm specs.

Specs receive update batches already *expanded* by the incremental apply:
vertex deletions arrive as explicit deletions of their incident edges
followed by a bare ``VertexDeletion``, and vertex insertions as a bare
``VertexInsertion`` followed by explicit ``EdgeInsertion``s.  Both engines
pass the :class:`~repro.graph.updates.ExpandedBatch` their one
``apply_updates`` pass recorded, whose flat ``edges`` and ``vertices``
lists the helpers below return as they are; any other batch is walked
op by op.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set, Tuple

from ..graph.graph import Node
from ..graph.updates import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    ExpandedBatch,
    VertexDeletion,
    VertexInsertion,
)


def edge_updates(delta: Batch) -> List[Tuple[Node, Node, bool]]:
    """``(u, v, inserted)`` for every edge-level update in ``ΔG``, in order."""
    if isinstance(delta, ExpandedBatch):
        return delta.edges
    edges = []
    for update in delta:
        if isinstance(update, EdgeInsertion):
            edges.append((update.u, update.v, True))
        elif isinstance(update, EdgeDeletion):
            edges.append((update.u, update.v, False))
        elif isinstance(update, VertexInsertion):
            edges.extend((e.u, e.v, True) for e in update.edges)
    return edges


def vertex_updates(delta: Batch) -> List[Tuple[Node, bool]]:
    """``(v, inserted)`` for every vertex update in ``ΔG``, in order."""
    if isinstance(delta, ExpandedBatch):
        return delta.vertices
    return [
        (update.v, isinstance(update, VertexInsertion))
        for update in delta
        if isinstance(update, (VertexInsertion, VertexDeletion))
    ]


def edge_heads(delta: Batch, both_ways: bool) -> Set[Node]:
    """Heads of every edge op in ``ΔG``, plus the tails when ``both_ways``:
    the variables of node-keyed specs whose input sets evolved."""
    edges = edge_updates(delta)
    keys = {v for _u, v, _inserted in edges}
    if both_ways:
        keys.update(u for u, _v, _inserted in edges)
    return keys


def inserted_arcs(delta: Batch, graph_new, both_ways: bool) -> List[Tuple[Node, Node]]:
    """``(cause, dep)`` for every edge ``ΔG`` inserted that ``G ⊕ ΔG``
    still has, and ``(dep, cause)`` too when ``both_ways``: the per-edge
    relaxations of :meth:`~repro.core.spec.FixpointSpec.relaxation_pairs`."""
    has_edge = graph_new.has_edge
    pairs = []
    for u, v, inserted in edge_updates(delta):
        if inserted and has_edge(u, v):
            pairs.append((u, v))
            if both_ways:
                pairs.append((v, u))
    return pairs


def lost_anchor_heads(
    delta: Batch,
    graph_new,
    both_ways: bool,
    old_weights: Dict[Tuple[Node, Node], float],
    supported: Callable[[Node, Node, float], bool],
) -> Set[Node]:
    """Heads of deleted edges that lost an anchor (Figure 4's repair seeds).

    For each edge deletion ``(t, h)`` of ``ΔG`` — and ``(h, t)`` when
    ``both_ways`` — keep ``h`` if ``supported(t, h, w)`` holds: the spec's
    local test, on the old values, that the edge of old weight ``w`` was
    one of ``h``'s anchors.  For an edge missing from
    ``old_weights`` (``G`` lacked it) every head is kept.  A deletion
    whose edge ``G ⊕ ΔG`` holds again at its old weight (``ΔG`` deleted
    and re-inserted it) lost no anchor and keeps no head.
    """
    succ = graph_new._succ
    heads: Set[Node] = set()
    for u, v, inserted in edge_updates(delta):
        if inserted:
            continue
        w = old_weights.get((u, v))
        if w is not None and u in succ and succ[u].get(v) == w:
            continue  # flapped back to its old weight
        if w is None or supported(u, v, w):
            heads.add(v)
        if both_ways and (w is None or supported(v, u, w)):
            heads.add(u)
    return heads


def nodes_inserted(delta: Batch, graph_new=None) -> Iterable[Node]:
    """Nodes inserted by ``ΔG`` and still present in ``G ⊕ ΔG``.

    Passing ``graph_new`` filters out insert-then-delete churn within the
    batch (the net effect is what status variables must reflect).
    """
    return [
        v
        for v, inserted in vertex_updates(delta)
        if inserted and (graph_new is None or graph_new.has_node(v))
    ]


def nodes_removed(delta: Batch, graph_new=None) -> Iterable[Node]:
    """Nodes deleted by ``ΔG`` and absent from ``G ⊕ ΔG``."""
    return [
        v
        for v, inserted in vertex_updates(delta)
        if not inserted and (graph_new is None or not graph_new.has_node(v))
    ]
