"""Shared helpers for the algorithm specs.

Specs receive update batches already *expanded* by the incremental driver
(:meth:`repro.graph.updates.Batch.expanded`): vertex deletions arrive as
explicit deletions of their incident edges followed by a bare
``VertexDeletion``, and vertex insertions as a bare ``VertexInsertion``
followed by explicit ``EdgeInsertion``s.  The helpers below iterate the
pieces each spec cares about.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Set, Tuple

from ..graph.graph import Node
from ..graph.updates import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    VertexDeletion,
    VertexInsertion,
)


def edge_updates(delta: Batch) -> Iterator[Tuple[Node, Node, bool]]:
    """Yield ``(u, v, inserted)`` for every edge-level update in ``ΔG``."""
    for update in delta:
        if isinstance(update, EdgeInsertion):
            yield (update.u, update.v, True)
        elif isinstance(update, EdgeDeletion):
            yield (update.u, update.v, False)
        elif isinstance(update, VertexInsertion):
            for e in update.edges:
                yield (e.u, e.v, True)


def lost_anchor_heads(
    delta: Batch,
    both_ways: bool,
    old_weights: Dict[Tuple[Node, Node], float],
    supported: Callable[[Node, Node, float], bool],
) -> Set[Node]:
    """Heads of deleted edges that lost an anchor (Figure 4's repair seeds).

    For each edge deletion ``(t, h)`` of ``ΔG`` — and ``(h, t)`` when
    ``both_ways`` — keep ``h`` if ``supported(t, h, w)`` holds: the spec's
    local test, on the old values, that the edge of old weight ``w`` was
    one of ``h``'s anchors.  For an edge missing from
    ``old_weights`` (``G`` lacked it) every head is kept.
    """
    heads: Set[Node] = set()
    for update in delta:
        if not isinstance(update, EdgeDeletion):
            continue
        u, v = update.u, update.v
        w = old_weights.get((u, v))
        for t, h in ((u, v), (v, u)) if both_ways else ((u, v),):
            if w is None or supported(t, h, w):
                heads.add(h)
    return heads


def nodes_inserted(delta: Batch, graph_new=None) -> Iterator[Node]:
    """Nodes inserted by ``ΔG`` and still present in ``G ⊕ ΔG``.

    Passing ``graph_new`` filters out insert-then-delete churn within the
    batch (the net effect is what status variables must reflect).
    """
    for update in delta:
        if isinstance(update, VertexInsertion):
            if graph_new is None or graph_new.has_node(update.v):
                yield update.v


def nodes_removed(delta: Batch, graph_new=None) -> Iterator[Node]:
    """Nodes deleted by ``ΔG`` and absent from ``G ⊕ ΔG``."""
    for update in delta:
        if isinstance(update, VertexDeletion):
            if graph_new is None or not graph_new.has_node(update.v):
                yield update.v
