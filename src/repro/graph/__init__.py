"""Graph substrate: mutable graphs, updates ΔG, temporal streams, I/O."""

from .graph import DEFAULT_WEIGHT, Edge, Graph, Node, from_edges
from .temporal import EdgeEvent, TemporalGraph
from .updates import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    ExpandedBatch,
    Update,
    VertexDeletion,
    VertexInsertion,
    apply_updates,
    updated_copy,
)

__all__ = [
    "Batch",
    "DEFAULT_WEIGHT",
    "Edge",
    "EdgeDeletion",
    "EdgeEvent",
    "EdgeInsertion",
    "ExpandedBatch",
    "Graph",
    "Node",
    "TemporalGraph",
    "Update",
    "VertexDeletion",
    "VertexInsertion",
    "apply_updates",
    "from_edges",
    "updated_copy",
]
