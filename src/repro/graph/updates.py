"""The update model ``ΔG``.

Section 2 of the paper works with *unit updates* — single edge insertions
or deletions — and *batch updates*, which are sequences of unit updates.
Section 4 ("Vertex updates") extends the model to node insertions and
deletions: removing a node is removing its incident edges, and inserting
a node introduces fresh status variables.

This module provides:

* the four unit-update types (:class:`EdgeInsertion`, :class:`EdgeDeletion`,
  :class:`VertexInsertion`, :class:`VertexDeletion`),
* :class:`Batch` — an ordered sequence of unit updates with apply / invert /
  normalize operations, and
* :func:`apply_updates` / :func:`updated_copy` implementing ``G ⊕ ΔG``
  in one pass that can also return the expanded batch, with flat edge
  and vertex views and the ``G``-side weights of the edges it deleted
  (:class:`ExpandedBatch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from ..errors import UpdateError
from .graph import DEFAULT_WEIGHT, Graph, Node


@dataclass(frozen=True)
class EdgeInsertion:
    """Insert edge ``(u, v)`` with the given weight and optional label."""

    u: Node
    v: Node
    weight: float = DEFAULT_WEIGHT
    label: Any = None

    def inverted(self) -> "EdgeDeletion":
        return EdgeDeletion(self.u, self.v)

    def touched(self) -> Tuple[Node, Node]:
        return (self.u, self.v)


@dataclass(frozen=True)
class EdgeDeletion:
    """Delete edge ``(u, v)``."""

    u: Node
    v: Node

    def inverted(self) -> EdgeInsertion:
        return EdgeInsertion(self.u, self.v)

    def touched(self) -> Tuple[Node, Node]:
        return (self.u, self.v)


@dataclass(frozen=True)
class VertexInsertion:
    """Insert node ``v``, optionally with adjacent edges.

    Per Section 4 of the paper, a vertex insertion carries its adjacent
    edges (with a dummy edge assumed when none are given), so the scope
    function can seed new status variables.
    """

    v: Node
    label: Any = None
    edges: Tuple[EdgeInsertion, ...] = ()

    def inverted(self) -> "VertexDeletion":
        return VertexDeletion(self.v)

    def touched(self) -> Tuple[Node, ...]:
        nodes: List[Node] = [self.v]
        for e in self.edges:
            nodes.extend(e.touched())
        return tuple(nodes)


@dataclass(frozen=True)
class VertexDeletion:
    """Delete node ``v`` together with all its incident edges."""

    v: Node

    def touched(self) -> Tuple[Node]:
        return (self.v,)


Update = Union[EdgeInsertion, EdgeDeletion, VertexInsertion, VertexDeletion]


@dataclass
class Batch:
    """A batch update ``ΔG``: an ordered sequence of unit updates.

    ``Batch`` objects are what every incremental algorithm in this library
    consumes.  A unit update is just a batch of size one.

    >>> delta = Batch([EdgeInsertion(0, 1), EdgeDeletion(2, 3)])
    >>> delta.size
    2
    """

    updates: List[Update] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.updates = list(self.updates)

    # -- collection protocol -------------------------------------------
    def __iter__(self) -> Iterator[Update]:
        return iter(self.updates)

    def __len__(self) -> int:
        return len(self.updates)

    def __getitem__(self, i: int) -> Update:
        return self.updates[i]

    def append(self, update: Update) -> None:
        self.updates.append(update)

    def extend(self, updates: Iterable[Update]) -> None:
        self.updates.extend(updates)

    @property
    def size(self) -> int:
        """``|ΔG|`` — the number of unit updates."""
        return len(self.updates)

    # -- analysis -------------------------------------------------------
    def insertions(self) -> "Batch":
        return Batch([u for u in self.updates if isinstance(u, (EdgeInsertion, VertexInsertion))])

    def deletions(self) -> "Batch":
        return Batch([u for u in self.updates if isinstance(u, (EdgeDeletion, VertexDeletion))])

    def touched_nodes(self) -> Set[Node]:
        """All nodes covered by ``ΔG`` — the seeds of the affected area."""
        nodes: Set[Node] = set()
        for u in self.updates:
            nodes.update(u.touched())
        return nodes

    def unit_batches(self) -> Iterator["Batch"]:
        """Split into unit updates, for the ``IncX_n`` one-by-one variants."""
        for u in self.updates:
            yield Batch([u])

    # -- algebra ----------------------------------------------------------
    def inverted(self) -> "Batch":
        """The batch undoing this one, applied in reverse order.

        Vertex deletions are not invertible (the incident edges are lost),
        so inverting a batch containing one raises :class:`UpdateError`.
        """
        inverse: List[Update] = []
        for u in reversed(self.updates):
            if isinstance(u, VertexDeletion):
                raise UpdateError("a VertexDeletion cannot be inverted: incident edges are lost")
            inverse.append(u.inverted())
        return Batch(inverse)

    def normalized(self, directed: bool = True) -> "Batch":
        """Reduce a strictly consistent batch to its *net* effect per edge.

        A batch may insert and later delete the same edge (or vice versa);
        the normalized batch keeps only what the final graph — and hence
        the affected area — ultimately depends on.  Pass ``directed=False``
        so that ``(u, v)`` and ``(v, u)`` are treated as the same
        undirected edge.  Vertex updates are passed through untouched
        (after the edge updates), so batches mixing vertex updates with
        edge updates on the same endpoints should not be normalized.

        The first op on an edge tells its pre-batch presence (strict
        consistency: a deletion requires the edge, an insertion forbids
        it), so an insert-then-delete cancels.  The original weight is
        unknowable, so a delete-then-reinsert keeps the
        ``[deletion, insertion]`` pair: cancelling it would silently drop
        a weight change.  A_Δ takes any valid ``ΔG`` as it is; this is
        for a hand-written algorithm that reorders a batch (IncCoreness
        applies its deletions ahead of its insertions).
        """

        def edge_key(a, b):
            if directed:
                return (a, b)
            try:
                return (a, b) if a <= b else (b, a)
            except TypeError:
                return (a, b) if repr(a) <= repr(b) else (b, a)

        ops_of: dict = {}
        order: List[object] = []
        passthrough: List[Update] = []
        for u in self.updates:
            if isinstance(u, (VertexInsertion, VertexDeletion)):
                passthrough.append(u)
                continue
            key = edge_key(u.u, u.v)
            if key not in ops_of:
                order.append(key)
                ops_of[key] = [u]
            else:
                ops_of[key].append(u)

        result: List[Update] = []
        for key in order:
            ops = ops_of[key]
            first = ops[0]
            existed = isinstance(first, EdgeDeletion)
            # Replay the op sequence as ``apply_updates(strict=False)``
            # would: a deletion of an absent edge and an insertion over a
            # present edge are both skipped.
            present = existed
            effective_ins: Optional[EdgeInsertion] = None
            last_del: Optional[EdgeDeletion] = None
            for op in ops:
                if isinstance(op, EdgeDeletion):
                    if present:
                        present = False
                        effective_ins = None
                        last_del = op
                elif not present:
                    present = True
                    effective_ins = op
            if not present:
                if existed:
                    result.append(last_del)
                # else: never present before, absent after — net nothing.
            elif not existed:
                result.append(effective_ins)
            else:
                # The edge survives a delete-then-reinsert whose weight or
                # label may differ from the pre-batch edge: net effect is
                # delete + reinsert.
                result.append(EdgeDeletion(effective_ins.u, effective_ins.v))
                result.append(effective_ins)
        result.extend(passthrough)
        return Batch(result)

    def expanded(self, graph: Graph) -> "Batch":
        """Rewrite vertex updates into explicit edge updates (Section 4).

        * ``VertexInsertion(v, edges)`` becomes a bare vertex insertion
          followed by its edge insertions.
        * ``VertexDeletion(v)`` becomes explicit deletions of every edge
          incident to ``v`` *at that point in the sequence*, followed by
          the bare vertex deletion.

        ``graph`` is the pre-update graph ``G``; it is not modified.  This
        is for callers that must read ``G`` against the whole expansion
        before mutating it (IncDFS's earliest effect time, the competitor
        baselines); the spec-driven incremental applies get the same
        expansion from :func:`apply_updates` with ``expand=True``, in the
        pass that mutates the graph.
        """
        needs_overlay = any(isinstance(u, VertexDeletion) for u in self.updates)
        overlay = _EdgeOverlay(graph) if needs_overlay else None
        created: set = set()
        removed: set = set()
        out: List[Update] = []

        def known(node: Node) -> bool:
            if node in removed:
                return False
            return node in created or graph.has_node(node)

        def materialize(node: Node) -> None:
            # Edge insertions create absent endpoints implicitly; surface
            # that as an explicit vertex insertion so incremental
            # algorithms seed the new status variables.
            if not known(node):
                out.append(VertexInsertion(node))
                created.add(node)
                removed.discard(node)

        for u in self.updates:
            if isinstance(u, VertexInsertion):
                out.append(VertexInsertion(u.v, u.label, ()))
                created.add(u.v)
                removed.discard(u.v)
                for e in u.edges:
                    materialize(e.u)
                    materialize(e.v)
                    out.append(e)
                    if overlay is not None:
                        overlay.insert(e.u, e.v)
            elif isinstance(u, EdgeInsertion):
                materialize(u.u)
                materialize(u.v)
                out.append(u)
                if overlay is not None:
                    overlay.insert(u.u, u.v)
            elif isinstance(u, VertexDeletion):
                if overlay is not None and known(u.v):
                    for a, b in overlay.remove_node(u.v):
                        out.append(EdgeDeletion(a, b))
                out.append(VertexDeletion(u.v))
                removed.add(u.v)
                created.discard(u.v)
            else:
                out.append(u)
                if overlay is not None:
                    overlay.delete(u.u, u.v)
        return Batch(out)

    def __repr__(self) -> str:
        n_ins = len(self.insertions())
        n_del = len(self.deletions())
        return f"Batch(|ΔG|={self.size}, +{n_ins}/-{n_del})"


class _EdgeOverlay:
    """``G``'s adjacency plus the edge edits of a batch's earlier ops.

    :meth:`Batch.expanded` needs the edges incident to a deleted vertex
    *at that point in the batch*, in the order a copy of ``G`` with the
    earlier ops applied (non-strictly) would list them.  The overlay
    answers that without copying ``G``: a row is ``G``'s row minus the
    entries removed so far, then the entries added so far in insertion
    order (a re-added entry moves to the end, as in a dict).  Rows are
    keyed ``(side, node)``; an undirected graph has one side.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.in_side = 1 if graph.directed else 0
        self.dropped: dict = {}  # (side, node) -> G entries removed
        self.added: dict = {}    # (side, node) -> {entry: None}

    def row(self, side: int, v: Node) -> List[Node]:
        graph = self.graph
        base: List[Node] = []
        if graph.has_node(v):
            dropped = self.dropped.get((side, v), ())
            nbrs = graph.in_neighbors(v) if side else graph.out_neighbors(v)
            base = [w for w in nbrs if w not in dropped]
        return base + list(self.added.get((side, v), ()))

    def has_edge(self, a: Node, b: Node) -> bool:
        if b in self.added.get((0, a), ()):
            return True
        return self.graph.has_edge(a, b) and b not in self.dropped.get((0, a), ())

    def insert(self, a: Node, b: Node) -> None:
        if not self.has_edge(a, b):
            self.added.setdefault((0, a), {})[b] = None
            self.added.setdefault((self.in_side, b), {})[a] = None

    def delete(self, a: Node, b: Node) -> None:
        if self.has_edge(a, b):
            self._unlink(0, a, b)
            if self.graph.directed or a != b:
                self._unlink(self.in_side, b, a)

    def _unlink(self, side: int, v: Node, w: Node) -> None:
        entries = self.added.get((side, v))
        if entries is not None and w in entries:
            del entries[w]
        else:
            self.dropped.setdefault((side, v), set()).add(w)

    def remove_node(self, v: Node) -> List[Tuple[Node, Node]]:
        """Delete ``v``'s incident edges and return them, out-edges first."""
        edges = [(v, w) for w in self.row(0, v)]
        if self.graph.directed:
            edges.extend((w, v) for w in self.row(1, v) if w != v)  # self-loop listed once
        for a, b in edges:
            self.delete(a, b)
        return edges


class ExpandedBatch(Batch):
    """``ΔG`` as :func:`apply_updates` applied it, with flat views.

    ``updates`` lists the expanded ops, exactly as
    :meth:`Batch.expanded` would on the pre-update graph: vertex updates
    are bare and their edges explicit, and implicitly created endpoints
    are explicit vertex insertions.  Alongside them:

    * ``edges`` — ``(u, v, inserted)`` for every edge op, in order;
    * ``vertices`` — ``(v, inserted)`` for every bare vertex op, in order;
    * ``old_weights`` — ``{(u, v): weight in G}`` for every deletion of an
      edge of ``G``.  A deleted edge that ``G`` lacks (the batch inserted
      it first) gets no entry.

    The incremental applies hand this record to the spec hooks, which
    read the flat views instead of re-walking the ops.  It is a record
    of one apply: appending to it leaves the views stale.
    """

    def __init__(
        self,
        updates: List[Update],
        edges: List[Tuple[Node, Node, bool]],
        vertices: List[Tuple[Node, bool]],
        old_weights: Dict[Tuple[Node, Node], float],
    ) -> None:
        self.updates = updates
        self.edges = edges
        self.vertices = vertices
        self.old_weights = old_weights


def apply_updates(
    graph: Graph,
    delta: Union[Batch, Sequence[Update]],
    strict: bool = True,
    expand: bool = False,
    on_op: Optional[Callable[[Update], None]] = None,
) -> Union[Graph, ExpandedBatch]:
    """Apply ``ΔG`` to ``graph`` in place (``G ⊕ ΔG``), in one pass.

    With ``strict=True`` (the default) conflicting updates — inserting an
    existing edge or node, deleting a missing one — raise
    :class:`UpdateError` at that op, leaving the earlier ops applied;
    with ``strict=False`` they are skipped, which is convenient when
    replaying noisy temporal streams.

    The pass expands vertex updates against the live graph as it mutates
    it and reads the ``G``-side weight of each deleted edge before
    removing it.  ``expand=True`` returns that record as an
    :class:`ExpandedBatch` instead of the graph.  ``on_op`` is called
    with each expanded op right after it took effect, so it sees the
    graph with exactly that op, and every op before it, applied (a
    skipped op is listed but not reported).
    """
    record = ExpandedBatch([], [], [], {})
    _apply_pass(
        graph, delta.updates if isinstance(delta, Batch) else delta, strict, on_op, record, set()
    )
    return record if expand else graph


def _apply_pass(
    graph: Graph,
    ops: Iterable[Update],
    strict: bool,
    on_op: Optional[Callable[[Update], None]],
    record: ExpandedBatch,
    inserted: Set[Tuple[Node, Node]],
) -> None:
    """The body of :func:`apply_updates`: apply ``ops`` to ``graph`` and
    append each expanded op to ``record``.  ``inserted`` holds the edges
    the pass has inserted so far, both ways if undirected.  A vertex op
    recurses on the edge or vertex ops it expands into."""
    directed = graph.directed
    succ, pred, labels = graph._succ, graph._pred, graph._edge_labels
    out_append, edges_append = record.updates.append, record.edges.append
    vertices, old_weights = record.vertices, record.old_weights
    for op in ops:
        kind = type(op)
        if kind is EdgeInsertion:
            u, v = op.u, op.v
            # Edge insertions create absent endpoints implicitly; surface
            # that as an explicit vertex insertion so incremental
            # algorithms seed the new status variables.
            if u not in succ:
                _apply_pass(graph, (VertexInsertion(u),), strict, on_op, record, inserted)
            if v not in succ:
                _apply_pass(graph, (VertexInsertion(v),), strict, on_op, record, inserted)
            out_append(op)
            edges_append((u, v, True))
            row = succ[u]
            if v in row:
                if strict:
                    raise UpdateError(f"cannot insert existing edge ({u!r}, {v!r})")
                continue
            row[v] = pred[v][u] = op.weight
            graph._num_edges += 1
            inserted.add((u, v))
            if not directed:
                inserted.add((v, u))
            if op.label is not None:
                labels[graph._edge_key(u, v)] = op.label
            if on_op is not None:
                on_op(op)
        elif kind is EdgeDeletion:
            u, v = op.u, op.v
            out_append(op)
            edges_append((u, v, False))
            row = succ.get(u)
            present = row is not None and v in row
            key = (u, v)
            if present and key not in inserted:
                old_weights[key] = row[v]  # still G's edge
            else:
                # G had this edge iff an earlier op of the pass deleted
                # it, which recorded its weight.
                weight = old_weights.get(key)
                if weight is None and not directed:
                    weight = old_weights.get((v, u))
                if weight is not None:
                    old_weights[key] = weight
            if not present:
                if strict:
                    raise UpdateError(f"cannot delete missing edge ({u!r}, {v!r})")
                continue
            del row[v]
            if directed or u != v:
                del pred[v][u]
            graph._num_edges -= 1
            if labels:
                labels.pop(graph._edge_key(u, v), None)
            if on_op is not None:
                on_op(op)
        elif kind is VertexInsertion:
            v = op.v
            bare = VertexInsertion(v, op.label) if op.edges else op
            out_append(bare)
            vertices.append((v, True))
            if v in succ:
                if strict:
                    raise UpdateError(f"cannot insert existing node {v!r}")
            else:
                graph.add_node(v, label=op.label)
                if on_op is not None:
                    on_op(bare)
            if op.edges:
                _apply_pass(graph, op.edges, strict, on_op, record, inserted)
        elif kind is VertexDeletion:
            v = op.v
            present = v in succ
            if present:
                # The incident edges at this point of the sequence,
                # out-edges first; a self-loop is listed once.
                incident = [EdgeDeletion(v, w) for w in succ[v]]
                if directed:
                    incident.extend(EdgeDeletion(w, v) for w in pred[v] if w != v)
                _apply_pass(graph, incident, strict, on_op, record, inserted)
                graph.remove_node(v)
            elif strict:
                raise UpdateError(f"cannot delete missing node {v!r}")
            out_append(op)
            vertices.append((v, False))
            if on_op is not None and present:
                on_op(op)
        else:
            raise UpdateError(f"unknown update type {kind.__name__}")


def updated_copy(graph: Graph, delta: Union[Batch, Sequence[Update]], strict: bool = True) -> Graph:
    """A fresh copy of ``graph`` with ``ΔG`` applied (``G ⊕ ΔG``)."""
    return apply_updates(graph.copy(), delta, strict=strict)
