"""Up-front validation of update batches (the commit gate).

A malformed batch used to fail *inside* the first query's incremental
apply — after that query's replica had already mutated — leaving the
session torn.  :func:`validate_batch` simulates a whole update window
(one batch or several, in order) against the live graph with one
O(|ΔG|) overlay, without copying or mutating anything, and raises a
typed :class:`~repro.errors.BatchValidationError` subclass naming the
first offending op, so every commit path of
:class:`~repro.session.DynamicGraphSession` can reject the window before
any replica or state is touched.

The simulation mirrors strict-apply semantics exactly: a window passes
validation if and only if :func:`repro.graph.updates.apply_updates`
with ``strict=True`` would apply each of its batches in turn cleanly.
On top of that it checks
edge weights against a policy the strict apply has no opinion on:

* ``"any"`` — no weight checks;
* ``"finite"`` (default) — NaN and ±inf weights are rejected (they
  poison every distance/width fixpoint);
* ``"spec"`` — additionally, negative weights are rejected when the
  session has a registered algorithm listed in
  :data:`NONNEGATIVE_WEIGHT_ALGORITHMS` (Dijkstra's correctness
  argument needs ``w ≥ 0``).

>>> from repro.graph import Graph, Batch, EdgeDeletion
>>> g = Graph(); g.add_edge(0, 1)
>>> try:
...     validate_batch(g, Batch([EdgeDeletion(0, 1), EdgeDeletion(0, 1)]))
... except ContradictoryUpdateError as exc:
...     print(exc.index)
1
"""

from __future__ import annotations

import math
from typing import Any, FrozenSet, Optional, Sequence, Set, Tuple, Union

from ..errors import (
    ContradictoryUpdateError,
    InvalidWeightError,
    ReproError,
    UnknownNodeError,
)
from ..graph.graph import Graph, Node
from ..graph.updates import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)

#: Algorithms whose correctness requires nonnegative edge weights; under
#: ``weight_policy="spec"`` a session with one of these registered
#: rejects negative-weight insertions.
NONNEGATIVE_WEIGHT_ALGORITHMS: FrozenSet[str] = frozenset({"SSSP"})

WEIGHT_POLICIES = ("any", "finite", "spec")


class _BatchSimulation:
    """O(|ΔG|) presence overlay over an unmutated base graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.directed = graph.directed
        self.nodes_added: Set[Node] = set()
        self.nodes_removed: Set[Node] = set()
        # A node that was removed at any point loses its base edges for
        # good — re-creating it starts from an isolated node.
        self.nodes_reset: Set[Node] = set()
        self.edges_added: Set[Tuple[Node, Node]] = set()
        self.edges_removed: Set[Tuple[Node, Node]] = set()

    def _key(self, u: Node, v: Node) -> Tuple[Node, Node]:
        if self.directed:
            return (u, v)
        try:
            return (u, v) if u <= v else (v, u)  # type: ignore[operator]
        except TypeError:
            return (u, v) if repr(u) <= repr(v) else (v, u)

    def has_node(self, v: Node) -> bool:
        if v in self.nodes_removed:
            return False
        return v in self.nodes_added or self.graph.has_node(v)

    def has_edge(self, u: Node, v: Node) -> bool:
        key = self._key(u, v)
        if key in self.edges_added:
            return True
        if key in self.edges_removed:
            return False
        if u in self.nodes_reset or v in self.nodes_reset:
            return False
        return self.graph.has_edge(u, v)

    def ensure_node(self, v: Node) -> None:
        if not self.has_node(v):
            self.nodes_added.add(v)
            self.nodes_removed.discard(v)

    def add_node(self, v: Node) -> None:
        self.nodes_added.add(v)
        self.nodes_removed.discard(v)

    def add_edge(self, u: Node, v: Node) -> None:
        self.ensure_node(u)
        self.ensure_node(v)
        key = self._key(u, v)
        self.edges_added.add(key)
        self.edges_removed.discard(key)

    def remove_edge(self, u: Node, v: Node) -> None:
        key = self._key(u, v)
        self.edges_added.discard(key)
        self.edges_removed.add(key)

    def remove_node(self, v: Node) -> None:
        self.nodes_added.discard(v)
        self.nodes_removed.add(v)
        self.nodes_reset.add(v)
        # Overlay edges incident to v die with it (base edges are covered
        # by nodes_reset).  The overlay is batch-sized, so this is cheap.
        for key in [k for k in self.edges_added if v in k]:
            self.edges_added.discard(key)


def _weight_error(weight: Any, forbid_negative: bool) -> Optional[str]:
    """Why ``weight`` is rejected, or ``None`` when it passes."""
    try:
        finite = math.isfinite(weight)
    except TypeError:
        return f"weight {weight!r} is not a number"
    if not finite:
        return (
            f"weight {weight!r} is not finite; NaN/±inf weights poison "
            "every weighted fixpoint"
        )
    if forbid_negative and weight < 0:
        return (
            f"negative weight {weight!r} violates the nonnegative-weight "
            "requirement of a registered algorithm (policy 'spec'; see "
            "NONNEGATIVE_WEIGHT_ALGORITHMS)"
        )
    return None


def validate_batch(
    graph: Graph,
    window: Union[Batch, Sequence[Batch]],
    weight_policy: str = "finite",
    forbid_negative: bool = False,
) -> None:
    """Raise a typed error if the window would not apply cleanly to ``graph``.

    ``window`` is one :class:`Batch` or a sequence of them, applied in
    order.  Mirrors ``apply_updates(graph, batch, strict=True)`` for each
    batch in turn, without mutating anything: one overlay spans the whole
    window, so the cost is O(|ΔG|) however many batches it holds.  See
    the module docstring for the weight policy.  The raised error's
    ``batch`` and ``index`` attributes point at the offending unit update
    (``index`` counts within its batch).
    """
    if weight_policy not in WEIGHT_POLICIES:
        raise ReproError(
            f"unknown weight policy {weight_policy!r}; expected one of {WEIGHT_POLICIES}"
        )
    batches = [window] if isinstance(window, Batch) else list(window)
    check_weights = weight_policy != "any"
    forbid_negative = forbid_negative and weight_policy == "spec"
    sim = _BatchSimulation(graph)

    def fail(error: type, index: int, text: str) -> None:
        where = f"update #{index}"
        if len(batches) > 1:
            where = f"batch #{position}, {where}"
        raise error(f"{where}: {text}", index, batch=position)

    def validate_insertion(u: Update, index: int) -> None:
        if check_weights:
            problem = _weight_error(u.weight, forbid_negative)
            if problem is not None:
                fail(InvalidWeightError, index, problem)
        if sim.has_edge(u.u, u.v):
            fail(
                ContradictoryUpdateError, index,
                f"edge ({u.u!r}, {u.v!r}) is already present at this point in the batch",
            )
        sim.add_edge(u.u, u.v)

    for position, delta in enumerate(batches):
        for index, u in enumerate(delta):
            if isinstance(u, EdgeInsertion):
                validate_insertion(u, index)
            elif isinstance(u, EdgeDeletion):
                if not sim.has_edge(u.u, u.v):
                    if not sim.has_node(u.u) or not sim.has_node(u.v):
                        missing = u.u if not sim.has_node(u.u) else u.v
                        fail(
                            UnknownNodeError, index,
                            f"cannot delete edge ({u.u!r}, {u.v!r}); node "
                            f"{missing!r} is unknown at this point in the batch",
                        )
                    fail(
                        ContradictoryUpdateError, index,
                        f"edge ({u.u!r}, {u.v!r}) is absent at this point in the batch",
                    )
                sim.remove_edge(u.u, u.v)
            elif isinstance(u, VertexInsertion):
                if sim.has_node(u.v):
                    fail(
                        ContradictoryUpdateError, index,
                        f"node {u.v!r} is already present at this point in the batch",
                    )
                sim.add_node(u.v)
                for e in u.edges:
                    validate_insertion(e, index)
            elif isinstance(u, VertexDeletion):
                if not sim.has_node(u.v):
                    fail(
                        UnknownNodeError, index,
                        f"cannot delete node {u.v!r}; it is unknown at this point in the batch",
                    )
                sim.remove_node(u.v)
            else:
                fail(ContradictoryUpdateError, index, f"unknown update type {type(u).__name__}")


def session_weight_requirements(algorithms) -> bool:
    """True when any registered algorithm name demands nonnegative weights."""
    return any(name in NONNEGATIVE_WEIGHT_ALGORITHMS for name in algorithms)
