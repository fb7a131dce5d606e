"""Pre-window state snapshots and rollback from the reference graph.

The session applies one window to *every* registered query's replica and
state; if any of those steps fails, the already-mutated replicas must be
restored or the session is torn — replicas disagree with each other and
with the reference graph.

Graphs need no snapshot.  The session's reference graph absorbs a window
only after every query's step has succeeded, so while the window runs it
*is* the pre-window graph: a rollback rebuilds each replica as a copy of
it.  Only states are snapshotted — an O(|D|) dict copy per query per
window.  The O(|G|) replica copies are paid on failure only.
"""

from __future__ import annotations

from typing import Dict

from ..core.state import FixpointState
from ..graph.graph import Graph


class SessionTransaction:
    """Undo log for one update window across all queries."""

    def __init__(self, states: Dict[str, FixpointState]) -> None:
        self._states = states

    @classmethod
    def begin(cls, queries) -> "SessionTransaction":
        """Snapshot the state of every ``RegisteredQuery`` in ``queries``."""
        return cls({registered.name: registered.state.copy() for registered in queries})

    def values(self, name: str) -> Dict:
        """The pre-window variable values of query ``name``."""
        return self._states[name].values

    def rollback(self, queries, reference: Graph) -> int:
        """Reset every snapshotted query in ``queries`` to its pre-window
        state on a fresh copy of ``reference``; returns the count.

        Each snapshot is handed over, so a query is restored at most once.
        """
        restored = 0
        for registered in queries:
            state = self._states.pop(registered.name, None)
            if state is not None:
                registered.reset(reference.copy(), state)
                restored += 1
        return restored
