"""First-touch undo logs and rollback from the reference graph.

The session applies one window to *every* registered query's replica and
state; if any of those steps fails, the already-mutated replicas must be
restored or the session is torn — replicas disagree with each other and
with the reference graph.

Graphs need no undo record.  The session's reference graph absorbs a
window only after every query's step has succeeded, so while the window
runs it *is* the pre-window graph: a rollback rebuilds each replica as a
copy of it.  States are not copied either: :meth:`SessionTransaction.begin`
arms each state's undo log (:attr:`~repro.core.state.FixpointState.undo`),
and every write path records a variable's old value and timestamp the
first time the window touches it.  A window therefore costs
O(|written|) undo entries per query, not an O(|D|) copy; a rollback
rewinds each state in place from its log, and the O(|G|) replica copies
are paid on failure only.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.state import FixpointState
from ..graph.graph import Graph


class SessionTransaction:
    """Undo logs for one update window across all queries."""

    def __init__(
        self, states: Dict[str, Tuple[FixpointState, int, int]], quarantined: Dict[str, bool]
    ) -> None:
        # name -> (pre-window state object, its clock, its rounds)
        self._states = states
        # name -> whether the query was quarantined before the window
        self._quarantined = quarantined

    @classmethod
    def begin(cls, queries) -> "SessionTransaction":
        """Arm the undo log of every ``RegisteredQuery`` in ``queries``."""
        states, quarantined = {}, {}
        for registered in queries:
            state = registered.state
            state.undo = {}
            states[registered.name] = (state, state.clock, state.rounds)
            quarantined[registered.name] = registered.quarantined
        return cls(states, quarantined)

    def values(self, name: str) -> Dict:
        """The pre-window variable values of query ``name`` (a copy)."""
        return self._states[name][0].values_before()

    def disarm(self) -> None:
        """Disarm every undo log: on commit, the window's writes stand."""
        for state, _clock, _rounds in self._states.values():
            state.undo = None

    def rollback(self, queries, reference: Graph) -> int:
        """Reset every logged query in ``queries`` to its pre-window
        state on a fresh copy of ``reference``; returns the count.

        Each state is rewound in place and handed back once, so a query
        is restored at most once, even if a quarantine recompute already
        replaced its state object inside the window.  The quarantine flag
        is restored too: a query quarantined inside the failed window
        holds its pre-window state again, so the retry maintains it
        incrementally instead of recomputing it until a heal.
        """
        restored = 0
        for registered in queries:
            entry = self._states.pop(registered.name, None)
            if entry is not None:
                state, clock, rounds = entry
                state.rewind()
                state.clock, state.rounds = clock, rounds
                registered.reset(reference.copy(), state)
                registered.quarantined = self._quarantined[registered.name]
                restored += 1
        return restored
