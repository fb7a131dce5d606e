"""Fixpoint state ``D_A = (S_A, R_A)`` with timestamps and instrumentation.

The paper's *status* ``D_A`` tracks the computation of a fixpoint
algorithm: the data structures ``S_A`` (here: the variable table itself)
and the partial results ``R_A`` (the variable values after each round).
Weakly deducible incrementalizations additionally record a *timestamp*
per variable — the logical time of its last change — from which the
topological order ``<_C`` is derived (Section 4).

:class:`FixpointState` is produced by a batch run and consumed (and
updated in place) by the deduced incremental algorithm, so repeated
update batches can be applied one after another, each starting from the
previous fixpoint.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

from ..metrics.counters import AccessCounter, NullCounter

Key = Hashable
Value = Any


class _Absent:
    """Undo-log marker for a value or timestamp that did not exist."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ABSENT"


ABSENT = _Absent()


class FixpointState:
    """Variable values, timestamps, and access instrumentation.

    Parameters
    ----------
    counter:
        The :class:`~repro.metrics.counters.AccessCounter` receiving
        read/write events.  Defaults to a no-op counter.

    Notes
    -----
    Timestamps are a logical clock: the clock ticks on every value write,
    and a variable's timestamp is the tick of its last change.  Variables
    never written retain timestamp ``-1`` (the paper's convention for
    Sim variables that start false).

    While a session window runs, :attr:`undo` is a first-touch undo log:
    every write path records ``key -> (old value, old timestamp)`` the
    first time it touches ``key`` (:data:`ABSENT` for a missing side), so
    :meth:`rewind` restores the pre-window variables in O(|written|).  It
    is ``None`` outside a window.
    """

    __slots__ = ("values", "timestamps", "clock", "counter", "rounds", "changelog", "undo")

    def __init__(self, counter: Optional[AccessCounter] = None) -> None:
        self.values: Dict[Key, Value] = {}
        self.timestamps: Dict[Key, int] = {}
        self.clock = 0
        self.counter: AccessCounter = counter if counter is not None else NullCounter()
        self.rounds = 0
        # When set to a dict, every write records {key: value_before_first_write}.
        self.changelog: Optional[Dict[Key, Value]] = None
        self.undo: Optional[Dict[Key, Tuple[Value, Any]]] = None

    # ------------------------------------------------------------------
    def seed(self, key: Key, value: Value) -> None:
        """Initialize a variable to ``x^⊥`` without counting or timestamping.

        Under a changelog the variable's prior value is recorded (``None``
        for a created one), so ΔO covers created variables too.
        """
        if self.changelog is not None and key not in self.changelog:
            self.changelog[key] = self.values.get(key)
        self.touch(key)
        self.values[key] = value
        self.timestamps[key] = -1

    def get(self, key: Key) -> Value:
        """Counted read of a variable."""
        self.counter.on_read(key)
        return self.values[key]

    def peek(self, key: Key) -> Value:
        """Uncounted read, for result extraction and reporting."""
        return self.values[key]

    def set(self, key: Key, value: Value) -> None:
        """Counted, timestamped write of a variable."""
        if self.changelog is not None and key not in self.changelog:
            self.changelog[key] = self.values.get(key)
        if self.undo is not None and key not in self.undo:  # touch(), inlined: hot path
            self.undo[key] = (self.values.get(key, ABSENT), self.timestamps.get(key, ABSENT))
        self.counter.on_write(key)
        self.values[key] = value
        self.timestamps[key] = self.clock
        self.clock += 1

    def timestamp(self, key: Key) -> int:
        return self.timestamps.get(key, -1)

    def replay(self, writes) -> None:
        """Apply an ordered iterable of ``(key, value)`` writes as :meth:`set` would.

        This is the write-back of the batched writers: the kernel
        engines' hot loops work on encoded values and log every accepted
        write, and IncLCC's derivative path sums its increments; either
        replays its log here, so the dict state carries the same final
        values *and* a timestamp linearization consistent with the
        propagation order — which the weakly deducible specs (CC, Reach)
        read back as ``<_C`` on the next incremental apply.  Replaying
        transient writes (values later overwritten) is deliberate: their
        timestamps are provenance, not noise.

        One loop performs :meth:`set`'s whole protocol — changelog, undo
        log, counter, timestamp — without a call per write.
        """
        values, timestamps = self.values, self.timestamps
        changelog, undo = self.changelog, self.undo
        on_write = None if isinstance(self.counter, NullCounter) else self.counter.on_write
        clock = self.clock
        if changelog is None and undo is None and on_write is None:
            for key, value in writes:
                values[key] = value
                timestamps[key] = clock
                clock += 1
        else:
            for key, value in writes:
                if changelog is not None and key not in changelog:
                    changelog[key] = values.get(key)
                if undo is not None and key not in undo:
                    undo[key] = (values.get(key, ABSENT), timestamps.get(key, ABSENT))
                if on_write is not None:
                    on_write(key)
                values[key] = value
                timestamps[key] = clock
                clock += 1
        self.clock = clock

    def drop(self, key: Key) -> None:
        """Retire a variable (vertex deletion)."""
        if self.changelog is not None and key not in self.changelog:
            self.changelog[key] = self.values.get(key)
        self.touch(key)
        self.values.pop(key, None)
        self.timestamps.pop(key, None)

    def __contains__(self, key: Key) -> bool:
        return key in self.values

    def __len__(self) -> int:
        return len(self.values)

    # ------------------------------------------------------------------
    def copy(self) -> "FixpointState":
        """A deep copy sharing no mutable structure (counter is fresh)."""
        clone = FixpointState()
        clone.values = dict(self.values)
        clone.timestamps = dict(self.timestamps)
        clone.clock = self.clock
        clone.rounds = self.rounds
        return clone

    def touch(self, key: Key) -> None:
        """Record ``key`` in an armed undo log on its first touch.

        Every write path calls this before it writes ``key``, including
        writers that bypass :meth:`set`, :meth:`seed` and :meth:`drop`.
        """
        undo = self.undo
        if undo is not None and key not in undo:
            undo[key] = (self.values.get(key, ABSENT), self.timestamps.get(key, ABSENT))

    def values_before(self) -> Dict[Key, Value]:
        """The values as they were when the undo log was armed (a copy)."""
        values = dict(self.values)
        for key, (value, _ts) in self.undo.items():
            if value is ABSENT:
                values.pop(key, None)
            else:
                values[key] = value
        return values

    def rewind(self) -> None:
        """Undo every logged write in place and disarm the log.

        ``clock`` and ``rounds`` are the caller's to restore.
        """
        values, timestamps = self.values, self.timestamps
        for key, (value, ts) in self.undo.items():
            if value is ABSENT:
                values.pop(key, None)
            else:
                values[key] = value
            if ts is ABSENT:
                timestamps.pop(key, None)
            else:
                timestamps[key] = ts
        self.undo = None

    def start_changelog(self) -> Dict[Key, Value]:
        """Begin recording ΔO; returns the live changelog dict."""
        self.changelog = {}
        return self.changelog

    def stop_changelog(self) -> Dict[Key, Value]:
        """Stop recording and return {key: old_value} for every changed key."""
        log = self.changelog if self.changelog is not None else {}
        self.changelog = None
        return log

    def __repr__(self) -> str:
        return f"FixpointState(|Ψ|={len(self.values)}, clock={self.clock}, rounds={self.rounds})"
