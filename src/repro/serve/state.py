"""Single-writer / multi-reader snapshot isolation for answer serving.

The serving layer's isolation model is deliberately simple, because the
session underneath makes it possible:

* exactly **one** writer thread ever touches the
  :class:`~repro.session.DynamicGraphSession` (graph replicas, fixpoint
  states, WAL) — there is nothing to lock *inside* the session;
* after every committed window the writer publishes each standing
  query here as an immutable :class:`AnswerSnapshot` tagged with the WAL
  sequence number the answer is consistent with.  A query whose window
  ``ΔO`` is non-empty is re-extracted (a defensive copy, see
  :meth:`DynamicGraphSession.answer <repro.session.DynamicGraphSession.answer>`)
  and handed over as a :class:`Revision`; one whose ``ΔO`` is empty is
  handed over as :data:`UNCHANGED` and keeps its previous answer;
* readers only ever see published snapshots.  A read never blocks on a
  write, never observes a mid-apply state, and always reports the exact
  fixpoint version (``seq``) its answer corresponds to — the
  prefix-consistency the differential isolation test verifies by batch
  recomputation at that very ``seq``.

Publication is copy-on-write: the name → snapshot map is *replaced*, not
mutated, so a reader that grabbed the previous map keeps a consistent
view for free (reference assignment is atomic under the GIL).  A
condition variable backs ``watch``-style long-polls: readers sleep until
a query's version advances past the one they have seen.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Dict, List, NamedTuple, Optional

from ..errors import ReproError
from ..resilience.sanitizer import publish_region


class AnswerMemo:
    """The wire text of one published answer object, filled lazily.

    The first reader that serves the answer stores its JSON text here
    (:func:`repro.serve.protocol.snapshot_line`); later readers splice
    it in.  The writer never fills it.  A memo belongs to one answer
    object: a re-publish that shares the answer shares the memo, a
    changed answer gets a fresh one.  Two readers racing to fill it
    store the same text, since it is a pure function of the answer.
    """

    __slots__ = ("text",)

    def __init__(self) -> None:
        self.text: Optional[str] = None


@dataclass(frozen=True)
class AnswerSnapshot:
    """One immutable published answer of one standing query.

    Attributes
    ----------
    name / algorithm:
        The query's registration name and its algorithm-pair name.
    seq:
        The WAL sequence number this answer is consistent with: the
        answer equals a from-scratch batch run on the graph after
        exactly the batches ``0..seq`` (-1 = the registration graph).
    version:
        Per-query change counter: bumps only when the answer *differs*
        from the previously published one, so ``watch`` long-polls wake
        on real changes, not on every committed window.
    answer:
        The extracted ``Q(G)``.  Treat as immutable — it is never
        mutated after publication and may be shared by many readers.
    changed:
        Size of the change versus the previous snapshot: the window's
        |ΔO| when the writer supplied it (a :class:`Revision`), else the
        number of output keys that differ; 0 for the initial publication
        and whenever the answer is unchanged.
    memo:
        The :class:`AnswerMemo` of ``answer``: shared with every snapshot
        that shares the answer object.
    """

    name: str
    algorithm: str
    seq: int
    version: int
    answer: Any
    changed: int = 0
    memo: AnswerMemo = field(default_factory=AnswerMemo, compare=False, repr=False)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "algorithm": self.algorithm,
            "seq": self.seq,
            "version": self.version,
            "changed": self.changed,
        }


class Revision(NamedTuple):
    """A re-extracted answer and the size of the ``ΔO`` that produced it."""

    answer: Any
    changed: int


class _Unchanged:
    __slots__ = ()

    def __repr__(self) -> str:
        return "UNCHANGED"


#: Publishes a query whose window ``ΔO`` was empty: its previous snapshot
#: (answer, memo, version) is kept, re-stamped at the new ``seq``.
UNCHANGED = _Unchanged()


def _restamp(previous: AnswerSnapshot, seq: int) -> AnswerSnapshot:
    """``previous`` at ``seq`` with an unchanged answer.

    A same-``seq`` publish keeps the very snapshot, so one
    ``(name, seq, version)`` is only ever served with one ``changed``.
    """
    if previous.seq == seq:
        return previous
    return AnswerSnapshot(
        name=previous.name,
        algorithm=previous.algorithm,
        seq=seq,
        version=previous.version,
        answer=previous.answer,  # share: identical content
        memo=previous.memo,  # and its wire text
    )


def _answers_equal(a: Any, b: Any) -> bool:
    try:
        return bool(a == b)
    except Exception:  # exotic answer types with broken __eq__
        return False


def _count_changed(old: Any, new: Any) -> int:
    if isinstance(old, dict) and isinstance(new, dict):
        changed = 0
        for key, value in new.items():
            if key not in old or old[key] != value:
                changed += 1
        changed += sum(1 for key in old if key not in new)
        return changed
    if isinstance(old, (set, frozenset)) and isinstance(new, (set, frozenset)):
        return len(old ^ new)
    return 0 if _answers_equal(old, new) else 1


class SnapshotStore:
    """The published, immutable answer table readers serve from."""

    def __init__(self) -> None:
        self._snapshots: Dict[str, AnswerSnapshot] = {}
        self._cond = threading.Condition()
        self._published = 0  # total publish() calls (windows), for stats

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    def publish(self, answers: Dict[str, Any], seq: int, algorithms: Dict[str, str]) -> Dict[str, AnswerSnapshot]:
        """Atomically publish one consistent set of answers at ``seq``.

        ``answers`` maps query name → a freshly-extracted answer, a
        :class:`Revision` (answer plus its |ΔO|, taken as ``changed``),
        or :data:`UNCHANGED` for a published query whose answer did not
        move; ``algorithms`` maps name → algorithm-pair name.  Every
        named query is tagged ``seq``; its version bumps only when the
        answer differs from the published one.  Queries absent from
        ``answers`` are retired (unregistered).  Returns the new
        snapshot map.
        """
        # publish_region is the dynamic sanitizer's serial-publication /
        # monotonic-seq assertion (no-op unless REPRO_TSAN is armed).
        with publish_region(self, seq):
            return self._publish_impl(answers, seq, algorithms)

    def _publish_impl(
        self, answers: Dict[str, Any], seq: int, algorithms: Dict[str, str]
    ) -> Dict[str, AnswerSnapshot]:
        with self._cond:
            current = self._snapshots
        fresh: Dict[str, AnswerSnapshot] = {}
        for name, answer in answers.items():
            previous = current.get(name)
            if answer is UNCHANGED:
                if previous is None:
                    raise ReproError(f"query {name!r} has no snapshot to keep")
                fresh[name] = _restamp(previous, seq)
                continue
            changed = None
            if isinstance(answer, Revision):
                answer, changed = answer
            if previous is None:
                fresh[name] = AnswerSnapshot(
                    name=name,
                    algorithm=algorithms.get(name, ""),
                    seq=seq,
                    version=0,
                    answer=answer,
                )
            elif _answers_equal(previous.answer, answer):
                fresh[name] = _restamp(previous, seq)
            else:
                fresh[name] = AnswerSnapshot(
                    name=name,
                    algorithm=previous.algorithm,
                    seq=seq,
                    version=previous.version + 1,
                    answer=answer,
                    changed=(
                        _count_changed(previous.answer, answer) if changed is None else changed
                    ),
                )
        with self._cond:
            self._snapshots = fresh
            self._published += 1
            self._cond.notify_all()
        # A fresh dict: the caller gets the same (immutable) snapshots
        # but can never mutate the map readers are now being served from.
        return dict(fresh)

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def get(self, name: str) -> AnswerSnapshot:
        """The current snapshot of one query (never blocks)."""
        # lint: allow(T003): copy-on-write read — the map is replaced,
        # never mutated, and a reference load is atomic under the GIL
        snapshot = self._snapshots.get(name)
        if snapshot is None:
            raise ReproError(f"query {name!r} is not registered")
        return snapshot

    def names(self) -> List[str]:
        # lint: allow(T003): copy-on-write read (see get)
        return list(self._snapshots)

    def wait_for(
        self, name: str, after_version: int = -1, timeout: Optional[float] = None
    ) -> Optional[AnswerSnapshot]:
        """Long-poll: block until ``name`` has a version > ``after_version``.

        Returns the newer snapshot, or ``None`` on timeout.  Raises
        :class:`~repro.errors.ReproError` if the query is (or becomes)
        unregistered.
        """
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            while True:
                snapshot = self._snapshots.get(name)
                if snapshot is None:
                    raise ReproError(f"query {name!r} is not registered")
                if snapshot.version > after_version:
                    return snapshot
                remaining = None if deadline is None else deadline - monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)

    # ------------------------------------------------------------------
    @property
    def published_windows(self) -> int:
        with self._cond:
            return self._published

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """Version/seq summary per query (the ``stats`` payload)."""
        # lint: allow(T003): copy-on-write read (see get)
        return {name: snap.as_dict() for name, snap in self._snapshots.items()}

    def __repr__(self) -> str:
        return f"SnapshotStore(queries={self.names()}, windows={self.published_windows})"
