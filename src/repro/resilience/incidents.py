"""Structured incident reporting for fault-tolerant sessions.

Every anomaly a session survives — a rolled-back batch, an isolated
listener exception, a runaway drain, an audit divergence, a self-heal —
is recorded as an :class:`Incident` in the session's
:class:`IncidentLog` instead of being silently swallowed.  The log is a
bounded ring (oldest incidents are dropped past ``max_size``), cheap to
keep forever, and serializable for the CLI's JSON reports.

>>> log = IncidentLog(max_size=2)
>>> log.record("listener-error", query="cc", detail="boom")
Incident(kind='listener-error', query='cc', seq=-1)
>>> log.record("rollback", seq=7)
Incident(kind='rollback', query=None, seq=7)
>>> [i.kind for i in log]
['listener-error', 'rollback']
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

#: Incident kinds the session emits.  Stable API, used by tests and docs.
KINDS = (
    "validation-error",    # batch rejected before any mutation
    "rollback",            # a window failed; every query rolled back
    "listener-error",      # listener raised; isolated and skipped
    "runaway-drain",       # step/time budget exceeded
    "apply-error",         # one query's incremental apply raised
    "quarantine",          # query switched to batch-fallback mode
    "self-heal",           # state recomputed from scratch
    "audit-divergence",    # sampled/full audit found a broken invariant
    "healed",              # quarantine lifted after verification
    "wal-error",           # WAL append/abort failed (durability degraded)
    "wal-torn-tail",       # recovery dropped a truncated trailing record
    "checkpoint-error",    # checkpoint write failed (old one still valid)
    "replay-error",        # a WAL record failed to re-apply on recovery
)


@dataclass
class Incident:
    """One recorded anomaly: what, where, and around which batch."""

    kind: str
    query: Optional[str] = None    #: registered query name, if query-scoped
    detail: str = ""               #: human-readable description
    error: Optional[str] = None    #: repr of the underlying exception
    seq: int = -1                  #: WAL sequence number of the batch, if any

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "query": self.query,
            "detail": self.detail,
            "error": self.error,
            "seq": self.seq,
        }

    def __repr__(self) -> str:
        return f"Incident(kind={self.kind!r}, query={self.query!r}, seq={self.seq})"


class IncidentLog:
    """A bounded, append-only ring of :class:`Incident` records."""

    def __init__(self, max_size: int = 256) -> None:
        self._ring: deque = deque(maxlen=max_size)
        self.total = 0  #: incidents ever recorded, including dropped ones

    def record(
        self,
        kind: str,
        query: Optional[str] = None,
        detail: str = "",
        error: Optional[BaseException] = None,
        seq: int = -1,
    ) -> Incident:
        incident = Incident(
            kind=kind,
            query=query,
            detail=detail,
            error=repr(error) if error is not None else None,
            seq=seq,
        )
        self._ring.append(incident)
        self.total += 1
        return incident

    def by_kind(self, kind: str) -> List[Incident]:
        return [i for i in self._ring if i.kind == kind]

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [i.as_dict() for i in self._ring]

    def __iter__(self) -> Iterator[Incident]:
        return iter(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return f"IncidentLog({len(self)} kept, {self.total} total)"
