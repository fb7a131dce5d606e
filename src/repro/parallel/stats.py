"""Scatter accounting for the sharded tier.

:class:`ProtocolStats` records every scatter the router sends (kind,
fan-out, payload bytes) and which write windows contained a deletion.
Every window costs exactly one ``apply`` scatter, so
``scatters_per_deletion_window`` is 1.0 by construction; the block is
surfaced through ``repro serve`` stats (``"protocol"``) and recorded by
the ``serve`` benchmark suite (:mod:`repro.evalhub.serving`), whose smoke
gate holds the window cost at that figure.

Counters follow the serving tier's scrape-and-reset discipline: a
``window`` block zeroed by ``snapshot(reset=True)`` plus a ``lifetime``
block that only grows.  ("Window" here means *scrape window*, not a
write window — every write window contributes to both.)

All mutation happens on the router's single caller thread; the lock only
exists so reader threads scraping ``stats`` see consistent snapshots.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

#: Counter keys, in display order.
FIELDS = (
    "windows",              # write windows routed
    "deletion_windows",     # windows whose stream contained a deletion
    "scatters",             # scatter round-trips, all kinds
    "deletion_scatters",    # scatters spent inside deletion windows
    "apply_scatters",       # one per write window
    "register_scatters",
    "pin_scatters",         # registration and recovery
    "messages",             # per-shard requests across all scatters
    "bytes_shipped",        # router→worker payload bytes (exact: the pickle)
)


def _zero() -> Dict[str, int]:
    return {field: 0 for field in FIELDS}


class ProtocolStats:
    """Scatter accounting for one :class:`ShardedSession`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._window = _zero()
        self._lifetime = _zero()
        self._in_deletion_window = False

    # ------------------------------------------------------------------
    # Recording (router thread only)
    # ------------------------------------------------------------------
    def begin_window(self, deletions: bool) -> None:
        with self._lock:
            self._in_deletion_window = deletions
            for counters in (self._window, self._lifetime):
                counters["windows"] += 1
                if deletions:
                    counters["deletion_windows"] += 1

    def end_window(self) -> None:
        with self._lock:
            self._in_deletion_window = False

    def scatter(self, cmd: str, shards: int, payload_bytes: int) -> None:
        """One scatter round-trip of ``cmd`` to ``shards`` workers."""
        kind = f"{cmd}_scatters"
        with self._lock:
            for counters in (self._window, self._lifetime):
                counters["scatters"] += 1
                counters["messages"] += shards
                counters["bytes_shipped"] += payload_bytes
                if kind in counters:
                    counters[kind] += 1
                if self._in_deletion_window:
                    counters["deletion_scatters"] += 1

    # ------------------------------------------------------------------
    # Scraping (any thread)
    # ------------------------------------------------------------------
    @staticmethod
    def _derive(counters: Dict[str, int]) -> Dict[str, Any]:
        block: Dict[str, Any] = dict(counters)
        windows = counters["deletion_windows"]
        block["scatters_per_deletion_window"] = (
            round(counters["deletion_scatters"] / windows, 3) if windows else 0.0
        )
        return block

    def snapshot(self, reset: bool = False) -> Dict[str, Any]:
        with self._lock:
            window = self._derive(self._window)
            lifetime = self._derive(self._lifetime)
            if reset:
                self._window = _zero()
        return {"window": window, "lifetime": lifetime}

    def __repr__(self) -> str:
        with self._lock:
            life = self._lifetime
            return f"ProtocolStats(windows={life['windows']}, scatters={life['scatters']})"
