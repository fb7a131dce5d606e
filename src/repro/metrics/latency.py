"""Thread-safe latency recording and queue-depth gauges for the serving
layer (:mod:`repro.serve`).

Wall-clock percentiles are the service-level cost measure the paper's
data-access counters cannot provide: a standing-query service is judged
on tail latency under load, not on touched-variable counts.  The
recorders here are deliberately tiny — a bounded sample ring behind a
lock — so the writer thread and every reader connection can record into
them from hot paths.

Percentiles are computed over the *retained* samples (the most recent
``capacity``); with the default capacity of 8192 that is exact for any
benchmark window this repo runs, and a recent-biased estimate beyond it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterable, List, Optional


def _quantile(data: List[float], p: float) -> float:
    """The ``p`` quantile (0..1) of sorted ``data``, by nearest rank;
    0.0 when empty."""
    if not data:
        return 0.0
    return data[min(len(data) - 1, max(0, int(p * (len(data) - 1) + 0.5)))]


class LatencyRecorder:
    """Bounded ring of latency samples with percentile snapshots.

    >>> rec = LatencyRecorder()
    >>> for ms in (1.0, 2.0, 3.0, 4.0):
    ...     rec.record(ms / 1000.0)
    >>> rec.count
    4
    >>> rec.percentile(0.5) <= rec.percentile(0.99)
    True
    """

    def __init__(self, capacity: int = 8192) -> None:
        self._samples: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._count = 0  # lifetime recordings, survives window resets
        self._window_count = 0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self._count += 1
            self._window_count += 1

    @property
    def count(self) -> int:
        """Lifetime number of samples recorded (not capped by capacity)."""
        with self._lock:
            return self._count

    def percentile(self, p: float) -> float:
        """The ``p`` quantile (0..1) of retained samples; 0.0 when empty."""
        with self._lock:
            data = sorted(self._samples)
        return _quantile(data, p)

    def snapshot(self, reset: bool = False) -> Dict[str, float]:
        """Percentile summary ``{count, window, p50, p90, p99, max, mean}``.

        ``reset=True`` starts a fresh *window* (the per-window counter the
        serve ``stats`` endpoint reports) while keeping the sample ring,
        so percentiles stay warm across windows.
        """
        with self._lock:
            samples = list(self._samples)
            count = self._count
            window = self._window_count
            if reset:
                self._window_count = 0
        return {**percentiles(samples), "count": count, "window": window}


def percentiles(samples: Iterable[float], points: Iterable[float] = (0.5, 0.9, 0.99)) -> Dict[str, float]:
    """One-shot percentile summary of a raw sample list (loadgen reports)."""
    data: List[float] = sorted(samples)
    out: Dict[str, float] = {"count": len(data)}
    for p in points:
        out[f"p{int(p * 100)}"] = _quantile(data, p)
    out["max"] = data[-1] if data else 0.0
    out["mean"] = (sum(data) / len(data)) if data else 0.0
    return out


class DepthGauge:
    """A high-water-marking gauge for queue depths.

    The writer queue's instantaneous depth is sampled at admission; the
    high-water mark is the congestion evidence ``stats`` surfaces (and
    resets per window).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0
        self._high_water = 0

    def set(self, value: int) -> None:
        with self._lock:
            self._value = value
            if value > self._high_water:
                self._high_water = value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self, reset: bool = False) -> Dict[str, int]:
        with self._lock:
            snap = {"depth": self._value, "high_water": self._high_water}
            if reset:
                self._high_water = self._value
        return snap
