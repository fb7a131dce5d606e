"""Wall-clock helpers for the benchmark harness."""

from __future__ import annotations

import time
from typing import Any, Callable, NamedTuple, Optional, Sequence, Tuple


class Stopwatch:
    """A context-manager stopwatch.

    >>> with Stopwatch() as sw:
    ...     _ = sum(range(1000))
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start


def time_call(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """Call ``fn`` and return ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class Timing(NamedTuple):
    """What :func:`best_of` measured."""

    seconds: float  # the fastest timed call
    spread: float  # slowest / fastest timed call
    result: Any  # the last call's return value


def best_of(
    fn: Callable[..., Any],
    repeats: int,
    prepare: Optional[Callable[[], Sequence[Any]]] = None,
) -> Timing:
    """Warm up once, then time ``repeats`` calls and keep the fastest.

    ``prepare`` (if given) builds the call's arguments before every call,
    outside the timed region — fresh copies of whatever ``fn`` mutates.
    """
    times = []
    result = None
    for i in range(repeats + 1):
        args = prepare() if prepare is not None else ()
        result, seconds = time_call(fn, *args)
        if i:  # call 0 is the warmup
            times.append(seconds)
    best = min(times)
    return Timing(best, max(times) / best if best else 1.0, result)
