"""Host-speed calibration.

The CPUs this benchmark runs on are virtual and shared: over minutes the
same work can take 1.5x longer on one CPU and not on the other, and
bursts of 0.1-0.5 s come and go within a run.  The benchmark therefore
times a fixed piece of pure-Python graph code (a dict copy plus Dijkstra
on a 300-node graph, the kind of work the program does) on the CPUs a
measurement uses, at the same time as the measurement, and divides each
sub-window's times by that sub-window's slowdown against
:data:`REFERENCE_S`.  Program changes cannot move the calibration, so
they still move the reported numbers in full.

For a server, a :class:`Probe` process per CPU runs the calibration at
idle priority (``SCHED_IDLE``): it only runs while the server's CPU would
otherwise be idle, so it never delays a request.  In process, the
benchmark runs :func:`sample` between its own timed operations.

``python3 host.py CPU`` is the probe: it samples every 20 ms until
SIGTERM, then prints ``[[perf_counter, seconds], ...]`` as JSON.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import reference  # noqa: E402

#: Median calibration CPU time on an unloaded 2-CPU Xeon host (the one
#: the benchmark was built on).  Any constant works for comparisons made
#: on one host; this one keeps the reported values close to real time.
REFERENCE_S = 0.00052

PERIOD_S = 0.02  #: probe sampling period

_GRAPH = reference.adjacency(range(300), inputs.preferential_attachment(300, 4, random.Random(0)))

Samples = List[Tuple[float, float]]


def _work() -> None:
    reference.sssp({u: dict(nbrs) for u, nbrs in _GRAPH.items()}, 0)


def sample() -> Tuple[float, float]:
    """One calibration run: ``(perf_counter at start, thread-CPU seconds)``.
    A first, untimed run warms the caches, so the program's own use of
    them cannot move the reading."""
    _work()
    at, started = time.perf_counter(), time.thread_time()
    _work()
    return at, time.thread_time() - started


def slowdown(samples: Iterable[Tuple[float, float]]) -> float:
    """Median calibration time of ``samples`` over :data:`REFERENCE_S`
    (1.0 when there are none)."""
    seconds = [s for _at, s in samples]
    return statistics.median(seconds) / REFERENCE_S if seconds else 1.0


def slowdown_now(cpus: Iterable[int], seconds: float = 0.3) -> float:
    """Calibrate in this process on each of ``cpus`` for ``seconds``;
    the mean slowdown over the CPUs."""
    saved = os.sched_getaffinity(0)
    factors = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            end = time.perf_counter() + seconds
            runs = []
            while time.perf_counter() < end:
                runs.append(sample())
            factors.append(slowdown(runs))
    finally:
        os.sched_setaffinity(0, saved)
    return statistics.mean(factors)


class Probe:
    """Idle-priority calibration samples on one CPU, from a process."""

    def __init__(self, cpu: int) -> None:
        def prepare() -> None:
            os.sched_setaffinity(0, {cpu})
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))

        self.process = subprocess.Popen(
            [sys.executable, __file__, str(cpu)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, preexec_fn=prepare,
        )

    def stop(self) -> Samples:
        self.process.terminate()
        out, _err = self.process.communicate(timeout=30)
        return [tuple(pair) for pair in json.loads(out or b"[]")]


def per_window(samples_by_cpu: Sequence[Samples], edges: Sequence[float]) -> List[float]:
    """The slowdown in each window ``[edges[k], edges[k+1])``, averaged
    over CPUs."""
    return [
        statistics.mean(
            slowdown((at, s) for at, s in samples if lo <= at < hi) for samples in samples_by_cpu
        )
        for lo, hi in zip(edges, edges[1:])
    ]


def _probe_main() -> None:
    runs: Samples = []

    def finish(_signum, _frame) -> None:
        sys.stdout.write(json.dumps(runs))
        sys.stdout.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, finish)
    while True:
        runs.append(sample())
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    _probe_main()
