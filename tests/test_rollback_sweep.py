"""Deterministic sweep of window rollback from first-touch undo logs.

A session window arms each query's undo log, and a failure rewinds every
state from it (``repro.resilience.transactions``).  Each seed builds the
ΔO sweep's random weighted graph and churn windows, registers every
built-in algorithm pair (CC and Coreness on undirected seeds only),
commits a few warm-up windows and then fails one window in each of
three ways:

* ``after`` — a victim query raises once its whole apply has written;
* ``mid-drain`` — the window's k-th ``spec.update`` call raises, tearing
  the spec-backed victim it lands in halfway through its resumed
  fixpoint;
* ``quarantine`` — one query writes and then runs away, so it is
  quarantined and recomputed inside the window, before a later query's
  recompute fails; the first recompute's ΔO must start from the
  pre-window values, and the rollback must lift both quarantines.

After each failure every query's values, timestamps, clock and rounds
must equal a deep copy taken before the window, every quarantine flag
its pre-window value, and no undo log may stay armed; the window's
retry must maintain every query incrementally (no recompute), and it and
every later window must then answer as a fresh batch run does.  A kernel leg arms a log by hand around
kernel-engine applies, which sessions never take, and rewinds it.

The fast slice runs ``REPRO_ROLLBACK_SWEEP_SEEDS`` seeds (default 30);
CI runs 400.
"""

from __future__ import annotations

import copy
import os
import random

import pytest
from test_delta_o_sweep import KERNEL, scenario

from repro.core.spec import defines_derivative
from repro.errors import FixpointError, TransactionError
from repro.graph.updates import apply_updates
from repro.session import ALGORITHM_PAIRS, DynamicGraphSession

SEEDS = int(os.environ.get("REPRO_ROLLBACK_SWEEP_SEEDS", "30"))
WARMUP = 3
MODES = ("after", "mid-drain", "quarantine")


def capture(session):
    """Deep copy of every query's variables, timestamps, clock and rounds."""
    return {
        name: copy.deepcopy((r.state.values, r.state.timestamps, r.state.clock, r.state.rounds))
        for name, r in session._queries.items()
    }


def apply_method(inc):
    """The method a session drives ``inc`` through."""
    return "apply_stream" if hasattr(inc, "apply_stream") else "apply"


def fail_after_apply(inc):
    """Make ``inc`` raise once its window's one apply ran to completion."""
    method = apply_method(inc)
    real = getattr(inc, method)

    def wrapper(*args, **kwargs):
        real(*args, **kwargs)
        raise RuntimeError("victim failed after writing")

    setattr(inc, method, wrapper)
    return method


def fail_mid_drain(specs, k):
    """Make the ``k``-th ``spec.update`` call among ``specs`` raise."""
    calls = []
    for spec in specs:
        real = spec.update

        def update(*args, _real=real, **kwargs):
            calls.append(None)
            if len(calls) == k:
                raise RuntimeError("victim failed mid-drain")
            return _real(*args, **kwargs)

        spec.update = update


def fail_window(session, mode, window, rng):
    """Fail ``window`` on ``session`` the way ``mode`` says.

    Returns ``(rolled back?, captured ΔO baselines)``; the baselines map a
    recomputed query to the ``old_values`` its recompute reported from.
    """
    names = list(session._queries)
    baselines = {}
    patches = []  # (object, attribute) pairs to delete afterwards
    if mode == "after":
        inc = session._queries[rng.choice(names)].incremental
        patches.append((inc, fail_after_apply(inc)))
    elif mode == "mid-drain":
        specs = [getattr(r.incremental, "spec", None) for r in session._queries.values()]
        drained = [spec for spec in specs if spec is not None and not defines_derivative(spec)]
        fail_mid_drain(drained, rng.randint(1, 4))
        patches += [(spec, "update") for spec in drained]
    else:
        first, second = sorted(rng.sample(range(len(names)), 2))
        runaway = session._queries[names[first]]
        doomed = session._queries[names[second]]
        method = apply_method(runaway.incremental)
        real = getattr(runaway.incremental, method)

        def run_away(*args, **kwargs):
            real(*args, **kwargs)
            raise FixpointError("max_evals exceeded")

        def doomed_apply(*args, **kwargs):
            raise FixpointError("max_evals exceeded")

        def failing_run(*args, **kwargs):
            raise RuntimeError("recompute failed")

        doomed_method = apply_method(doomed.incremental)
        setattr(runaway.incremental, method, run_away)
        setattr(doomed.incremental, doomed_method, doomed_apply)
        doomed.batch.run = failing_run
        patches += [(runaway.incremental, method), (doomed.incremental, doomed_method)]
        patches.append((doomed.batch, "run"))
        real_recompute = session._recompute

        def recording(registered, graph=None, old_values=None):
            baselines[registered.name] = copy.deepcopy(old_values)
            return real_recompute(registered, graph, old_values)

        session._recompute = recording
        patches.append((session, "_recompute"))
    try:
        session.update_stream(window)
        rolled_back = False
    except TransactionError:
        rolled_back = True
    finally:
        for obj, attr in patches:
            delattr(obj, attr)
    return rolled_back, baselines


def answers_off_batch(session, graph, queries):
    """Names of the queries whose answer is off a fresh batch run."""
    off = []
    for name, query in queries.items():
        batch_cls, _inc = ALGORITHM_PAIRS[name]
        if session.answer(name) != batch_cls()(graph.copy(), query):
            off.append(name)
    return off


def rollback_mismatches(seed: int, mode: str):
    """Every way the failed window of ``seed`` and ``mode`` broke rollback.

    Returns ``(failures, rolled back?)``.
    """
    graph, windows, queries = scenario(seed)
    rng = random.Random(f"{seed}-{mode}")
    session = DynamicGraphSession(graph.copy())
    for name, query in queries.items():
        session.register(name, name, query=query)
    work = graph.copy()
    for window in windows[:WARMUP]:
        session.update_stream(window)
        for batch in window:
            apply_updates(work, batch)

    failures = []
    before = capture(session)
    was_quarantined = {name for name, r in session._queries.items() if r.quarantined}
    states = [r.state for r in session._queries.values()]
    applied = session.batches_applied
    rolled_back, baselines = fail_window(session, mode, windows[WARMUP], rng)
    if rolled_back:
        after = capture(session)
        failures += [(name, "state") for name in before if after[name] != before[name]]
        failures += [(name, "ΔO base") for name, old in baselines.items() if old != before[name][0]]
        if session.batches_applied != applied or session.graph != work:
            failures.append(("session", "reference graph"))
        failures += [
            (name, "replica") for name, r in session._queries.items() if r.graph != session.graph
        ]
        # A query quarantined inside the failed window is rolled back to
        # its pre-window state, so the retry maintains it incrementally.
        failures += [
            (name, "quarantine flag")
            for name, r in session._queries.items()
            if r.quarantined != (name in was_quarantined)
        ]
        recomputed = []
        real_recompute = session._recompute

        def recording(registered, graph=None, old_values=None):
            recomputed.append(registered.name)
            return real_recompute(registered, graph, old_values)

        session._recompute = recording
        try:
            session.update_stream(windows[WARMUP])  # the retry commits
        finally:
            del session._recompute
        failures += [(name, "retry recomputed") for name in recomputed]
    for batch in windows[WARMUP]:
        apply_updates(work, batch)
    armed = states + [r.state for r in session._queries.values()]
    if any(state.undo is not None for state in armed):
        failures.append(("session", "undo log left armed"))
    failures += [(name, "next window") for name in answers_off_batch(session, work, queries)]
    for window in windows[WARMUP + 1 :]:
        session.update_stream(window)
        for batch in window:
            apply_updates(work, batch)
        failures += [(name, "later window") for name in answers_off_batch(session, work, queries)]
    return failures, rolled_back


def kernel_leg_mismatches(seed: int):
    """Kernel-engine applies under a hand-armed undo log, then rewound."""
    graph, windows, queries = scenario(seed)
    failures = []
    for name in KERNEL & set(queries):
        batch_cls, inc_cls = ALGORITHM_PAIRS[name]
        work, inc = graph.copy(), inc_cls()
        state = batch_cls().run(work.copy(), queries[name])
        for window in windows[:WARMUP]:
            for batch in window:
                inc.apply(work, state, batch, queries[name], engine="kernel")
        before = copy.deepcopy((state.values, state.timestamps))
        clock, rounds = state.clock, state.rounds
        state.undo = {}
        written = set()
        for batch in windows[WARMUP]:
            result = inc.apply(work, state, batch, queries[name], engine="kernel")
            written |= set(result.changes)
        logged = set(state.undo)
        state.rewind()
        state.clock, state.rounds = clock, rounds
        if (state.values, state.timestamps) != before or state.undo is not None:
            failures.append((name, "rewind"))
        if not written <= logged:
            failures.append((name, "changed key missing from the log"))
    return failures


class TestRollbackSweep:
    @pytest.mark.parametrize("mode", MODES)
    def test_failed_windows_restore_every_query(self, mode):
        failures, rollbacks = {}, 0
        for seed in range(SEEDS):
            bad, rolled_back = rollback_mismatches(seed, mode)
            rollbacks += rolled_back
            if bad:
                failures[seed] = bad
        assert not failures, f"{len(failures)} failing seeds: {failures}"
        # A window with fewer than k update calls commits; the other
        # modes fail every window.
        assert rollbacks >= (SEEDS // 2 if mode == "mid-drain" else SEEDS)

    def test_kernel_applies_rewind_from_the_log(self):
        failures = {}
        for seed in range(SEEDS):
            bad = kernel_leg_mismatches(seed)
            if bad:
                failures[seed] = bad
        assert not failures, f"{len(failures)} failing seeds: {failures}"
