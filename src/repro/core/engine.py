"""The generic step-function driver (Eq. 1 of the paper).

A fixpoint algorithm ``A`` computes

    ``(D^{t+1}, H^{t+1}) = f_A(D^t, Q, G, H^t)``

by repeatedly selecting status variables from the scope ``H``, applying
their update functions, and — whenever a value changes — adding the
affected variables (those whose input sets contain the changed one) back
into the scope.  :func:`run_fixpoint` implements exactly this loop for
any :class:`~repro.core.spec.FixpointSpec`.

Scheduling
----------
The paper's framework leaves the selection policy to the algorithm:
Dijkstra pops the smallest tentative distance, CC uses a plain worklist.
Lemma 2 (Church–Rosser) guarantees that for contracting and monotonic
algorithms *any* schedule converges to the same fixpoint, so the policy
affects efficiency only.  Specs choose via :attr:`FixpointSpec.priority`:
returning ``None`` selects FIFO; returning a sortable value selects a
binary-heap schedule.

Contracting guard
-----------------
For specs with a declared partial order the engine applies only
*downward* moves (``new ≺ old``).  Starting from a feasible status — the
initial ``D^⊥`` of a batch run, or the ``D⁰`` produced by a correct scope
function — upward re-evaluations are transient over-approximations and
skipping them is safe (the variable will be re-evaluated when its inputs
settle); applying them would break the contracting invariant (Eq. 4).
Specs without an order (LCC) get every differing value applied.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Hashable, Iterable, Optional

from ..errors import FixpointError
from ..graph.graph import Graph
from ..metrics.counters import NullCounter
from ..resilience.faults import inject
from .spec import FixpointSpec
from .state import FixpointState


def new_state(spec: FixpointSpec, graph: Graph, query: Any, counter=None) -> FixpointState:
    """Seed ``D^⊥``: every variable of ``Ψ_A`` at its initial value."""
    state = FixpointState(counter=counter)
    for key in spec.variables(graph, query):
        state.seed(key, spec.initial_value(key, graph, query))
    return state


class _Worklist:
    """FIFO or heap-ordered scope ``H`` with lazy duplicate handling.

    FIFO mode deduplicates in-queue keys: re-adding a variable that is
    already awaiting evaluation cannot change the result (the eventual
    evaluation reads the then-current inputs), so the duplicate entry
    would only buy a redundant re-evaluation.  :meth:`push` reports
    whether the key was actually enqueued so callers can keep their
    scope-push counters faithful.  Heap mode keeps duplicates: each entry
    carries the priority of the change that scheduled it, and the stale
    ones are cheap pops against an already-settled value.
    """

    __slots__ = ("_deque", "_heap", "_queued", "_tick")

    def __init__(self, prioritized: bool) -> None:
        self._deque: Optional[deque] = None if prioritized else deque()
        self._heap: Optional[list] = [] if prioritized else None
        self._queued: set = set()
        self._tick = 0

    def push(self, key: Hashable, priority: Any) -> bool:
        if self._heap is not None:
            self._tick += 1
            heapq.heappush(self._heap, (priority, self._tick, key))
            return True
        if key in self._queued:
            return False
        self._queued.add(key)
        self._deque.append(key)
        return True

    def pop(self) -> Hashable:
        if self._heap is not None:
            return heapq.heappop(self._heap)[2]
        key = self._deque.popleft()
        self._queued.discard(key)
        return key

    def __bool__(self) -> bool:
        return bool(self._heap) if self._heap is not None else bool(self._deque)

    def __len__(self) -> int:
        return len(self._heap) if self._heap is not None else len(self._deque)


_ENGINES = ("auto", "generic", "kernel")


def check_engine(engine: str) -> None:
    """Raise :class:`~repro.errors.FixpointError` for an unknown engine name."""
    if engine not in _ENGINES:
        raise FixpointError(f"unknown engine {engine!r}; expected one of {_ENGINES}")


def run_fixpoint(
    spec: FixpointSpec,
    graph: Graph,
    query: Any,
    state: FixpointState,
    scope: Optional[Iterable] = None,
    max_evals: Optional[int] = None,
    relaxations: Optional[Iterable] = None,
) -> FixpointState:
    """Resume ``A`` from ``state`` until the scope empties.

    This is how the deduced incremental algorithm reuses the batch step
    function (Eq. 2); a fresh batch run seeds ``D^⊥`` and its initial
    scope first (:func:`run_batch`, which also picks the engine).

    Parameters
    ----------
    state:
        The status the run resumes from, updated in place.
    scope:
        The initial scope ``H⁰``.  Required: ``None`` raises
        :class:`~repro.errors.FixpointError`.
    max_evals:
        Optional safety valve; exceeding it raises
        :class:`~repro.errors.FixpointError` (useful when developing new
        specs whose update functions are not contracting).
    relaxations:
        ``(cause, dep)`` pairs relaxed edge by edge before the drain
        (push-capable specs only; see
        :meth:`~repro.core.spec.FixpointSpec.relaxation_pairs`).

    Returns ``state`` at the fixpoint.
    """
    inject("engine.fixpoint")
    if scope is None:
        raise FixpointError("resuming a fixpoint requires an explicit scope")

    order = spec.order
    counter = state.counter
    counting = not isinstance(counter, NullCounter)
    # Probe the scheduling policy once: a spec either always returns None
    # from priority() (FIFO) or never does (heap).
    scope = list(scope)
    prioritized = bool(scope) and spec.priority(scope[0], None) is not None
    if spec.supports_push:
        return _run_push(spec, graph, query, state, scope, prioritized, max_evals, relaxations)
    if relaxations:
        raise FixpointError("relaxations require a push-capable spec")
    work = _Worklist(prioritized)
    for key in scope:
        pushed = work.push(key, spec.priority(key, state.peek(key)) if prioritized else None)
        if pushed and counting:
            counter.on_scope_push(key)

    evals = 0
    value_of = state.get if counting else state.values.__getitem__
    values = state.values
    while work:
        key = work.pop()
        if key not in values:
            continue  # retired by a vertex deletion
        evals += 1
        if max_evals is not None and evals > max_evals:
            raise FixpointError(f"fixpoint exceeded {max_evals} evaluations; spec may diverge")
        if counting:
            counter.on_eval(key)
        new = spec.update(key, value_of, graph, query)
        old = values[key]
        if new == old:
            continue
        if order is not None and not order.leq(new, old):
            # Upward move on a contracting spec: transient over-approximation,
            # skipped (see module docstring).
            continue
        state.set(key, new)
        for dep in spec.dependents(key, graph, query):
            if dep not in values:
                continue
            pushed = work.push(dep, spec.priority(dep, new) if prioritized else None)
            if pushed and counting:
                counter.on_scope_push(dep)
    state.rounds += evals
    return state


def _run_push(
    spec: FixpointSpec,
    graph: Graph,
    query: Any,
    state: FixpointState,
    scope,
    prioritized: bool,
    max_evals: Optional[int],
    relaxations: Optional[Iterable] = None,
) -> FixpointState:
    """Push-based step function for specs with exact edge candidates.

    Scope seeds get one full (pull) evaluation of ``f``; thereafter every
    change is propagated edge-by-edge: a dependent's value is lowered
    directly when the candidate improves it, never re-pulled.  For
    contracting, monotonic specs whose ``f`` is the ``⪯``-minimum of its
    edge candidates this reaches the same fixpoint (Lemma 2) in
    O(1) work per relaxed edge — the schedule Dijkstra and min-label
    propagation actually use.
    """
    order = spec.order
    if order is None:
        raise FixpointError("push propagation requires a contracting spec (an order)")
    counter = state.counter
    counting = not isinstance(counter, NullCounter)
    values = state.values
    value_of = state.get if counting else values.__getitem__
    lt = order.lt

    work = _Worklist(prioritized)
    evals = 0
    # Seeds: one pull evaluation each; changed seeds start the propagation.
    for key in scope:
        if key not in values:
            continue
        evals += 1
        if counting:
            counter.on_scope_push(key)
            counter.on_eval(key)
        new = spec.update(key, value_of, graph, query)
        if new != values[key] and lt(new, values[key]):
            state.set(key, new)
            work.push(key, spec.priority(key, new) if prioritized else None)

    # Seed relaxations: O(1) per inserted edge instead of a full pull of
    # the head's input set (see FixpointSpec.relaxation_pairs).
    if relaxations is not None:
        for cause, dep in relaxations:
            if cause not in values or dep not in values:
                continue
            if counting:
                counter.on_eval(dep)
            candidate = spec.edge_candidate(dep, cause, values[cause], graph, query)
            if lt(candidate, values[dep]):
                state.set(dep, candidate)
                work.push(dep, spec.priority(dep, candidate) if prioritized else None)

    while work:
        key = work.pop()
        if key not in values:
            continue
        evals += 1
        if max_evals is not None and evals > max_evals:
            raise FixpointError(f"fixpoint exceeded {max_evals} evaluations; spec may diverge")
        cause_value = values[key]
        for dep in spec.dependents(key, graph, query):
            if dep not in values:
                continue
            if counting:
                counter.on_eval(dep)
            candidate = spec.edge_candidate(dep, key, cause_value, graph, query)
            if lt(candidate, values[dep]):
                state.set(dep, candidate)
                pushed = work.push(dep, spec.priority(dep, candidate) if prioritized else None)
                if pushed and counting:
                    counter.on_scope_push(dep)
    state.rounds += evals
    return state


def run_batch(
    spec: FixpointSpec, graph: Graph, query: Any, counter=None, engine: str = "auto"
) -> FixpointState:
    """Convenience: a full batch run of ``A`` on ``(Q, G)`` from ``D^⊥``.

    With ``engine="auto"`` (default), uninstrumented runs of
    kernel-declaring specs take the dense kernel path; any live
    :class:`~repro.metrics.counters.AccessCounter` forces the generic
    interpreter (the kernels do not emit per-access events).
    """
    check_engine(engine)
    instrumented = counter is not None and not isinstance(counter, NullCounter)
    if engine != "generic" and not instrumented:
        from ..kernels.engine import try_run_batch

        state = try_run_batch(spec, graph, query)
        if state is not None:
            if counter is not None:
                state.counter = counter
            return state
        if engine == "kernel":
            from ..kernels.engine import unsupported_reason

            raise FixpointError(
                f"engine='kernel' unavailable: {unsupported_reason(spec, graph, query)}"
            )
    elif engine == "kernel":
        raise FixpointError(
            "engine='kernel' cannot run instrumented (counters require the generic engine)"
        )
    state = new_state(spec, graph, query, counter=counter)
    return run_fixpoint(spec, graph, query, state=state, scope=spec.initial_scope(graph, query))
