"""Deducing incremental algorithms ``A_Δ`` from fixpoint specs (Eqs. 2–3).

:class:`IncrementalAlgorithm` packages the paper's construction: given
the fixpoint state of a batch run of ``A`` on ``G`` and updates ``ΔG``,

1. apply ``ΔG`` to the graph (``G ⊕ ΔG``),
2. run the initial scope function ``h`` (Figure 4, via
   :func:`repro.core.scope.initial_scope`) to obtain a feasible status
   ``D⁰`` and the scope ``H⁰``, and
3. resume the *batch* step function ``f_A`` from ``(D⁰, H⁰)`` until the
   new fixpoint (Lemma 2 guarantees convergence to the same result as a
   from-scratch batch run).

Step 1 is one pass (:func:`~repro.graph.updates.apply_updates` with
``expand=True``): it expands vertex updates, reads the old weight of
every deleted edge and mutates the graph, and hands the spec hooks the
expanded batch with its flat edge and vertex views.

A spec that declares a :meth:`~repro.core.spec.FixpointSpec.derivative`
(LCC) replaces steps 1–3 by finite differencing: the same pass calls the
derivative after each op, on the graph with exactly that op applied,
and the derivative adds that op's increments into one dict; vertex
variables are retired and seeded, and every non-zero net increment is
written in one :meth:`~repro.core.state.FixpointState.replay`; no step
function runs.

The result records the output changes ``ΔO`` such that
``Q(G ⊕ ΔG) = Q(G) ⊕ ΔO`` (the correctness equation of Section 2), plus
separate access counters for the ``h`` phase and the resumed fixpoint —
the split the paper reports in Exp-2(2d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..errors import FixpointError, IncrementalizationError
from ..graph.graph import Graph
from ..graph.updates import Batch, Update, apply_updates
from ..metrics.counters import AccessCounter, NullCounter
from ..resilience.faults import inject
from .engine import check_engine, run_batch, run_fixpoint
from .scope import initial_scope, vertex_variables
from .spec import FixpointSpec, defines_derivative
from .state import FixpointState


@dataclass
class IncrementalResult:
    """Outcome of one incremental application of ``ΔG``.

    Attributes
    ----------
    changes:
        ``ΔO`` as ``{variable: (old_value, new_value)}`` — only variables
        whose value actually differs between the two fixpoints (plus
        retired/created variables, with ``None`` on the missing side).
    scope:
        The initial scope ``H⁰`` produced by ``h``.
    h_counter / engine_counter:
        Data-access counters for the scope-function phase and the resumed
        step-function phase respectively.
    kernel_stats:
        ``None`` for generic applies; for kernel applies a dict with the
        per-op touched-node counters (``touched``, ``writes``, ``pops``)
        — the |AFF|-proportionality evidence.
    """

    changes: Dict[Hashable, Tuple[Any, Any]] = field(default_factory=dict)
    scope: Set[Hashable] = field(default_factory=set)
    h_counter: AccessCounter = field(default_factory=AccessCounter)
    engine_counter: AccessCounter = field(default_factory=AccessCounter)
    kernel_stats: Optional[Dict[str, Any]] = None

    @property
    def affected_size(self) -> int:
        """Realized |AFF| of this apply: touched nodes when the kernel
        measured them, otherwise |ΔO| ∪ |H⁰| from the generic driver."""
        if self.kernel_stats is not None:
            return self.kernel_stats["touched"]
        return len(set(self.changes) | self.scope)

    @property
    def total_accesses(self) -> int:
        return self.h_counter.total + self.engine_counter.total

    @property
    def scope_share(self) -> float:
        """Fraction of the total cost spent in ``h`` (Exp-2(2d))."""
        total = self.total_accesses
        return self.h_counter.total / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"IncrementalResult(|ΔO|={len(self.changes)}, |H⁰|={len(self.scope)}, "
            f"accesses={self.total_accesses})"
        )


def compose_changes(
    changes: Dict[Hashable, Tuple[Any, Any]], later: Dict[Hashable, Tuple[Any, Any]]
) -> None:
    """Fold a later ``ΔO`` into ``changes`` in place: first old value
    wins, last new value wins, and keys whose value round-trips drop out.

    Exact only when both sides are complete: a created variable carries
    ``None`` as its old value and a retired one ``None`` as its new.
    """
    for key, (old, new) in later.items():
        if key in changes:
            old = changes[key][0]
        if old == new:
            changes.pop(key, None)
        else:
            changes[key] = (old, new)


class BatchAlgorithm:
    """A runnable batch algorithm ``A`` wrapping a :class:`FixpointSpec`.

    ``engine`` selects the execution path for :meth:`run` — ``"auto"``
    (dense kernels when the spec declares one and no counter is
    live), ``"generic"``, or ``"kernel"`` (raise rather than fall back).
    """

    def __init__(self, spec: FixpointSpec, engine: str = "auto") -> None:
        self.spec = spec
        self.engine = engine

    @property
    def name(self) -> str:
        return self.spec.name

    def run(self, graph: Graph, query: Any = None, counter: AccessCounter = None) -> FixpointState:
        """Compute the fixpoint ``D^r_A`` of ``A`` on ``(Q, G)``."""
        return run_batch(self.spec, graph, query, counter=counter, engine=self.engine)

    def answer(self, state: FixpointState, graph: Graph, query: Any = None) -> Any:
        """Extract ``Q(G)`` from a fixpoint state."""
        return self.spec.extract(state.values, graph, query)

    def __call__(self, graph: Graph, query: Any = None) -> Any:
        """Compute and extract ``Q(G)`` in one call."""
        return self.answer(self.run(graph, query), graph, query)


class IncrementalAlgorithm:
    """The incremental algorithm ``A_Δ`` deduced from a spec.

    ``A_Δ`` is *deducible* when the spec does not use timestamps and
    *weakly deducible* when it does (Section 4); :attr:`deducible`
    reports which.

    Usage::

        batch = BatchAlgorithm(spec)
        inc = IncrementalAlgorithm(spec)
        state = batch.run(graph, query)
        result = inc.apply(graph, state, delta, query)   # mutates graph+state

    After :meth:`apply`, ``graph`` is ``G ⊕ ΔG`` and ``state`` is the new
    fixpoint, so batches can be applied repeatedly.
    """

    def __init__(self, spec: FixpointSpec, engine: str = "auto") -> None:
        check_engine(engine)
        self.spec = spec
        self.engine = engine
        # Kernel context reused across applies (kernels.incremental); None
        # until the first kernel apply, dropped when it goes stale.
        self._kernel_ctx = None

    @property
    def name(self) -> str:
        return f"Inc{self.spec.name}"

    @property
    def deducible(self) -> bool:
        """True for deducible, False for weakly deducible (timestamps)."""
        return not self.spec.uses_timestamps

    def apply(
        self,
        graph: Graph,
        state: FixpointState,
        delta: Batch,
        query: Any = None,
        trace: bool = False,
        measure: bool = False,
        engine: str = None,
        max_evals: Optional[int] = None,
    ) -> IncrementalResult:
        """Apply ``ΔG``; mutate ``graph`` and ``state``; return ``ΔO``.

        ``measure=True`` counts every data access (the paper's cost
        metric, needed for scope-share and boundedness reports);
        ``trace=True`` additionally records *which* variables were
        touched.  Both default off so timed runs carry no instrumentation
        overhead.  ``engine`` overrides the instance default for this
        one apply; :meth:`apply_stream` uses it to stay on the generic
        engine.
        ``max_evals`` bounds the resumed fixpoint's update-function
        evaluations (a runaway-drain budget; exceeding it raises
        :class:`~repro.errors.FixpointError`); budgeted applies take the
        generic path, where evaluations are countable.  A spec with a
        derivative evaluates no update function, so the budget is moot.
        """
        if engine is None:
            engine = self.engine
        check_engine(engine)
        if not isinstance(delta, Batch):
            delta = Batch(list(delta))
        if not state.values:
            raise IncrementalizationError(
                "incremental run started from an empty state; run the batch algorithm first"
            )

        counting = measure or trace
        if engine != "generic" and not counting and max_evals is None:
            from ..kernels.incremental import kernel_apply

            try:
                result, self._kernel_ctx = kernel_apply(
                    self.spec, graph, state, delta, query, self._kernel_ctx
                )
            except BaseException:
                # A strict-apply error may have left the graph partially
                # updated; never trust the mirror afterwards.
                self._kernel_ctx = None
                raise
            if result is not None:
                return result
            if engine == "kernel":
                from ..kernels.engine import unsupported_reason

                raise FixpointError(
                    "engine='kernel' unavailable for this apply: "
                    f"{unsupported_reason(self.spec, graph, query) or 'state not lowerable'}"
                )
        elif engine == "kernel":
            cause = "measure/trace" if counting else "a max_evals step budget"
            raise IncrementalizationError(
                f"engine='kernel' cannot run with {cause}; use the generic engine"
            )
        self._kernel_ctx = None  # generic apply invalidates any kernel context

        result = IncrementalResult(
            h_counter=AccessCounter(trace=trace) if counting else NullCounter(),
            engine_counter=AccessCounter(trace=trace) if counting else NullCounter(),
        )
        derivative = self.spec.derivative if defines_derivative(self.spec) else None
        if derivative is None:
            delta = apply_updates(graph, delta, expand=True)
            # Figure 4's repair seeds, taken while state still holds the
            # old values and timestamps.
            repair_seeds = self.spec.repair_seed_keys(
                delta, graph, query, state, delta.old_weights
            )
        else:
            # Finite differencing: each op's increments are taken on the
            # graph with exactly that op applied, so a triangle closed by
            # several new edges is counted once, by the last of them.
            increments: Dict[Hashable, Any] = {}
            delta = apply_updates(
                graph,
                delta,
                expand=True,
                on_op=lambda op: derivative(op, graph, query, increments),
            )
        inject("incremental.mid-apply")  # ΔG committed, fixpoint not yet resumed
        changelog = state.start_changelog()

        saved_counter = state.counter
        try:
            state.counter = result.h_counter
            if derivative is not None:
                # H⁰: the seeded variables plus every one an increment moved.
                scope = vertex_variables(self.spec, graph, query, state, delta)
                state.counter = result.engine_counter
                values = state.values
                writes = {
                    key: values[key] + step
                    for key, step in increments.items()
                    if step and key in values
                }
                state.replay(writes.items())
                scope.update(writes)
                if counting:
                    for key in scope:
                        result.h_counter.on_scope_push(key)
                result.scope = scope
            else:
                scope = initial_scope(self.spec, graph, query, state, delta, repair_seeds)
                result.scope = scope

                state.counter = result.engine_counter
                relaxations = self.spec.relaxation_pairs(delta, graph, query)
                if relaxations is None:
                    engine_scope = scope
                else:
                    # Insertion seeds are relaxed per edge; only variables the
                    # scope function wrote need a full evaluation by the
                    # resumed step function: an unwritten repair seed has no
                    # input better than before (docs/theory.md,
                    # "Anchor-tested repair seeds").
                    engine_scope = {key for key in changelog if key in state.values}
                run_fixpoint(
                    self.spec,
                    graph,
                    query,
                    state=state,
                    scope=engine_scope,
                    max_evals=max_evals,
                    relaxations=relaxations,
                )
        finally:
            state.counter = saved_counter
            state.stop_changelog()

        for key, old_value in changelog.items():
            new_value = state.values.get(key)
            if old_value != new_value:
                result.changes[key] = (old_value, new_value)
        return result

    def apply_stream(
        self,
        graph: Graph,
        state: FixpointState,
        stream: Iterable,
        query: Any = None,
        max_evals: Optional[int] = None,
    ) -> IncrementalResult:
        """Apply a whole update stream as one ``ΔG``.

        ``stream`` yields :class:`Batch` or unit :class:`Update` items;
        their ops, concatenated in order, make one batch that takes one
        generic :meth:`apply` with ``max_evals`` as its budget.  A ``ΔG``
        may carry vertex updates and insert/delete churn on one edge, so
        nothing is reordered or cancelled first: A_Δ's scope function
        already covers the whole batch.  Mutates ``graph`` and ``state``
        like the equivalent :meth:`apply` sequence and returns that
        apply's result (an empty one for an empty stream).
        """
        ops: List[Update] = []
        for item in stream:
            ops.extend(item.updates if isinstance(item, Batch) else [item])
        if not ops:
            return IncrementalResult()
        inject("scheduler.mid-stream")
        return self.apply(graph, state, Batch(ops), query, engine="generic", max_evals=max_evals)


def incrementalize(spec: FixpointSpec) -> Tuple[BatchAlgorithm, IncrementalAlgorithm]:
    """The paper's deduction in one call: ``A`` and its ``A_Δ``."""
    return BatchAlgorithm(spec), IncrementalAlgorithm(spec)
