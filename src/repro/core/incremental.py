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

The result records the output changes ``ΔO`` such that
``Q(G ⊕ ΔG) = Q(G) ⊕ ΔO`` (the correctness equation of Section 2), plus
separate access counters for the ``h`` phase and the resumed fixpoint —
the split the paper reports in Exp-2(2d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Set, Tuple

from ..errors import FixpointError, IncrementalizationError
from ..graph.graph import Graph
from ..graph.updates import Batch, apply_updates
from ..metrics.counters import AccessCounter, NullCounter
from ..resilience.faults import inject
from .engine import check_engine, run_batch, run_fixpoint
from .scope import initial_scope
from .spec import FixpointSpec
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


class BatchAlgorithm:
    """A runnable batch algorithm ``A`` wrapping a :class:`FixpointSpec`.

    ``engine`` selects the execution path for :meth:`run` — ``"auto"``
    (dense CSR kernels when the spec declares one and no counter is
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
        # Dense context reused across applies (kernels.incremental); None
        # until the first kernel apply, dropped when it goes stale.
        self._kernel_ctx = None
        # Realized-|AFF| EWMA maintained by apply_stream's scheduler.
        self._aff_ewma = 0.0

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
        one apply — the stream scheduler uses this to pick the path per
        op without reconfiguring the algorithm.
        ``max_evals`` bounds the resumed fixpoint's update-function
        evaluations (a runaway-drain budget; exceeding it raises
        :class:`~repro.errors.FixpointError`); budgeted applies take the
        generic path, where evaluations are countable.
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
        self._kernel_ctx = None  # generic apply invalidates any dense mirror

        result = IncrementalResult(
            h_counter=AccessCounter(trace=trace) if counting else NullCounter(),
            engine_counter=AccessCounter(trace=trace) if counting else NullCounter(),
        )
        delta = delta.expanded(graph)
        apply_updates(graph, delta)
        inject("incremental.mid-apply")  # ΔG committed, fixpoint not yet resumed
        changelog = state.start_changelog()

        saved_counter = state.counter
        try:
            state.counter = result.h_counter
            scope = initial_scope(self.spec, graph, query, state, delta)
            result.scope = scope

            state.counter = result.engine_counter
            relaxations = self.spec.relaxation_pairs(delta, graph, query)
            if relaxations is None:
                engine_scope = scope
            else:
                # Insertion seeds are relaxed per edge; only variables the
                # repair pass touched — plus deletion-derived seeds — need
                # a full evaluation by the resumed step function.
                engine_scope = {
                    key
                    for key in self.spec.repair_seed_keys(delta, graph, query)
                    if key in state.values
                }
                engine_scope.update(key for key in changelog if key in state.values)
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
        stream,
        query: Any = None,
        window: int = None,
        engine: str = None,
        max_evals: Optional[int] = None,
    ):
        """Apply a whole update stream through the coalescing scheduler.

        ``stream`` yields :class:`Batch` or unit :class:`Update` items.
        Consecutive edge updates are coalesced into normalized windows
        (``window`` ops, default :data:`repro.kernels.scheduler.WINDOW`)
        and each flushed batch is routed kernel-vs-generic from the
        estimated |AFF| plus realized-|AFF| feedback; pass ``engine`` to
        force one path for every apply; ``max_evals`` is one budget for
        the whole stream, as :meth:`apply` has for one batch.  Mutates ``graph`` and ``state`` like the
        equivalent :meth:`apply` sequence and returns a
        :class:`~repro.kernels.scheduler.StreamResult` with the composed
        ``ΔO`` and per-apply routing stats.
        """
        from ..kernels.scheduler import WINDOW, schedule_stream

        return schedule_stream(
            self,
            graph,
            state,
            stream,
            query,
            window=WINDOW if window is None else window,
            engine=engine,
            max_evals=max_evals,
        )


def incrementalize(spec: FixpointSpec) -> Tuple[BatchAlgorithm, IncrementalAlgorithm]:
    """The paper's deduction in one call: ``A`` and its ``A_Δ``."""
    return BatchAlgorithm(spec), IncrementalAlgorithm(spec)
