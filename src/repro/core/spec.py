"""The fixpoint-algorithm abstraction (Section 3 of the paper).

A batch algorithm ``A ∈ Φ`` is described to this library as a
:class:`FixpointSpec`: the set of status variables ``Ψ_A``, the update
function ``f_{x_i}`` with its input set ``Y_{x_i}``, the scheduling
discipline of the step function ``f_A``, and — for the bounded
incrementalization of Section 4 — the partial order making the algorithm
contracting and monotonic, the anchor sets ``C_{x_i}``, and the mapping
from updates ``ΔG`` to variables whose input sets evolve.

Given a spec, :func:`repro.core.engine.run_batch` executes the batch
computation (Eq. 1) through the step-function driver
:func:`~repro.core.engine.run_fixpoint`, and :class:`repro.core.incremental.IncrementalAlgorithm`
deduces the incremental counterpart ``A_Δ`` (Eqs. 2–3) using the generic
initial scope function of Figure 4.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Tuple

from ..graph.graph import Graph, Node
from ..graph.updates import Batch, Update
from .orders import PartialOrder
from .state import FixpointState

Key = Hashable
Value = Any
ValueGetter = Callable[[Key], Value]


class FixpointSpec(ABC):
    """Declarative description of a fixpoint algorithm ``A``.

    Subclasses must define the *model* hooks (variables, initial values,
    update functions, dependency structure).  For bounded
    incrementalization (Theorem 3), they additionally define the *anchor*
    hooks — :meth:`order_key`, :meth:`anchor_dependents`, and
    :meth:`changed_input_keys` — which together implement the topological
    order ``<_C`` and the change-propagation capture of Section 4.

    Class attributes
    ----------------
    name:
        Human-readable algorithm name (used in benchmark tables).
    order:
        The partial order ``⪯`` under which the algorithm is contracting
        and monotonic, or ``None`` for non-contracting specs (e.g. LCC)
        that rely on Theorem 1 only.
    uses_timestamps:
        True for *weakly deducible* incrementalizations that derive
        ``<_C`` from timestamps (CC, Sim); false for *deducible* ones that
        derive it from final values (SSSP, DFS, LCC).
    """

    name: str = "fixpoint"
    order: Optional[PartialOrder] = None
    uses_timestamps: bool = False
    #: Whether the scope function runs the Figure-4 repair loop.  Specs
    #: whose update functions read the graph only (no status-variable
    #: inputs, e.g. LCC) set this to False: seeding the scope is enough,
    #: since the resumed step function recomputes each seed exactly once.
    repair_with_scope_function: bool = True
    #: Whether :meth:`edge_candidate` gives an exact single-input bound on
    #: ``f``.  When true the engine propagates changes *push*-style —
    #: relaxing one dependent per edge like Dijkstra — instead of
    #: re-pulling whole input sets, which matters on high-degree hubs.
    supports_push: bool = False
    #: Lint rules (ids or names, see :mod:`repro.lint.rules`) that this
    #: spec deliberately opts out of.  Suppressions are a public admission
    #: — each one should carry a comment citing why the contract is
    #: waived.  No built-in spec needs one.
    lint_suppress: frozenset = frozenset()

    # ------------------------------------------------------------------
    # Model hooks: Ψ_A, x^⊥, f_{x_i}, Y_{x_i}, scheduling
    # ------------------------------------------------------------------
    @abstractmethod
    def variables(self, graph: Graph, query: Any) -> Iterable[Key]:
        """Enumerate the status variables ``Ψ_A``."""

    @abstractmethod
    def initial_value(self, key: Key, graph: Graph, query: Any) -> Value:
        """The initial value ``x_i^⊥`` (the top of ``⪯`` for this variable)."""

    @abstractmethod
    def update(self, key: Key, value_of: ValueGetter, graph: Graph, query: Any) -> Value:
        """Evaluate ``f_{x_i}(Y_{x_i})``.

        ``value_of`` reads the current value of any status variable; every
        call is counted by the engine's instrumentation.  The function
        must be *pure* given the graph and the read variables.
        """

    @abstractmethod
    def dependents(self, key: Key, graph: Graph, query: Any) -> Iterable[Key]:
        """Variables ``x_j`` whose input set ``Y_{x_j}`` contains ``x_i``.

        When ``x_i`` changes, these are added to the scope ``H`` by the
        step function.
        """

    def input_keys(self, key: Key, graph: Graph, query: Any) -> Optional[Iterable[Key]]:
        """Enumerate the input set ``Y_{x_i}`` of :meth:`update` explicitly.

        The forward image of :meth:`dependents`: ``y ∈ input_keys(x)`` iff
        ``x ∈ dependents(y)``.  Declaring it (a superset is fine) lets
        :mod:`repro.lint` verify two C1 preconditions that the framework
        otherwise has to trust — that ``update`` reads no undeclared
        status variables, and that :meth:`changed_input_keys` really
        covers every variable whose input set evolved under ``ΔG``.

        Return ``None`` (the default) to leave the input set implicit;
        the corresponding lint rules are then skipped.
        """
        return None

    def initial_scope(self, graph: Graph, query: Any) -> Iterable[Key]:
        """``H⁰`` for the batch run — variables that may violate σ initially.

        Defaults to all variables, which is always sound.
        """
        return self.variables(graph, query)

    def edge_candidate(
        self, dep: Key, cause: Key, cause_value: Value, graph: Graph, query: Any
    ) -> Value:
        """The contribution of ``cause``'s new value to dependent ``dep``.

        Only used when :attr:`supports_push` is true.  Must satisfy
        ``f_{dep}(Y) = min_⪯ over inputs of edge_candidate(...)`` so that
        push-based relaxation reaches the same fixpoint as pull-based
        re-evaluation (e.g. SSSP: ``cause_value + L(cause, dep)``).
        """
        raise NotImplementedError(f"{type(self).__name__} does not support push propagation")

    def relaxation_pairs(self, delta: Batch, graph_new: Graph, query: Any):
        """Per-edge relaxations replacing full evaluations of insertion seeds.

        For push-capable specs, a variable whose input set only *grew* can
        be updated by relaxing the new inputs alone: ``f(Y ∪ {y}) =
        min_⪯(f(Y), candidate(y))`` and the stored value already equals
        ``f(Y)``.  Return ``(cause, dep)`` pairs — one per inserted edge
        direction — and the engine will relax instead of re-pulling the
        seed's whole input set.  Return ``None`` (the default) to fall
        back to full seed evaluation.
        """
        return None

    def priority(self, key: Key, cause_value: Value) -> Any:
        """Scheduling priority for pushing ``key`` into the scope.

        ``cause_value`` is the just-written value of the variable whose
        change scheduled ``key``.  Return ``None`` (the default) for FIFO
        scheduling; return a sortable value for priority scheduling (e.g.
        Dijkstra pops in order of settled distance).
        """
        return None

    def kernel(self):
        """Declare a dense scalar kernel for this spec, or ``None``.

        Push-capable node-keyed specs whose ``edge_candidate`` reduces to
        one of the scalar combine operators of
        :mod:`repro.kernels.spec` can return a
        :class:`~repro.kernels.spec.KernelSpec` here; the engines then
        lower eligible runs onto dense arrays with no per-edge Python
        dispatch (see ``docs/performance.md``).  The declaration is a
        *claim* checked by lint rule S008 — the scalar kernel must agree
        with ``edge_candidate`` on sampled inputs — and by the
        differential tests.  The default ``None`` keeps the spec on the
        generic interpreter.
        """
        return None

    # ------------------------------------------------------------------
    # Anchor hooks: <_C, C_{x_i}, and ΔG → evolved input sets (Section 4)
    # ------------------------------------------------------------------
    def order_key(self, key: Key, value: Value, timestamp: int) -> Any:
        """The position of ``x_i`` in the topological order ``<_C``.

        Deducible specs derive this from the final value (e.g. SSSP uses
        the distance itself); weakly deducible specs use the timestamp.
        The default uses the timestamp, which is always a valid
        linearization of the batch run's change propagation.  The scope
        function breaks ties of this key by old timestamp, so tied values
        need no spec-side tie-break.
        """
        return timestamp

    def changed_input_keys(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Key]:
        """Variables whose update-function input sets evolved due to ``ΔG``.

        This seeds both ``H⁰`` and the repair queue of the scope function
        (Figure 4, line 1).  ``graph_new`` is ``G ⊕ ΔG``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define changed_input_keys; "
            "it cannot be incrementalized with the generic scope function"
        )

    def repair_seed_keys(
        self,
        delta: Batch,
        graph_new: Graph,
        query: Any,
        state: FixpointState,
        old_weights: Dict[Tuple[Node, Node], float],
    ) -> Iterable[Key]:
        """The changed-input variables that may be *infeasible* (Figure 4, C1).

        A stored value can only violate feasibility when ``ΔG`` removed
        one of its anchors (a member of ``C_x``), so that its update
        function could now evaluate *above* it in ``⪯`` (SSSP/CC: heads
        of deleted edges that supported them; Sim: tails of inserted
        edges that may resurrect them).  Only these enter the Figure-4
        repair queue; the other changed-input variables still seed
        ``H⁰`` for the resumed step function, which handles all
        lowering.

        ``delta`` is the :class:`~repro.graph.updates.ExpandedBatch` that
        the incremental apply's one :func:`~repro.graph.updates.apply_updates`
        pass recorded: its ``edges`` list holds ``(u, v, inserted)`` per edge
        op (``repro.algorithms._common.edge_updates`` returns it as is).
        ``state`` is the fixpoint of ``G``: both drivers call this hook
        before writing any value, so its values and timestamps are the
        old ones.  ``old_weights`` (the record's ``old_weights``) maps
        each deleted edge of ``G`` to its weight there, read by the pass
        before it removed the edge; a deletion missing from it was
        inserted earlier in the batch.  A spec uses them for a local
        O(|ΔG|) anchor test.  The default is the full changed set, which
        is always correct.
        """
        return self.changed_input_keys(delta, graph_new, query)

    def anchor_dependents(
        self,
        key: Key,
        value_of: ValueGetter,
        timestamp_of: Callable[[Key], int],
        graph_new: Graph,
        query: Any,
    ) -> Iterable[Key]:
        """Variables ``z`` with ``x_i ∈ C_z`` (Figure 4, line 9).

        Consulted when ``x_i`` is found infeasible: every variable whose
        anchor set contains ``x_i`` may be infeasible too.  Only edges of
        the *updated* graph need to be consulted — anchor edges removed by
        ``ΔG`` are already covered by :meth:`changed_input_keys`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define anchor_dependents; "
            "it cannot be incrementalized with the generic scope function"
        )

    def derivative(
        self, update: Update, graph_new: Graph, query: Any, increments: Dict[Key, Value]
    ) -> None:
        """Add the changes one update makes to the fixpoint into ``increments``.

        ``update`` is one op of the *expanded* ``ΔG`` and ``graph_new``
        the graph with that op, and every op before it, applied: the
        incremental apply's :func:`~repro.graph.updates.apply_updates` pass calls
        the derivative from its ``on_op`` callback right after the op
        took effect, so the whole batch is expanded and applied in one
        walk.  ``increments`` is the driver's ``{key: net increment}``
        dict for the whole batch: add each step of this op into it
        (``increments[key] = increments.get(key, 0) + step``) and return
        nothing.  ``IncrementalAlgorithm.apply`` then adds each non-zero
        net increment to the stored value in one write-back, instead of
        re-evaluating the PE variables of Theorem 1 (finite
        differencing).  Only variables whose update functions read the
        graph alone can be derived this way: the increments must add up
        to what a full :meth:`update` would give after the op, and every
        key must be one :meth:`changed_input_keys` names for it (lint
        rule C110 checks both).  Variables created or retired by the
        batch are seeded and dropped by ``apply``, so increments to
        them need no special casing.

        The default adds nothing: the spec has no derivative, and the
        incremental apply runs the scope function and the resumed step
        function.
        """

    def new_variables(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Key]:
        """Variables introduced by vertex insertions in ``ΔG``.

        The incremental driver initializes these to ``x^⊥`` before running
        the scope function (Section 4, "Vertex updates").  The default
        returns nothing, which is correct for pure edge updates.
        """
        return ()

    def removed_variables(self, delta: Batch, graph_new: Graph, query: Any) -> Iterable[Key]:
        """Variables retired by vertex deletions in ``ΔG``."""
        return ()

    # ------------------------------------------------------------------
    # Result extraction
    # ------------------------------------------------------------------
    def extract(self, values: dict, graph: Graph, query: Any) -> Any:
        """Turn the fixpoint variable assignment into the query answer Q(G).

        Defaults to returning the raw variable map.
        """
        return dict(values)


def defines_derivative(spec: FixpointSpec) -> bool:
    """Whether ``spec`` overrides :meth:`FixpointSpec.derivative`."""
    return type(spec).derivative is not FixpointSpec.derivative
