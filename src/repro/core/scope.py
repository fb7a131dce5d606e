"""The generic initial scope function ``h`` (Figure 4 of the paper).

Given the previous fixpoint ``D^r_A`` and updates ``ΔG``, ``h`` produces

* an initial scope ``H⁰_{A_Δ}`` seeding the resumed step function, and
* a *feasible* status ``D⁰_{A_Δ}`` for ``G ⊕ ΔG`` — every variable lies
  between its new final value and its initial value under ``⪯``.

The implementation follows Figure 4 line by line:

1. Collect into ``H⁰`` the variables whose update-function input sets
   evolved due to ``ΔG`` (``spec.changed_input_keys``).
2. Initialize a priority queue with those of them that lost an anchor
   to ``ΔG`` (``spec.repair_seed_keys``, a local test on old values),
   ordered by the topological order ``<_C`` induced by anchor sets: the
   lexicographic key ``(spec.order_key, old timestamp)`` — final values
   for deducible specs, timestamps for weakly deducible ones, with the
   old timestamp breaking value ties (docs/theory.md, "Tie-breaking the
   repair order").
3. Pop the smallest variable ``x_i``; build the *feasibilized* input set
   ``Ȳ``: an input keeps its current value only if its *current* key is
   strictly below ``x_i``'s old key, otherwise it is reset to its initial
   value ``y^⊥`` (line 6).  A variable repaired in this pass carries a
   fresh, later timestamp, so it is trusted only when its new value is
   strictly better than ``x_i``'s old one.
4. If the old value is strictly below ``f(Ȳ)`` (``x_i ≺ f(Ȳ)``), the old
   value is potentially infeasible: adopt ``f(Ȳ)``, add ``x_i`` to
   ``H⁰``, and enqueue every ``z`` with ``x_i ∈ C_z``
   (``spec.anchor_dependents``, line 9).

Because contributors precede their dependents in ``<_C``, pops are
monotone in the order and each variable needs processing at most once.

Boundedness: every repaired variable either changes value on ``G ⊕ ΔG``
or has an evolved input set, so ``H⁰ ⊆ AFF`` (Section 4); this is checked
empirically by :mod:`repro.core.boundedness`.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Hashable, Iterable, Set

from ..graph.graph import Graph
from ..graph.updates import Batch
from ..metrics.counters import NullCounter
from .spec import FixpointSpec
from .state import FixpointState


def repair_pass(
    spec: FixpointSpec,
    graph_new: Graph,
    query: Any,
    state: FixpointState,
    seeds: Iterable[Hashable],
    h_scope: Set[Hashable],
) -> Set[Hashable]:
    """Run the Figure-4 repair queue (lines 2–9) over ``seeds``.

    Repairs ``state`` in place toward a feasible ``D⁰`` and adds every
    repaired variable to ``h_scope`` (mutated in place, also returned).
    """
    counter = state.counter
    counting = not isinstance(counter, NullCounter)

    # The order <_C is fixed by the *old* run.  Repairs overwrite values
    # and timestamps in `state`, so keep a lazy overlay of pre-repair
    # values/timestamps for order and anchor computations.
    old_values: Dict[Hashable, Any] = {}
    old_ts: Dict[Hashable, int] = {}
    okey_cache: Dict[Hashable, Any] = {}

    def old_value_of(key: Hashable) -> Any:
        if key in old_values:
            return old_values[key]
        return state.values[key]

    def old_timestamp_of(key: Hashable) -> int:
        if key in old_ts:
            return old_ts[key]
        return state.timestamp(key)

    def okey(key: Hashable) -> Any:
        cached = okey_cache.get(key)
        if cached is None:
            ts = old_timestamp_of(key)
            cached = (spec.order_key(key, old_value_of(key), ts), ts)
            okey_cache[key] = cached
        return cached

    def current_key(key: Hashable) -> Any:
        if key not in old_values:
            return okey(key)  # not repaired: current key == old key
        ts = state.timestamp(key)
        return (spec.order_key(key, state.values[key], ts), ts)

    processed: Set[Hashable] = set()
    tick = 0
    que: list = []
    queued: Set[Hashable] = set()
    for key in seeds:
        tick += 1
        heapq.heappush(que, (okey(key), tick, key))
        queued.add(key)
        if counting:
            counter.on_scope_push(key)

    order = spec.order

    while que:
        x_okey, _, x = heapq.heappop(que)
        if x in processed or x not in state.values:
            continue
        processed.add(x)

        # Lines 4-6: feasibilized evaluation — an input is trusted iff its
        # current key is strictly earlier in <_C than x_i's old key; any
        # other input is reset to its initial value.
        def value_of_feasible(y: Hashable, _x_okey=x_okey) -> Any:
            if counting:
                counter.on_read(y)
            if y in state.values and current_key(y) < _x_okey:
                return state.values[y]
            return spec.initial_value(y, graph_new, query)

        if counting:
            counter.on_eval(x)
        new_value = spec.update(x, value_of_feasible, graph_new, query)
        old_value = state.values[x]

        # Line 7: x_i ≺ f(Ȳ) — the stored value may be infeasible.
        infeasible = (
            order.lt(old_value, new_value)
            if order is not None
            else new_value != old_value
        )
        if not infeasible:
            continue

        # Line 8: repair and record.
        old_values.setdefault(x, old_value)
        old_ts.setdefault(x, state.timestamp(x))
        state.set(x, new_value)
        h_scope.add(x)

        # Line 9: enqueue every z whose anchor set contains x.
        for z in spec.anchor_dependents(x, old_value_of, old_timestamp_of, graph_new, query):
            if z in processed or z in queued or z not in state.values:
                continue
            tick += 1
            heapq.heappush(que, (okey(z), tick, z))
            queued.add(z)
            if counting:
                counter.on_scope_push(z)

    return h_scope


def vertex_variables(
    spec: FixpointSpec,
    graph_new: Graph,
    query: Any,
    state: FixpointState,
    delta: Batch,
) -> Set[Hashable]:
    """Vertex updates (Section 4): retire the variables of deleted nodes
    and seed those of inserted ones at ``x^⊥``; return the seeded keys.

    A variable that is already live (delete-then-reinsert churn within
    ``ΔG``) keeps its value.
    """
    for key in spec.removed_variables(delta, graph_new, query):
        state.drop(key)
    fresh_keys = set()
    for key in spec.new_variables(delta, graph_new, query):
        if key not in state.values:
            state.seed(key, spec.initial_value(key, graph_new, query))
            fresh_keys.add(key)
    return fresh_keys


def initial_scope(
    spec: FixpointSpec,
    graph_new: Graph,
    query: Any,
    state: FixpointState,
    delta: Batch,
    repair_seeds: Iterable[Hashable],
) -> Set[Hashable]:
    """Run ``h``: repair ``state`` to ``D⁰`` in place and return ``H⁰``.

    ``graph_new`` must already be ``G ⊕ ΔG``; ``state`` must hold the
    fixpoint of the batch run on ``G``.  ``delta`` is the
    :class:`~repro.graph.updates.ExpandedBatch` that
    :func:`~repro.graph.updates.apply_updates` returned for the pass
    that made ``graph_new`` (a plain expanded batch also works; the
    hooks then walk its ops).  ``repair_seeds`` is the result of
    ``spec.repair_seed_keys``, taken on the old ``state`` with that
    record's ``old_weights``, the ``G``-side weights the pass read
    before deleting each edge.
    """
    counter = state.counter
    counting = not isinstance(counter, NullCounter)
    fresh_keys = vertex_variables(spec, graph_new, query, state, delta)

    # Line 1: variables with evolved input sets.
    seeds = {
        key
        for key in spec.changed_input_keys(delta, graph_new, query)
        if key in state.values
    }
    seeds.update(fresh_keys)
    h_scope: Set[Hashable] = set(seeds)

    if not spec.repair_with_scope_function:
        # Dependency-free specs (LCC): the resumed step function recomputes
        # every seed exactly once; a repair pass here would double the work.
        if counting:
            for key in h_scope:
                counter.on_scope_push(key)
        return h_scope

    # Line 2: only variables that lost an anchor to ΔG can be infeasible;
    # the remaining seeds are handled by the resumed step function.
    repair_queue = {
        key for key in repair_seeds if key in state.values and key not in fresh_keys
    }
    return repair_pass(spec, graph_new, query, state, repair_queue, h_scope)
