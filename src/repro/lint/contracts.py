"""Semantic verification of ``FixpointSpec`` contracts on tiny workloads.

Where :mod:`repro.lint.ast_checks` reads the spec's source, this module
*executes* it on small generated graphs and update batches and checks the
algebraic side-conditions of the paper's theorems:

* **C2** — the update functions are contracting (Eq. 4: a replayed batch
  run never moves a variable upward in ``⪯``) and monotonic (raising the
  inputs in ``⪯`` never lowers the output), and ``x^⊥`` really is a top
  for the fixpoint (C101–C103);
* **C1** — the anchor structure is sound: every variable the update
  batch invalidates is reachable from the repair seeds through
  ``anchor_dependents`` (C104), and the resulting scope satisfies
  ``H⁰ ⊆ AFF`` (C105, via :mod:`repro.core.boundedness`);
* the **declared input sets** are honest: ``update`` reads only declared
  inputs (C106) and ``changed_input_keys`` covers every variable whose
  declared input set evolved under ``ΔG`` (C107);
* end to end, the deduced incremental run reaches the fixpoint a
  from-scratch batch run reaches on ``G ⊕ ΔG`` (C108);
* a declared :meth:`~repro.core.spec.FixpointSpec.derivative` is exact
  op by op: after each op of the expanded ``ΔG`` every variable equals a
  full ``update``, and every key it writes is one ``changed_input_keys``
  names for that op (C110).

A failed probe is *evidence of a bug*; a passing probe is evidence, not
proof — the workloads are small and random (but seeded, so runs are
reproducible).  Each check stops at the first workload that trips it, and
any exception inside a spec hook surfaces as C109 rather than crashing
the linter.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from ..core.boundedness import verify_relative_boundedness
from ..core.engine import new_state, run_batch
from ..core.incremental import IncrementalAlgorithm
from ..core.spec import FixpointSpec, defines_derivative
from ..graph.graph import Graph
from ..graph.updates import Batch, EdgeDeletion, apply_updates, updated_copy
from . import rules
from .report import LintFinding


@dataclass
class Workload:
    """One ``(G, Q, ΔG)`` probe; ``delta`` must apply cleanly to ``graph``."""

    graph: Graph
    query: Any
    delta: Batch
    tag: str = ""


@dataclass
class ContractOptions:
    """Per-spec calibration of the contract pass.

    ``check_scope``/``check_divergence`` exist for specs whose generic
    incrementalization is known not to apply (e.g. Coreness ships a
    custom ``IncCoreness``, so C105's generic-scope replay is
    meaningless); ``incremental_factory`` supplies the registered
    incremental algorithm for the C108 divergence check when it is not
    the generic one; ``anchor_deletion_only`` restricts the C104 probe to
    deletion batches for specs whose insertions are handled outside the
    Figure-4 repair loop.
    """

    check_scope: bool = True
    check_divergence: bool = True
    anchor_deletion_only: bool = False
    incremental_factory: Optional[Callable[[], Any]] = None
    sample: int = 40
    seed: int = 0
    max_eval_factor: int = 50


def _sorted_keys(keys: Iterable) -> List:
    return sorted(keys, key=repr)


def _examples(keys: Iterable, limit: int = 3) -> str:
    shown = _sorted_keys(keys)
    suffix = ", ..." if len(shown) > limit else ""
    return ", ".join(repr(k) for k in shown[:limit]) + suffix


def _where(workload: Workload) -> str:
    return f"workload {workload.tag or '?'}"


# ----------------------------------------------------------------------
# C101 — contraction (Eq. 4), replayed without the engine's guard
# ----------------------------------------------------------------------
def _check_contracting(spec, workload, options) -> List[LintFinding]:
    """FIFO pull replay from ``D^⊥`` applying *every* differing value.

    The production engine skips upward moves by design (its contracting
    guard), which would mask exactly the violation this rule looks for —
    so the replay applies them and reports the first one.
    """
    order = spec.order
    if order is None:
        return []
    graph, query = workload.graph, workload.query
    state = new_state(spec, graph, query)
    values = state.values
    work = deque(k for k in spec.initial_scope(graph, query) if k in values)
    cap = options.max_eval_factor * max(len(values), 1) + 200
    evals = 0
    while work:
        key = work.popleft()
        if key not in values:
            continue
        evals += 1
        if evals > cap:
            return [LintFinding(
                rules.NOT_CONTRACTING, spec.name,
                f"unguarded batch replay did not reach a fixpoint within "
                f"{cap} evaluations ({_where(workload)}); the update "
                "functions oscillate or diverge under ⪯",
            )]
        new = spec.update(key, values.__getitem__, graph, query)
        old = values[key]
        if new == old:
            continue
        if not order.leq(new, old):
            return [LintFinding(
                rules.NOT_CONTRACTING, spec.name,
                f"update({key!r}) moved {old!r} -> {new!r}, which is upward "
                f"in ⪯ ({_where(workload)}); Eq. 4 requires f(Y) ⪯ x at "
                "every step of the batch run",
            )]
        values[key] = new
        work.extend(d for d in spec.dependents(key, graph, query) if d in values)
    return []


# ----------------------------------------------------------------------
# C102 — monotonicity of f on its inputs
# ----------------------------------------------------------------------
def _check_monotonic(spec, workload, options) -> List[LintFinding]:
    """Compare f on three pointwise-ordered assignments: final ⪯ mix ⪯ initial."""
    order = spec.order
    if order is None:
        return []
    graph, query = workload.graph, workload.query
    final = run_batch(spec, graph, query, engine="generic").values
    initial = {k: spec.initial_value(k, graph, query) for k in final}
    rng = random.Random(options.seed)
    mix = {k: final[k] if rng.random() < 0.5 else initial[k] for k in final}

    def getter(assignment: Dict) -> Callable:
        return lambda k: assignment.get(k, spec.initial_value(k, graph, query))

    keys = _sorted_keys(final)
    if len(keys) > options.sample:
        keys = rng.sample(keys, options.sample)
    for key in keys:
        lo = spec.update(key, getter(final), graph, query)
        mid = spec.update(key, getter(mix), graph, query)
        hi = spec.update(key, getter(initial), graph, query)
        for below, above, pair in ((lo, mid, "final⪯mix"), (mid, hi, "mix⪯initial")):
            if not order.leq(below, above):
                return [LintFinding(
                    rules.NOT_MONOTONIC, spec.name,
                    f"update({key!r}) is not order-preserving: inputs "
                    f"{pair} pointwise but f gave {below!r} vs {above!r} "
                    f"({_where(workload)}); C2 requires Y ⪯ Y' ⇒ "
                    "f(Y) ⪯ f(Y')",
                )]
    return []


# ----------------------------------------------------------------------
# C103 — x^⊥ dominates the fixpoint
# ----------------------------------------------------------------------
def _check_initial_top(spec, workload, options) -> List[LintFinding]:
    order = spec.order
    if order is None:
        return []
    graph, query = workload.graph, workload.query
    final = run_batch(spec, graph, query, engine="generic").values
    bad = {
        k
        for k, v in final.items()
        if not order.leq(v, spec.initial_value(k, graph, query))
    }
    if bad:
        return [LintFinding(
            rules.INITIAL_NOT_TOP, spec.name,
            f"{len(bad)} variable(s) finished above their initial value in "
            f"⪯ (e.g. {_examples(bad)}; {_where(workload)}); x^⊥ must be a "
            "feasible upper bound or the contracting engine cannot start "
            "from it",
        )]
    return []


# ----------------------------------------------------------------------
# C104 — anchor-set soundness
# ----------------------------------------------------------------------
def _check_anchor_sound(spec, workload, options) -> List[LintFinding]:
    """Every ⪯-raised variable must be in the anchor closure of the seeds.

    The resumed step function only *lowers* values; a variable whose new
    fixpoint is above its old one can only be repaired by the Figure-4
    loop, which walks ``anchor_dependents`` from ``repair_seed_keys``
    (called as the drivers call it: old state, old deleted-edge weights).
    An unreachable raised variable means the incremental run would keep a
    stale value.

    The probe starts from the batch fixpoint of ``G``, then applies ``ΔG``
    one op at a time with the incremental algorithm and re-checks the
    remaining ops from each state it reaches.  Incremental applies lay
    timestamps down in other orders than a batch run (a CC root repaired
    back to its own id is stamped after the nodes it labels), and the
    seed tests must hold on those states too.
    """
    order = spec.order
    if order is None or not spec.repair_with_scope_function:
        return []
    graph, query = workload.graph.copy(), workload.query
    graph_new = graph.copy()
    delta = apply_updates(graph_new, workload.delta, expand=True)
    if options.anchor_deletion_only:
        # Keep only deletions valid against the *base* graph: a batch is a
        # stream, so a deletion of an edge inserted earlier in it would
        # dangle once the insertions are dropped.
        kept = [
            u
            for u in delta
            if isinstance(u, EdgeDeletion) and graph.has_edge(u.u, u.v)
        ]
        if not kept:
            return []
        graph_new = updated_copy(graph, kept)
        delta = Batch(kept)
    new_values = run_batch(spec, graph_new, query, engine="generic").values
    state = run_batch(spec, graph, query, engine="generic")
    inc = (
        options.incremental_factory()
        if options.incremental_factory is not None
        else IncrementalAlgorithm(spec, engine="generic")
    )
    ops = list(delta)
    for k, op in enumerate(ops):
        missing = _unreached_raised(spec, graph, graph_new, query, state, Batch(ops[k:]), new_values)
        if missing:
            return [LintFinding(
                rules.ANCHOR_UNSOUND, spec.name,
                f"{len(missing)} variable(s) raised by ΔG are unreachable from "
                f"the repair seeds through anchor_dependents (e.g. "
                f"{_examples(missing)}; {_where(workload)}, after {k} of "
                f"{len(ops)} ops applied incrementally); the scope function "
                "would leave them at stale, infeasible values",
            )]
        inc.apply(graph, state, Batch([op]), query)
        if state.values != run_batch(spec, graph, query, engine="generic").values:
            return []  # A_Δ itself diverged: C108's finding, not this one
    return []


def _unreached_raised(spec, graph, graph_new, query, state, delta, new_values) -> Set:
    """Variables raised from ``state`` (the fixpoint of ``graph``) to
    ``new_values`` that the repair seeds of ``delta`` cannot reach."""
    order = spec.order
    old = state.values
    raised = {k for k, v in new_values.items() if k in old and not order.leq(v, old[k])}
    if not raised:
        return set()

    def old_value_of(k):
        if k in old:
            return old[k]
        return spec.initial_value(k, graph_new, query)

    applied = apply_updates(graph.copy(), delta, expand=True)
    seeds = spec.repair_seed_keys(applied, graph_new, query, state, applied.old_weights)
    closure: Set = {k for k in seeds if k in old}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for z in spec.anchor_dependents(x, old_value_of, state.timestamp, graph_new, query):
            if z not in closure and z in old:
                closure.add(z)
                frontier.append(z)
    return raised - closure


# ----------------------------------------------------------------------
# C105 — H⁰ ⊆ AFF (delegates to core.boundedness)
# ----------------------------------------------------------------------
def _check_scope_bounded(spec, workload, options) -> List[LintFinding]:
    if not options.check_scope or not spec.repair_with_scope_function:
        return []
    report = verify_relative_boundedness(
        spec, workload.graph, workload.delta, workload.query
    )
    if not report.scope_bounded:
        return [LintFinding(
            rules.SCOPE_UNBOUNDED, spec.name,
            f"scope function produced |H⁰|={report.scope_size} not "
            f"contained in |AFF|={report.aff_size} ({_where(workload)}); "
            "C1 fails, so Theorem 3 gives no boundedness guarantee",
        )]
    return []


# ----------------------------------------------------------------------
# C106 — update reads only declared inputs
# ----------------------------------------------------------------------
def _declares_inputs(spec, workload) -> bool:
    graph, query = workload.graph, workload.query
    for key in spec.variables(graph, query):
        return spec.input_keys(key, graph, query) is not None
    return False


def _check_declared_inputs(spec, workload, options) -> List[LintFinding]:
    if not _declares_inputs(spec, workload):
        return []
    graph, query = workload.graph, workload.query
    final = run_batch(spec, graph, query, engine="generic").values
    rng = random.Random(options.seed)
    keys = _sorted_keys(final)
    if len(keys) > options.sample:
        keys = rng.sample(keys, options.sample)
    for key in keys:
        reads: Set = set()

        def recording_value_of(k):
            reads.add(k)
            if k in final:
                return final[k]
            return spec.initial_value(k, graph, query)

        spec.update(key, recording_value_of, graph, query)
        declared = set(spec.input_keys(key, graph, query)) | {key}
        stray = reads - declared
        if stray:
            return [LintFinding(
                rules.UNDECLARED_INPUT, spec.name,
                f"update({key!r}) read {_examples(stray)} outside its "
                f"declared input_keys ({_where(workload)}); the scope "
                "function cannot see changes to undeclared inputs",
            )]
    return []


# ----------------------------------------------------------------------
# C107 — changed_input_keys covers every evolved input set
# ----------------------------------------------------------------------
def _check_changed_inputs(spec, workload, options) -> List[LintFinding]:
    if not _declares_inputs(spec, workload):
        return []
    graph, query = workload.graph, workload.query
    graph_new = graph.copy()
    delta = apply_updates(graph_new, workload.delta, expand=True)
    old_vars = set(spec.variables(graph, query))
    new_vars = set(spec.variables(graph_new, query))
    covered = set(spec.changed_input_keys(delta, graph_new, query))
    evolved = set()
    for key in old_vars & new_vars:
        before = set(spec.input_keys(key, graph, query))
        after = set(spec.input_keys(key, graph_new, query))
        if before != after:
            evolved.add(key)
    missing = evolved - covered
    if missing:
        return [LintFinding(
            rules.CHANGED_INPUTS_INCOMPLETE, spec.name,
            f"{len(missing)} variable(s) whose declared input set evolved "
            f"under ΔG are missing from changed_input_keys (e.g. "
            f"{_examples(missing)}; {_where(workload)}); they would never "
            "enter H⁰",
        )]
    return []


# ----------------------------------------------------------------------
# C108 — incremental fixpoint == from-scratch fixpoint on G ⊕ ΔG
# ----------------------------------------------------------------------
def _check_divergence(spec, workload, options) -> List[LintFinding]:
    if not options.check_divergence:
        return []
    graph = workload.graph.copy()
    query, delta = workload.query, workload.delta
    state = run_batch(spec, graph, query, engine="generic")
    inc = (
        options.incremental_factory()
        if options.incremental_factory is not None
        else IncrementalAlgorithm(spec, engine="generic")
    )
    inc.apply(graph, state, delta, query)
    fresh = run_batch(spec, graph, query, engine="generic")
    diff = {
        k
        for k in set(state.values) | set(fresh.values)
        if state.values.get(k) != fresh.values.get(k)
    }
    if diff:
        return [LintFinding(
            rules.INCREMENTAL_DIVERGENCE, spec.name,
            f"incremental run disagrees with a from-scratch batch run on "
            f"G ⊕ ΔG at {len(diff)} variable(s) (e.g. {_examples(diff)}; "
            f"{_where(workload)})",
        )]
    return []


# ----------------------------------------------------------------------
# C110 — a declared derivative agrees with full updates, op by op
# ----------------------------------------------------------------------
def _check_derivative(spec, workload, options) -> List[LintFinding]:
    """Replay the expanded ΔG one op at a time, as the incremental apply does.

    After each op the derived values must equal a full ``update`` of
    *every* variable — a dropped term shows up on a key the derivative
    never wrote — and the keys it writes must lie in the op's
    ``changed_input_keys`` (the PE variables of Theorem 1).
    """
    if not defines_derivative(spec):
        return []
    graph = workload.graph.copy()
    query = workload.query
    values = dict(run_batch(spec, graph, query, engine="generic").values)
    findings: List[LintFinding] = []

    def check(op) -> None:
        if findings:
            return  # stop at the first op that trips the check
        unit = Batch([op])
        for key in spec.removed_variables(unit, graph, query):
            values.pop(key, None)
        for key in spec.new_variables(unit, graph, query):
            values.setdefault(key, spec.initial_value(key, graph, query))
        net: Dict = {}
        spec.derivative(op, graph, query, net)
        written = {key for key, step in net.items() if step}
        stray = written - set(spec.changed_input_keys(unit, graph, query))
        if stray:
            findings.append(LintFinding(
                rules.DERIVATIVE_DIVERGENCE, spec.name,
                f"derivative of {op!r} wrote {_examples(stray)} outside "
                f"changed_input_keys ({_where(workload)}); a variable "
                "whose inputs did not evolve cannot change",
            ))
            return
        for key in written & values.keys():
            values[key] += net[key]
        wrong = {
            key
            for key in values
            if values[key] != spec.update(key, values.__getitem__, graph, query)
        }
        if wrong:
            findings.append(LintFinding(
                rules.DERIVATIVE_DIVERGENCE, spec.name,
                f"after {op!r} the derived values differ from a full update "
                f"at {len(wrong)} variable(s) (e.g. {_examples(wrong)}; "
                f"{_where(workload)}); the increments miss or miscount a term",
            ))

    # One apply pass calls ``check`` after each expanded op, on the graph
    # with exactly that op applied, as the incremental apply derives.
    apply_updates(graph, workload.delta, on_op=check)
    return findings


_CHECKS = (
    ("contracting", _check_contracting),
    ("monotonic", _check_monotonic),
    ("initial-top", _check_initial_top),
    ("anchor-sound", _check_anchor_sound),
    ("scope-bounded", _check_scope_bounded),
    ("declared-inputs", _check_declared_inputs),
    ("changed-inputs", _check_changed_inputs),
    ("divergence", _check_divergence),
    ("derivative", _check_derivative),
)


def check_spec_contracts(
    spec: FixpointSpec,
    workloads: List[Workload],
    options: Optional[ContractOptions] = None,
) -> List[LintFinding]:
    """Run every contract check over the workloads.

    Each check stops at the first workload that trips it (one finding per
    rule keeps reports readable); exceptions inside spec hooks become
    C109 findings instead of crashing the pass.
    """
    options = options or ContractOptions()
    findings: List[LintFinding] = []
    for check_name, check in _CHECKS:
        for workload in workloads:
            try:
                produced = check(spec, workload, options)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                findings.append(LintFinding(
                    rules.CHECK_CRASHED, spec.name,
                    f"{check_name} check raised {type(exc).__name__}: {exc} "
                    f"({_where(workload)})",
                ))
                break
            if produced:
                findings.extend(produced)
                break
    return findings
