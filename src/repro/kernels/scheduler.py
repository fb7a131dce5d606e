"""Update-stream scheduling: coalescing windows + per-op engine choice.

High-rate update streams arrive as *unit* batches, and PR 2's honest
benchmark shows why that is the kernel layer's worst case: every apply
pays fixed mirror/bookkeeping cost against near-zero |AFF| work.  The
scheduler amortizes that cost at the stream level instead of per op:

1. **Coalescing** — consecutive edge updates are buffered into a window
   (default :data:`WINDOW`) and reduced to their net effect with
   :meth:`~repro.graph.updates.Batch.normalized` against the *current*
   graph, so insert/delete churn on the same edge cancels exactly and a
   window of w unit ops becomes one apply.  Vertex updates flush the
   window and travel alone (normalization must not reorder them past
   edge ops on the same endpoints).
2. **Per-op engine choice** — each flushed batch is routed to the kernel
   or the generic engine from an a-priori |AFF| estimate
   (:func:`~repro.core.engine.estimate_affected`, an anchor degree-sum)
   corrected by an EWMA of the *realized* |AFF| of recent applies.  The
   estimator cannot see cascades (a flap stream has tiny anchor degrees
   but thousand-node repairs); the feedback term can, which is what lets
   the scheduler warm the kernel mirror exactly when cascades pay for it.
3. **Amortized rebuilds** — routing through one persistent
   :class:`~repro.core.incremental.IncrementalAlgorithm` reuses its
   dense context across the whole stream, so overlay rebuilds follow the
   existing ``delta_ops`` policy instead of happening per op.

ΔO is composed across applies (first-old/last-new per key, identities
dropped), so a stream's :class:`StreamResult` satisfies the same
``Q(G ⊕ ΔG) = Q(G) ⊕ ΔO`` correctness equation as a single apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from ..core.engine import estimate_affected
from ..graph.graph import Graph
from ..graph.updates import Batch, Update, VertexDeletion, VertexInsertion
from ..resilience.faults import inject

#: Default coalescing window: unit ops buffered before one normalized apply.
WINDOW = 16
#: EWMA smoothing for the realized-|AFF| feedback.
EWMA_ALPHA = 0.3


@dataclass
class StreamResult:
    """Outcome of one scheduled stream: composed ΔO plus routing stats."""

    changes: Dict[Hashable, Tuple[Any, Any]] = field(default_factory=dict)
    ops: int = 0                 #: raw updates consumed from the stream
    applies: int = 0             #: coalesced applies actually executed
    kernel_applies: int = 0
    generic_applies: int = 0
    coalesced_away: int = 0      #: updates cancelled by normalization
    stats: List[Dict[str, Any]] = field(default_factory=list)  #: per-apply

    def kernel_totals(self) -> Dict[str, int]:
        """Sum this stream's per-apply counters into one window total.

        Every apply contributes its *own* fresh counters — per-apply
        ``kernel_stats`` dicts are born zeroed, never carried across
        applies — so the sum is exactly the work of this stream and
        nothing before it.  This is what the serve ``stats`` endpoint
        accumulates (and resets) per reporting window, keeping
        touched/writes numbers per-window instead of cumulative-forever.
        """
        totals = {
            "applies": self.applies,
            "kernel_applies": self.kernel_applies,
            "generic_applies": self.generic_applies,
            "touched": 0,
            "writes": 0,
        }
        for entry in self.stats:
            totals["touched"] += entry.get("realized", 0)
            kernel = entry.get("kernel")
            if kernel:
                totals["writes"] += kernel["writes"]
        return totals

    def __repr__(self) -> str:
        return (
            f"StreamResult(ops={self.ops}, applies={self.applies}, "
            f"kernel={self.kernel_applies}, generic={self.generic_applies}, "
            f"|ΔO|={len(self.changes)})"
        )


def _compose(changes: Dict[Hashable, Tuple[Any, Any]], step: Dict[Hashable, Tuple[Any, Any]]) -> None:
    """Fold one apply's ΔO into the running composition (first old wins,
    last new wins, keys whose value round-trips drop out)."""
    for key, (old, new) in step.items():
        if key in changes:
            old = changes[key][0]
        if old == new:
            changes.pop(key, None)
        else:
            changes[key] = (old, new)


def schedule_stream(
    inc,
    graph: Graph,
    state,
    stream: Iterable,
    query: Any = None,
    window: int = WINDOW,
    engine: Optional[str] = None,
    max_evals: Optional[int] = None,
) -> StreamResult:
    """Drive ``inc`` over a stream of updates with coalescing + routing.

    ``stream`` yields :class:`Batch` or bare :class:`Update` items;
    ``engine`` forces every apply onto one path (``None`` lets the
    AFF policy choose per op); ``max_evals`` is one evaluation budget
    for the whole stream, shared by its applies.  Mutates ``graph`` and ``state`` exactly as the equivalent sequence of
    :meth:`IncrementalAlgorithm.apply` calls would, and returns the
    composed :class:`StreamResult`.
    """
    result = StreamResult()
    pending: List[Update] = []
    budget = max_evals

    def flush() -> None:
        if not pending:
            return
        batch = Batch(list(pending))
        pending.clear()
        net = batch.normalized(directed=graph.directed, graph=graph)
        result.coalesced_away += len(batch) - len(net)
        if net.updates:
            _apply_one(net)

    def _apply_one(net: Batch) -> None:
        nonlocal budget
        inject("scheduler.mid-stream")
        est = estimate_affected(graph, net)
        if engine is not None:
            pick = engine
        else:
            # Warm mirror → the kernel's marginal cost is already paid;
            # cold → only pay the O(n+m) context build when either the
            # anchor estimate or the realized-|AFF| trend says the
            # repairs are big enough to amortize it.
            n, m = graph.num_nodes, graph.num_edges
            cold_cut = max(64, (n + m) // 16)
            hot_cut = max(32, n // 64)
            warm = getattr(inc, "_kernel_ctx", None) is not None
            if warm or est >= cold_cut or inc._aff_ewma >= hot_cut:
                pick = "auto"
            else:
                pick = "generic"
        rounds = state.rounds
        r = inc.apply(graph, state, net, query, engine=pick, max_evals=budget)
        if budget is not None:
            budget -= state.rounds - rounds  # evaluations this apply spent
        realized = r.affected_size
        inc._aff_ewma += EWMA_ALPHA * (realized - inc._aff_ewma)
        _compose(result.changes, r.changes)
        result.applies += 1
        used_kernel = r.kernel_stats is not None
        if used_kernel:
            result.kernel_applies += 1
        else:
            result.generic_applies += 1
        result.stats.append(
            {
                "engine": "kernel" if used_kernel else "generic",
                "size": len(net),
                "est": est,
                "realized": realized,
                "kernel": r.kernel_stats,
            }
        )

    for item in stream:
        updates = item.updates if isinstance(item, Batch) else [item]
        for u in updates:
            result.ops += 1
            if isinstance(u, (VertexInsertion, VertexDeletion)):
                flush()
                pending.append(u)
                flush()
            else:
                pending.append(u)
                if len(pending) >= window:
                    flush()
    flush()

    # Each apply seeds (re-)created variables silently at their initial
    # value, so a delete-then-recreate across applies would compose to
    # ``(old, None)``.  Settle every new side against the live fixpoint
    # so the returned ΔO really maps Q(G) onto Q(G ⊕ ΔG).
    values = state.values
    for key, (old, _new) in list(result.changes.items()):
        live = values.get(key)
        if old == live:
            del result.changes[key]
        else:
            result.changes[key] = (old, live)
    return result
