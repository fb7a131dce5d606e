"""Dense incremental execution: Figure 4 + the resumed push loop on arrays.

:func:`kernel_apply` is the array-level counterpart of
:meth:`repro.core.incremental.IncrementalAlgorithm.apply` for specs that
declare a :class:`~repro.kernels.spec.KernelSpec`.  It keeps a
:class:`KernelContext` alive across update batches: the adjacency as one
mutable row dict per dense id (``out_rows``/``in_rows``, the same list
on undirected graphs), plus the fixpoint values mirrored into flat
encoded arrays.  Each apply then runs

1. one :func:`~repro.graph.updates.apply_updates` pass with
   ``expand=True`` — it expands vertex updates, reads the old weights of
   deleted edges and mutates the graph — then the delta mirror: each
   expanded edge op written into both row dicts, net vertex
   retirement/creation via the spec's ``removed_variables`` /
   ``new_variables`` hooks (so delete-then-reinsert churn keeps old
   values, exactly like the generic driver);
2. the Figure-4 repair queue over dense ids, ordered by the spec's
   ``<_C`` — the lexicographic key ``(okey, old timestamp)``, where okey
   is the encoded old value for deducible specs and the old timestamp
   for weakly deducible ones — with feasibilized pulls (an input is
   trusted iff its current key is strictly below the popped node's old
   key; a node repaired in this pass counts as freshly timestamped) and
   per-spec anchor enumeration, all reading *old* values through a lazy
   old-value dict;
3. seed evaluations, per-edge insertion relaxations, and the resumed
   push drain — :func:`~repro.kernels.engine.drain`, the scalar loop a
   batch kernel run is made of too;
4. the mirror protocol: retired variables dropped, fresh ones seeded,
   and the ordered write log replayed into the dict state — so ``ΔO``,
   and a valid timestamp linearization of ``<_C``, come out exactly as
   the generic engine's.

Every row read is ``rows[i].items()`` (or the bare dict where weights do
not matter), so an apply's work scales with |ΔG| + |AFF| however many
ops the context has absorbed.

Every check that could force a fallback runs *before* the graph is
mutated: the context's lowering, and for node-valued specs (CC) the
float encoding of every node the raw batch inserts, scanned before the
pass.  Once ``apply_updates`` has run, the kernel path is committed.
Returning ``(None, None)`` therefore always leaves graph and state
untouched, and the caller can re-run the generic path idempotently.

The context assumes all graph mutations flow through ``apply``; it
revalidates cheaply (object identity, state clock, node/edge counts) and
is dropped once the dense ids retired by vertex churn outnumber the live
ones.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from ..core.incremental import IncrementalResult
from ..core.spec import FixpointSpec
from ..resilience.faults import inject
from ..core.state import ABSENT, FixpointState
from ..graph.graph import Graph
from ..graph.updates import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    VertexInsertion,
    apply_updates,
)
from ..metrics.counters import NullCounter
from .engine import dense_ids, dense_rows, drain, encode_values, lower
from .spec import (
    ADD,
    BOOL,
    MAXNEG,
    NODE,
    TIMESTAMP,
    decode_value,
    encode_value,
)

INF = math.inf


class KernelContext:
    """Dense mirror of one ``(spec, graph, state, query)`` fixpoint."""

    __slots__ = (
        "spec",
        "kspec",
        "graph",
        "state",
        "query",
        "out_rows",
        "in_rows",
        "node_of",
        "index_of",
        "init",
        "val",
        "ts",
        "decode_map",
        "src",
        "dead",
        "state_clock",
        "g_nodes",
        "g_edges",
    )

    def matches(self, graph: Graph, state: FixpointState, query: Any) -> bool:
        """Cheap revalidation that graph and state are the mirrored ones."""
        return (
            self.graph is graph
            and self.state is state
            and self.query == query
            and self.state_clock == state.clock
            and self.g_nodes == graph.num_nodes
            and self.g_edges == graph.num_edges
        )


def build_context(
    spec: FixpointSpec, graph: Graph, state: FixpointState, query: Any
) -> Optional[KernelContext]:
    """Mirror ``(graph, state)`` into a dense context, or ``None``."""
    node_of = list(graph.nodes())
    if len(state.values) != len(node_of):
        return None
    lowered = lower(spec, graph, query, node_of)
    if isinstance(lowered, str):
        return None
    kspec, decode_map, init = lowered
    try:
        raw = [state.values[node] for node in node_of]
        val = encode_values(kspec, raw)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if decode_map is not None:
        # A label must decode back to exactly the object it encodes
        # (stale labels of long-gone nodes included).
        for enc, value in zip(val, raw):
            if decode_map.setdefault(enc, value) != value:
                return None

    index_of = {v: i for i, v in enumerate(node_of)}
    # Graphs built with dense int ids (0..n-1 in order) need no row remap.
    remap = None if dense_ids(node_of) else index_of
    timestamps = state.timestamps
    ctx = KernelContext()
    ctx.spec = spec
    ctx.kspec = kspec
    ctx.graph = graph
    ctx.state = state
    ctx.query = query
    ctx.out_rows = dense_rows(graph._succ, node_of, remap)
    # Undirected graphs share one row list, as Graph._pred is Graph._succ.
    ctx.in_rows = dense_rows(graph._pred, node_of, remap) if graph.directed else ctx.out_rows
    ctx.node_of = node_of
    ctx.index_of = index_of
    ctx.init = init
    ctx.val = val
    ctx.ts = [timestamps.get(node, -1) for node in node_of]
    ctx.decode_map = decode_map
    ctx.src = index_of[query] if kspec.has_source else -1
    ctx.dead = set()
    ctx.state_clock = state.clock
    ctx.g_nodes = graph.num_nodes
    ctx.g_edges = graph.num_edges
    return ctx


def _inserted_nodes(delta: Batch):
    """Every node ``ΔG`` inserts, explicitly or as an edge endpoint."""
    for op in delta.updates:
        if isinstance(op, EdgeInsertion):
            yield op.u
            yield op.v
        elif isinstance(op, VertexInsertion):
            yield op.v
            for e in op.edges:
                yield e.u
                yield e.v


def kernel_apply(
    spec: FixpointSpec,
    graph: Graph,
    state: FixpointState,
    delta: Batch,
    query: Any,
    ctx: Optional[KernelContext],
) -> Tuple[Optional[IncrementalResult], Optional[KernelContext]]:
    """One incremental apply on dense arrays.

    Returns ``(result, context)``; ``(None, None)`` means the apply could
    not be lowered — nothing was mutated and the caller must fall back to
    the generic path.  A real result comes back with its context, unless
    the dense ids retired by vertex churn now outnumber the live ones;
    the next apply then mirrors the graph afresh.

    The engine phase drains one scalar worklist — a heap for prioritized
    specs, a FIFO otherwise — through the shared
    :func:`~repro.kernels.engine.drain`, so its work scales with |AFF|,
    never n.
    The touched-node counters land in ``result.kernel_stats``.
    """
    if ctx is None or not ctx.matches(graph, state, query):
        ctx = build_context(spec, graph, state, query)
        if ctx is None:
            return None, None

    kspec = ctx.kspec
    index_of = ctx.index_of
    decode_map = ctx.decode_map

    # ------------------------------------------------------------------
    # Pre-mutation validation: stage the ids of genuinely new nodes.  The
    # only lowering step that can fail past this point is encoding them,
    # so checking here keeps fallback side-effect free.  A node the batch
    # creates is a vertex insertion or an edge-insertion endpoint that
    # the mirror does not know yet, so the raw batch names them all.
    if kspec.domain == NODE:
        staged: Dict[float, Any] = {}
        try:
            for v in _inserted_nodes(delta):
                if v not in index_of:
                    enc = float(v)
                    known = decode_map.get(enc, staged.get(enc, v))
                    if known != v:
                        return None, None
                    staged[enc] = v
        except (TypeError, ValueError, OverflowError):
            return None, None

    # ------------------------------------------------------------------
    # Commit: one pass expands ΔG, reads the deleted edges' old weights
    # and mutates the authoritative graph; then mirror the delta.
    expanded = apply_updates(graph, delta, expand=True)
    # The dict state is written only at finalize, so the hook still reads
    # old values and timestamps here.
    seed_keys = spec.repair_seed_keys(expanded, graph, query, state, expanded.old_weights)
    inject("kernel.mid-drain")  # graph committed, mirror/state not yet drained

    out_rows, in_rows = ctx.out_rows, ctx.in_rows
    node_of = ctx.node_of
    init = ctx.init
    val = ctx.val
    ts = ctx.ts
    src = ctx.src
    dead = ctx.dead

    created: List[Tuple[Hashable, int]] = []
    for op in expanded.updates:
        kind = type(op)
        if kind is EdgeInsertion:
            a, b = index_of[op.u], index_of[op.v]
            out_rows[a][b] = op.weight
            in_rows[b][a] = op.weight
        elif kind is EdgeDeletion:
            a, b = index_of[op.u], index_of[op.v]
            del out_rows[a][b]
            in_rows[b].pop(a, None)  # an undirected self-loop is one entry
        elif kind is VertexInsertion and op.v not in index_of:
            i = len(node_of)
            out_rows.append({})
            if in_rows is not out_rows:
                in_rows.append({})
            index_of[op.v] = i
            node_of.append(op.v)
            enc = encode_value(kspec, spec.initial_value(op.v, graph, query))
            if decode_map is not None:
                decode_map[enc] = op.v
            init.append(enc)
            val.append(enc)
            ts.append(-1)
            created.append((op.v, i))
        # Re-inserting a key that still has a dense id reuses it with its
        # old value — the same net semantics the generic driver gets from
        # seeding only keys absent from the state.

    drops: List[Tuple[Hashable, int]] = []
    for key in spec.removed_variables(expanded, graph, query):
        i = index_of.pop(key, None)
        if i is not None:
            dead.add(i)
            drops.append((key, i))

    fresh: Set[int] = {i for _k, i in created if i not in dead}

    combine = kspec.combine

    writes: List[Tuple[int, float]] = []
    h_scope: Set[int] = set(fresh)
    for key in spec.changed_input_keys(expanded, graph, query):
        i = index_of.get(key)
        if i is not None:
            h_scope.add(i)

    # ------------------------------------------------------------------
    # Phase h — the Figure-4 repair queue over dense ids, reading old
    # values/timestamps through the lazy old_val dict (ts[] itself stays
    # pre-apply until the final resync, so it *is* the old clock).  The
    # heap orders by (okey, ts): the old timestamp breaks okey ties, the
    # same lexicographic <_C as core.scope.
    old_val: Dict[int, float] = {}
    anchor_ts = kspec.anchor == TIMESTAMP
    boolean = kspec.domain == BOOL

    def okey(i: int):
        if not anchor_ts:
            return old_val[i] if i in old_val else val[i]
        if boolean:
            ov = old_val[i] if i in old_val else val[i]
            return float(ts[i]) if ov != 0.0 else INF
        return ts[i]

    seeds: Set[int] = set()
    for key in seed_keys:
        i = index_of.get(key)
        if i is not None:
            seeds.add(i)

    heappush, heappop = heapq.heappush, heapq.heappop
    que: List[Tuple[Any, int, int, int]] = []
    queued: Set[int] = set()
    processed: Set[int] = set()
    tick = 0
    for i in seeds - fresh:
        tick += 1
        heappush(que, (okey(i), ts[i], tick, i))
        queued.add(i)

    while que:
        x_okey, x_ts, _, x = heappop(que)
        if x in processed:
            continue
        processed.add(x)

        # Feasibilized pull: an input keeps its current value iff its
        # current key is strictly below (x_okey, x_ts), otherwise it is
        # reset to its initial value.  A node repaired in this pass (in
        # old_val) carries a fresh, later timestamp: value anchors trust
        # it only if its new value is strictly below x_okey, timestamp
        # anchors never.  x is written only if the pull ends above its
        # old value, so the pull stops at the first candidate no worse
        # than it.  The row iteration and the input's key are inlined
        # per anchor mode — this is the hottest per-edge loop of the
        # repair phase.
        oldv = val[x]
        best = init[x]
        if x != src and best > oldv:
            row = in_rows[x]
            if not anchor_ts:
                if combine == ADD:
                    for j, w in row.items():
                        vj = val[j]
                        if not (
                            vj < x_okey
                            or (vj == x_okey and j not in old_val and ts[j] < x_ts)
                        ):
                            vj = init[j]
                        cand = vj + w
                        if cand < best:
                            best = cand
                            if cand <= oldv:
                                break
                else:  # MAXNEG
                    for j, w in row.items():
                        vj = val[j]
                        if not (
                            vj < x_okey
                            or (vj == x_okey and j not in old_val and ts[j] < x_ts)
                        ):
                            vj = init[j]
                        nw = -w
                        cand = nw if nw > vj else vj
                        if cand < best:
                            best = cand
                            if cand <= oldv:
                                break
            elif boolean:
                for j in row:
                    vj = val[j]
                    if j in old_val or (
                        (float(ts[j]) if vj != 0.0 else INF), ts[j]
                    ) >= (x_okey, x_ts):
                        vj = init[j]
                    if vj < best:
                        best = vj
                        if vj <= oldv:
                            break
            else:  # CC: okey is the raw timestamp
                for j in row:
                    if j in old_val or ts[j] >= x_okey:
                        vj = init[j]
                    else:
                        vj = val[j]
                    if vj < best:
                        best = vj
                        if vj <= oldv:
                            break
        if not oldv < best:
            continue  # still feasible

        old_val[x] = oldv
        val[x] = best
        writes.append((x, best))
        h_scope.add(x)

        # Enqueue every z whose anchor set contains x, judged on the old
        # fixpoint (per-spec mirrors of anchor_dependents).
        row = out_rows[x]
        if combine == ADD:
            if oldv != INF:
                for z, w in row.items():
                    if z != src and z not in processed and z not in queued:
                        ovz = old_val[z] if z in old_val else val[z]
                        if ovz == oldv + w:
                            tick += 1
                            heappush(que, (ovz, ts[z], tick, z))  # okey(z) == ovz here
                            queued.add(z)
        elif combine == MAXNEG:
            if oldv != 0.0:
                for z, w in row.items():
                    if z != src and z not in processed and z not in queued:
                        nw = -w
                        ovz = old_val[z] if z in old_val else val[z]
                        if ovz == (nw if nw > oldv else oldv):
                            tick += 1
                            heappush(que, (ovz, ts[z], tick, z))  # okey(z) == ovz here
                            queued.add(z)
        elif boolean:
            if oldv != 0.0:
                tsx = ts[x]
                for z in row:
                    if z != src and z not in processed and z not in queued:
                        ovz = old_val[z] if z in old_val else val[z]
                        if ovz != 0.0 and ts[z] > tsx:
                            tick += 1
                            # okey(z) == float(ts[z]) since ovz is truthy
                            heappush(que, (float(ts[z]), ts[z], tick, z))
                            queued.add(z)
        else:  # CC: neighbors whose last change came later
            tsx = ts[x]
            for z in row:
                if z not in processed and z not in queued and ts[z] > tsx:
                    tick += 1
                    heappush(que, (ts[z], ts[z], tick, z))  # okey(z) == ts[z]
                    queued.add(z)

    # ------------------------------------------------------------------
    # Phase engine — seed pulls, insertion relaxations, push drain.
    # Engine scope mirrors the generic driver's relaxation form: the
    # repair seeds plus everything the repair pass wrote.
    eng_seeds: Set[int] = seeds | old_val.keys()

    prioritized = kspec.prioritized
    heap: List[Tuple[float, int]] = []
    dq: deque = deque()
    inq: Set[int] = set()

    for i in eng_seeds:
        if i == src:
            continue  # the source's pinned statement cannot improve
        best = init[i]
        row = in_rows[i]
        if combine == ADD:
            for j, w in row.items():
                cand = val[j] + w
                if cand < best:
                    best = cand
        elif combine == MAXNEG:
            for j, w in row.items():
                vj = val[j]
                nw = -w
                cand = nw if nw > vj else vj
                if cand < best:
                    best = cand
        else:
            for j in row:
                vj = val[j]
                if vj < best:
                    best = vj
        if best < val[i]:
            val[i] = best
            writes.append((i, best))
            if prioritized:
                heappush(heap, (best, i))
            elif i not in inq:
                inq.add(i)
                dq.append(i)

    pairs = spec.relaxation_pairs(expanded, graph, query)
    if pairs:
        for cause, dep in pairs:
            iu = index_of.get(cause)
            iv = index_of.get(dep)
            if iu is None or iv is None or iv == src:
                continue
            vu = val[iu]
            if combine == ADD:
                cand = vu + graph.weight(cause, dep)
            elif combine == MAXNEG:
                nw = -graph.weight(cause, dep)
                cand = nw if nw > vu else vu
            else:
                cand = vu
            if cand < val[iv]:
                val[iv] = cand
                writes.append((iv, cand))
                if prioritized:
                    heappush(heap, (cand, iv))
                elif iv not in inq:
                    inq.add(iv)
                    dq.append(iv)

    pops = drain(kspec, out_rows, val, writes, heap if prioritized else dq, src)

    # ------------------------------------------------------------------
    # Finalize — the mirror protocol: drops, fresh seeds, ordered write
    # replay (timestamp provenance for <_C), then ΔO from the changelog.
    # The replay is fused by hand: bulk-decode per domain, then a single
    # loop doing the changelog check, dict writes, and the ts[] resync —
    # the per-write :meth:`FixpointState.set` protocol without its call
    # overhead (this is the largest fixed cost of a small apply).  A key's
    # first changelog entry is its first touch in this apply, so an armed
    # undo log is fed there.
    result = IncrementalResult(h_counter=NullCounter(), engine_counter=NullCounter())
    values = state.values
    timestamps = state.timestamps
    changelog: Dict[Any, Any] = {}
    undo = state.undo
    counted = not isinstance(state.counter, NullCounter)
    on_write = state.counter.on_write

    for key, _i in drops:
        if key not in changelog:
            changelog[key] = values.get(key)
            if undo is not None and key not in undo:
                undo[key] = (values.get(key, ABSENT), timestamps.get(key, ABSENT))
        values.pop(key, None)
        timestamps.pop(key, None)
    for key, i in created:
        if i not in dead:
            if key not in changelog:
                changelog[key] = values.get(key)
                if undo is not None and key not in undo:
                    undo[key] = (values.get(key, ABSENT), timestamps.get(key, ABSENT))
            values[key] = decode_value(kspec, init[i], decode_map)
            timestamps[key] = -1

    if decode_map is not None:
        dm = decode_map
        decoded = [(node_of[i], dm[v], i) for i, v in writes]
    elif boolean:
        decoded = [(node_of[i], v != 0.0, i) for i, v in writes]
    elif combine == MAXNEG:
        decoded = [(node_of[i], -v + 0.0, i) for i, v in writes]
    else:
        decoded = [(node_of[i], v, i) for i, v in writes]

    clock = state.clock
    for key, value, i in decoded:
        if key not in changelog:
            changelog[key] = values.get(key)
            if undo is not None and key not in undo:
                undo[key] = (values.get(key, ABSENT), timestamps.get(key, ABSENT))
        if counted:
            on_write(key)
        values[key] = value
        timestamps[key] = clock
        ts[i] = clock  # last write wins, matching timestamps[key]
        clock += 1
    state.clock = clock

    for key, old_value in changelog.items():
        new_value = values.get(key)
        if old_value != new_value:
            result.changes[key] = (old_value, new_value)
    result.scope = {node_of[i] for i in h_scope}
    state.rounds += pops + len(eng_seeds)

    # Per-op boundedness evidence: every dense id the apply touched.  It
    # scales with |ΔG| + |AFF|, never n — the counters the benchmarks read.
    touched = {i for i, _v in writes}
    touched.update(h_scope)
    touched.update(eng_seeds)
    result.kernel_stats = {
        "engine": "kernel",
        "touched": len(touched),
        "writes": len(writes),
        "pops": pops,
    }

    ctx.state_clock = state.clock
    ctx.g_nodes = graph.num_nodes
    ctx.g_edges = graph.num_edges
    return result, (ctx if len(dead) <= len(index_of) else None)
