"""Dense incremental execution: Figure 4 + the resumed push loop on arrays.

:func:`kernel_apply` is the array-level counterpart of
:meth:`repro.core.incremental.IncrementalAlgorithm.apply` for specs that
declare a :class:`~repro.kernels.spec.KernelSpec`.  It keeps a
:class:`KernelContext` alive across update batches: an immutable
:class:`~repro.graph.csr.CSRGraph` snapshot wrapped in a
:class:`~repro.graph.csr.CSROverlay` for the delta adjacency, plus the
fixpoint values mirrored into flat encoded arrays.  Each apply then runs

1. the delta mirror — sequential edge ops into the overlay, net vertex
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
   overlay dict;
3. seed evaluations, per-edge insertion relaxations, and the resumed
   push drain, with the scalar combine inlined over the overlay rows
   (clean base nodes read the snapshot arrays directly);
4. the mirror protocol: retired variables dropped, fresh ones seeded,
   and the ordered write log replayed into the dict state — so ``ΔO``,
   and a valid timestamp linearization of ``<_C``, come out exactly as
   the generic engine's.

Every check that could force a fallback runs *before* the graph is
mutated; once ``apply_updates`` has run, the kernel path is committed.
Returning ``(None, None)`` therefore always leaves graph and state
untouched, and the caller can re-run the generic path idempotently.

The context assumes all graph mutations flow through ``apply``; it
revalidates cheaply (object identity, state clock, node/edge counts) and
rebuilds from a fresh snapshot when the overlay outgrows
``max(64, base_nnz / 4)``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from ..core.incremental import IncrementalResult
from ..core.spec import FixpointSpec
from ..resilience.faults import inject
from ..core.state import FixpointState
from ..graph.csr import CSRGraph, CSROverlay
from ..graph.graph import Graph
from ..graph.updates import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    VertexInsertion,
    apply_updates,
)
from ..metrics.counters import NullCounter
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
        "overlay",
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
        "rebuild_threshold",
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
    """Snapshot ``(graph, state)`` into a dense context, or ``None``."""
    kspec = spec.kernel()
    if kspec is None or spec.order is None:
        return None
    if kspec.undirected_only and graph.directed:
        return None
    if kspec.has_source and not graph.has_node(query):
        return None

    csr = CSRGraph.from_graph(graph)
    node_of = list(csr.node_of)
    index_of = dict(csr.index_of)
    if len(state.values) != len(node_of):
        return None

    decode_map: Optional[Dict[float, Any]] = None
    if kspec.domain == NODE:
        decode_map = {}
        try:
            for node in node_of:
                enc = float(node)
                if enc in decode_map and decode_map[enc] != node:
                    return None
                decode_map[enc] = node
        except (TypeError, ValueError, OverflowError):
            return None
        if len(decode_map) != len(node_of):
            return None

    init: List[float] = []
    val: List[float] = []
    ts: List[int] = []
    try:
        for node in node_of:
            init.append(encode_value(kspec, spec.initial_value(node, graph, query)))
            value = state.values[node]
            enc = encode_value(kspec, value)
            if decode_map is not None:
                # A label must decode back to exactly the object it encodes
                # (stale labels of long-gone nodes included).
                known = decode_map.setdefault(enc, value)
                if known != value:
                    return None
            val.append(enc)
            ts.append(state.timestamps.get(node, -1))
    except (KeyError, TypeError, ValueError, OverflowError):
        return None

    ctx = KernelContext()
    ctx.spec = spec
    ctx.kspec = kspec
    ctx.graph = graph
    ctx.state = state
    ctx.query = query
    ctx.overlay = CSROverlay(csr)
    ctx.node_of = node_of
    ctx.index_of = index_of
    ctx.init = init
    ctx.val = val
    ctx.ts = ts
    ctx.decode_map = decode_map
    ctx.src = index_of[query] if kspec.has_source else -1
    ctx.dead = set()
    ctx.state_clock = state.clock
    ctx.g_nodes = graph.num_nodes
    ctx.g_edges = graph.num_edges
    ctx.rebuild_threshold = max(64, len(csr.indices) // 4)
    return ctx


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
    the generic path.  A returned context of ``None`` alongside a real
    result means the overlay crossed the rebuild threshold and the next
    apply should snapshot afresh.

    The engine phase drains one scalar worklist — a heap for prioritized
    specs, a FIFO otherwise — so its work scales with |AFF|, never n.
    The touched-node counters land in ``result.kernel_stats``.
    """
    if ctx is None or not ctx.matches(graph, state, query):
        ctx = build_context(spec, graph, state, query)
        if ctx is None:
            return None, None

    kspec = ctx.kspec
    index_of = ctx.index_of
    decode_map = ctx.decode_map
    expanded = delta.expanded(graph)

    # ------------------------------------------------------------------
    # Pre-mutation validation: stage the ids of genuinely new nodes.  The
    # only lowering step that can fail past this point is encoding them,
    # so checking here keeps fallback side-effect free.
    if kspec.domain == NODE:
        staged: Dict[float, Any] = {}
        try:
            for u in expanded.updates:
                if isinstance(u, VertexInsertion) and u.v not in index_of:
                    enc = float(u.v)
                    known = decode_map.get(enc, staged.get(enc, u.v))
                    if known != u.v:
                        return None, None
                    staged[enc] = u.v
        except (TypeError, ValueError, OverflowError):
            return None, None

    # ------------------------------------------------------------------
    # Commit: mutate the authoritative graph, then mirror the delta.
    apply_updates(graph, expanded)
    inject("kernel.mid-drain")  # graph committed, mirror/state not yet drained

    overlay = ctx.overlay
    node_of = ctx.node_of
    init = ctx.init
    val = ctx.val
    ts = ctx.ts
    src = ctx.src
    dead = ctx.dead

    created: List[Tuple[Hashable, int]] = []
    for u in expanded.updates:
        if isinstance(u, EdgeInsertion):
            overlay.insert_edge(index_of[u.u], index_of[u.v], u.weight)
        elif isinstance(u, EdgeDeletion):
            overlay.delete_edge(index_of[u.u], index_of[u.v])
        elif isinstance(u, VertexInsertion) and u.v not in index_of:
            i = overlay.add_node()
            index_of[u.v] = i
            node_of.append(u.v)
            enc = encode_value(kspec, spec.initial_value(u.v, graph, query))
            if decode_map is not None:
                decode_map[enc] = u.v
            init.append(enc)
            val.append(enc)
            ts.append(-1)
            created.append((u.v, i))
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

    # ------------------------------------------------------------------
    # Shared row access.  Clean base nodes read the snapshot lists
    # directly; dirty or appended nodes go through the memoized overlay.
    indptr, indices, weights = overlay.indptr, overlay.indices, overlay.weights
    rindptr, rindices, rweights = overlay.rindptr, overlay.rindices, overlay.rweights
    dirty_out, dirty_in = overlay.dirty_out, overlay.dirty_in
    base_n = overlay.base.num_nodes
    combine = kspec.combine

    writes: List[Tuple[int, float]] = []
    h_scope: Set[int] = set(fresh)
    for key in spec.changed_input_keys(expanded, graph, query):
        i = index_of.get(key)
        if i is not None:
            h_scope.add(i)

    # ------------------------------------------------------------------
    # Phase h — the Figure-4 repair queue over dense ids, reading old
    # values/timestamps through a lazy overlay (ts[] itself stays
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

    repair_seeds: Set[int] = set()
    for key in spec.repair_seed_keys(expanded, graph, query):
        i = index_of.get(key)
        if i is not None and i not in fresh:
            repair_seeds.add(i)

    heappush, heappop = heapq.heappush, heapq.heappop
    que: List[Tuple[Any, int, int, int]] = []
    queued: Set[int] = set()
    processed: Set[int] = set()
    tick = 0
    for i in repair_seeds:
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
        # anchors never.  The row iteration and the input's key are
        # inlined per anchor mode — this is the hottest per-edge loop of
        # the repair phase.
        if x == src:
            new = init[x]
        else:
            best = init[x]
            if x < base_n and x not in dirty_in:
                lo, hi = rindptr[x], rindptr[x + 1]
                jw = zip(rindices[lo:hi], rweights[lo:hi])
            else:
                jw = overlay.in_edges(x)
            if not anchor_ts:
                if combine == ADD:
                    for j, w in jw:
                        vj = val[j]
                        if not (
                            vj < x_okey
                            or (vj == x_okey and j not in old_val and ts[j] < x_ts)
                        ):
                            vj = init[j]
                        cand = vj + w
                        if cand < best:
                            best = cand
                else:  # MAXNEG
                    for j, w in jw:
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
            elif boolean:
                for j, _w in jw:
                    vj = val[j]
                    if j in old_val or (
                        (float(ts[j]) if vj != 0.0 else INF), ts[j]
                    ) >= (x_okey, x_ts):
                        vj = init[j]
                    if vj < best:
                        best = vj
            else:  # CC: okey is the raw timestamp
                for j, _w in jw:
                    if j in old_val or ts[j] >= x_okey:
                        vj = init[j]
                    else:
                        vj = val[j]
                    if vj < best:
                        best = vj
            new = best

        oldv = val[x]
        if not oldv < new:
            continue  # still feasible

        old_val[x] = oldv
        val[x] = new
        writes.append((x, new))
        h_scope.add(x)

        # Enqueue every z whose anchor set contains x, judged on the old
        # fixpoint (per-spec mirrors of anchor_dependents).
        if x < base_n and x not in dirty_out:
            olo, ohi = indptr[x], indptr[x + 1]
            zw = zip(indices[olo:ohi], weights[olo:ohi])
        else:
            zw = overlay.out_edges(x)
        if combine == ADD:
            if oldv != INF:
                for z, w in zw:
                    if z != src and z not in processed and z not in queued:
                        ovz = old_val[z] if z in old_val else val[z]
                        if ovz == oldv + w:
                            tick += 1
                            heappush(que, (ovz, ts[z], tick, z))  # okey(z) == ovz here
                            queued.add(z)
        elif combine == MAXNEG:
            if oldv != 0.0:
                for z, w in zw:
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
                for z, _w in zw:
                    if z != src and z not in processed and z not in queued:
                        ovz = old_val[z] if z in old_val else val[z]
                        if ovz != 0.0 and ts[z] > tsx:
                            tick += 1
                            # okey(z) == float(ts[z]) since ovz is truthy
                            heappush(que, (float(ts[z]), ts[z], tick, z))
                            queued.add(z)
        else:  # CC: neighbors whose last change came later
            tsx = ts[x]
            for z, _w in zw:
                if z not in processed and z not in queued and ts[z] > tsx:
                    tick += 1
                    heappush(que, (ts[z], ts[z], tick, z))  # okey(z) == ts[z]
                    queued.add(z)

    # ------------------------------------------------------------------
    # Phase engine — seed pulls, insertion relaxations, push drain.
    # Engine scope mirrors the generic driver's relaxation form: repair
    # seeds (fresh included) plus everything the repair pass wrote.
    eng_seeds: Set[int] = set(old_val)
    for key in spec.repair_seed_keys(expanded, graph, query):
        i = index_of.get(key)
        if i is not None:
            eng_seeds.add(i)

    prioritized = kspec.prioritized
    heap: List[Tuple[float, int]] = []
    dq: deque = deque()
    inq: Set[int] = set()

    for i in eng_seeds:
        if i == src:
            continue  # the source's pinned statement cannot improve
        best = init[i]
        if i < base_n and i not in dirty_in:
            lo, hi = rindptr[i], rindptr[i + 1]
            jw = zip(rindices[lo:hi], rweights[lo:hi])
        else:
            jw = overlay.in_edges(i)
        if combine == ADD:
            for j, w in jw:
                cand = val[j] + w
                if cand < best:
                    best = cand
        elif combine == MAXNEG:
            for j, w in jw:
                vj = val[j]
                nw = -w
                cand = nw if nw > vj else vj
                if cand < best:
                    best = cand
        else:
            for j, _w in jw:
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

    pops = 0
    if prioritized:
        while heap:
            d, i = heappop(heap)
            if d > val[i]:
                continue
            pops += 1
            if i < base_n and i not in dirty_out:
                if combine == ADD:
                    for k in range(indptr[i], indptr[i + 1]):
                        j = indices[k]
                        cand = d + weights[k]
                        if cand < val[j] and j != src:
                            val[j] = cand
                            writes.append((j, cand))
                            heappush(heap, (cand, j))
                else:  # MAXNEG
                    for k in range(indptr[i], indptr[i + 1]):
                        j = indices[k]
                        nw = -weights[k]
                        cand = nw if nw > d else d
                        if cand < val[j] and j != src:
                            val[j] = cand
                            writes.append((j, cand))
                            heappush(heap, (cand, j))
            else:
                if combine == ADD:
                    for j, w in overlay.out_edges(i):
                        cand = d + w
                        if cand < val[j] and j != src:
                            val[j] = cand
                            writes.append((j, cand))
                            heappush(heap, (cand, j))
                else:  # MAXNEG
                    for j, w in overlay.out_edges(i):
                        nw = -w
                        cand = nw if nw > d else d
                        if cand < val[j] and j != src:
                            val[j] = cand
                            writes.append((j, cand))
                            heappush(heap, (cand, j))
    else:
        while dq:
            i = dq.popleft()
            inq.discard(i)
            pops += 1
            v = val[i]
            if i < base_n and i not in dirty_out:
                for k in range(indptr[i], indptr[i + 1]):
                    j = indices[k]
                    if v < val[j] and j != src:
                        val[j] = v
                        writes.append((j, v))
                        if j not in inq:
                            inq.add(j)
                            dq.append(j)
            else:
                for j, _w in overlay.out_edges(i):
                    if v < val[j] and j != src:
                        val[j] = v
                        writes.append((j, v))
                        if j not in inq:
                            inq.add(j)
                            dq.append(j)

    # ------------------------------------------------------------------
    # Finalize — the mirror protocol: drops, fresh seeds, ordered write
    # replay (timestamp provenance for <_C), then ΔO from the changelog.
    # The replay is fused by hand: bulk-decode per domain, then a single
    # loop doing the changelog check, dict writes, and the ts[] resync —
    # the per-write :meth:`FixpointState.set` protocol without its call
    # overhead (this is the largest fixed cost of a small apply).
    result = IncrementalResult(h_counter=NullCounter(), engine_counter=NullCounter())
    values = state.values
    timestamps = state.timestamps
    changelog: Dict[Any, Any] = {}
    counted = not isinstance(state.counter, NullCounter)
    on_write = state.counter.on_write

    for key, _i in drops:
        if key not in changelog:
            changelog[key] = values.get(key)
        values.pop(key, None)
        timestamps.pop(key, None)
    for key, i in created:
        if i not in dead:
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
    # scales with |ΔG| + |AFF|, never n — the counters the benchmarks and
    # the scheduler's AFF feedback read.
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
    if overlay.delta_ops > ctx.rebuild_threshold:
        return result, None  # overlay outgrew the snapshot; rebuild next time
    return result, ctx
