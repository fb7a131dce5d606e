"""Incremental execution on encoded values: Figure 4 + the resumed push loop.

:func:`kernel_apply` is the scalar counterpart of
:meth:`repro.core.incremental.IncrementalAlgorithm.apply` for specs that
declare a :class:`~repro.kernels.spec.KernelSpec`.  It keeps a
:class:`KernelContext` alive across update batches: the fixpoint values
and initial values in the encoded minimizing domain, keyed by node id.
The adjacency is the graph's own (``Graph._succ``/``Graph._pred``, one
dict on undirected graphs): the kernel holds no copy of it, so an edge
op is written once, by the pass.  Each apply then runs

1. one :func:`~repro.graph.updates.apply_updates` pass with
   ``expand=True`` — it expands vertex updates, reads the old weights of
   deleted edges and mutates the graph — then the vertex protocol:
   variables the spec's ``removed_variables`` names are dropped and
   those of ``new_variables`` absent from the state are seeded at
   ``x^⊥``, in the state and the context alike (so delete-then-reinsert
   churn keeps old values, exactly like the generic driver);
2. the Figure-4 repair queue, ordered by the spec's ``<_C`` — the
   lexicographic key ``(okey, old timestamp)``, where okey is the
   encoded old value for deducible specs and the old timestamp for
   weakly deducible ones — with feasibilized pulls (an input is trusted
   iff its current key is strictly below the popped node's old key; a
   node repaired in this pass counts as freshly timestamped) and
   per-spec anchor enumeration, all reading *old* values through a lazy
   old-value dict;
3. pulls of the repaired nodes, per-edge insertion relaxations, and the
   resumed push drain — :func:`~repro.kernels.engine.drain`, the scalar
   loop a batch kernel run is made of too;
4. one :meth:`~repro.core.state.FixpointState.replay` of the ordered
   write log into the dict state — so ``ΔO``, and a valid timestamp
   linearization of ``<_C``, come out exactly as the generic engine's.

The old timestamps are read from ``state.timestamps`` itself: past the
vertex protocol, the dict state is written only by that replay.  Every
row read is ``rows[v].items()`` (or the bare dict where weights do not
matter), so an apply's work scales with |ΔG| + |AFF| however many ops
the context has absorbed.

Every check that could force a fallback runs *before* the graph is
mutated: the context's lowering, and for node-valued specs (CC) the
float encoding of every node the raw batch inserts, scanned before the
pass.  Once ``apply_updates`` has run, the kernel path is committed.
Returning ``(None, None)`` therefore always leaves graph and state
untouched, and the caller can re-run the generic path idempotently.

The context assumes all graph mutations flow through ``apply``; it
revalidates cheaply (object identity, state clock, node/edge counts).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.incremental import IncrementalResult
from ..core.spec import FixpointSpec
from ..resilience.faults import inject
from ..core.state import FixpointState
from ..graph.graph import Graph
from ..graph.updates import Batch, EdgeInsertion, VertexInsertion, apply_updates
from ..metrics.counters import NullCounter
from .engine import drain, encode_values, lower
from .spec import ADD, BOOL, MAXNEG, NODE, TIMESTAMP, encode_value

INF = math.inf


class KernelContext:
    """Encoded, node-keyed mirror of one ``(spec, graph, state, query)`` fixpoint."""

    __slots__ = (
        "spec",
        "kspec",
        "graph",
        "state",
        "query",
        "init",
        "val",
        "decode_map",
        "src",
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
    """Mirror ``state`` into an encoded context, or ``None``."""
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

    ctx = KernelContext()
    ctx.spec = spec
    ctx.kspec = kspec
    ctx.graph = graph
    ctx.state = state
    ctx.query = query
    ctx.init = dict(zip(node_of, init))
    ctx.val = dict(zip(node_of, val))
    ctx.decode_map = decode_map
    # A source-free spec pins nothing: a fresh object equals no node.
    ctx.src = query if kspec.has_source else object()
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
    """One incremental apply on encoded values.

    Returns ``(result, context)``; ``(None, None)`` means the apply could
    not be lowered — nothing was mutated and the caller must fall back to
    the generic path.  A real result comes back with its context, which
    the next apply reuses.

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
    val = ctx.val
    decode_map = ctx.decode_map

    # ------------------------------------------------------------------
    # Pre-mutation validation: stage the ids of genuinely new nodes.  The
    # only lowering step that can fail past this point is encoding them,
    # so checking here keeps fallback side-effect free.  A node the batch
    # creates is a vertex insertion or an edge-insertion endpoint that
    # the context does not know yet, so the raw batch names them all.
    if kspec.domain == NODE:
        staged: Dict[float, Any] = {}
        try:
            for v in _inserted_nodes(delta):
                if v not in val:
                    enc = float(v)
                    known = decode_map.get(enc, staged.get(enc, v))
                    if known != v:
                        return None, None
                    staged[enc] = v
        except (TypeError, ValueError, OverflowError):
            return None, None

    # ------------------------------------------------------------------
    # Commit: one pass expands ΔG, reads the deleted edges' old weights
    # and mutates the authoritative graph.
    expanded = apply_updates(graph, delta, expand=True)
    # The dict state is not written yet, so the hook still reads old
    # values and timestamps here.
    seed_keys = spec.repair_seed_keys(expanded, graph, query, state, expanded.old_weights)
    inject("kernel.mid-drain")  # graph committed, state not yet drained

    changelog = state.start_changelog()
    try:
        result = _resume(ctx, expanded, seed_keys)
    finally:
        state.stop_changelog()
    values = state.values
    for key, old_value in changelog.items():
        new_value = values.get(key)
        if old_value != new_value:
            result.changes[key] = (old_value, new_value)

    ctx.state_clock = state.clock
    ctx.g_nodes = graph.num_nodes
    ctx.g_edges = graph.num_edges
    return result, ctx


def _resume(ctx: KernelContext, expanded: Batch, seed_keys) -> IncrementalResult:
    """An apply after its pass: vertex protocol, Figure-4 repair, engine
    drain and the write-back, under the state's armed changelog."""
    spec, kspec, graph, state, query = ctx.spec, ctx.kspec, ctx.graph, ctx.state, ctx.query
    out_rows, in_rows = graph._succ, graph._pred
    init = ctx.init
    val = ctx.val
    ts = state.timestamps
    src = ctx.src
    decode_map = ctx.decode_map

    # Vertex protocol, as the generic driver's vertex_variables: retire,
    # then seed the variables absent from the state at x^⊥.
    for key in spec.removed_variables(expanded, graph, query):
        if key in val:
            del val[key], init[key]
            state.drop(key)
    fresh: Set[Any] = set()
    for key in spec.new_variables(expanded, graph, query):
        if key not in val:
            value = spec.initial_value(key, graph, query)
            enc = encode_value(kspec, value)
            if decode_map is not None:
                decode_map[enc] = key
            val[key] = init[key] = enc
            state.seed(key, value)
            fresh.add(key)

    combine = kspec.combine

    writes: List[Tuple[Any, float]] = []
    h_scope: Set[Any] = set(fresh)
    h_scope.update(val.keys() & spec.changed_input_keys(expanded, graph, query))

    # ------------------------------------------------------------------
    # Phase h — the Figure-4 repair queue, reading old values through the
    # lazy old_val dict (the state's timestamps stay pre-apply until the
    # write-back, so they *are* the old clock; a seeded vertex reads -1,
    # as on the generic engine).  The heap orders by
    # (okey, ts): the old timestamp breaks okey ties, the same
    # lexicographic <_C as core.scope.
    old_val: Dict[Any, float] = {}
    anchor_ts = kspec.anchor == TIMESTAMP
    boolean = kspec.domain == BOOL

    def okey(x):
        if not anchor_ts:
            return old_val[x] if x in old_val else val[x]
        if boolean:
            ov = old_val[x] if x in old_val else val[x]
            return float(ts[x]) if ov != 0.0 else INF
        return ts[x]

    heappush, heappop = heapq.heappush, heapq.heappop
    que: List[Tuple[Any, int, int, Any]] = []
    queued: Set[Any] = set()
    processed: Set[Any] = set()
    tick = 0
    for x in seed_keys:
        if x in val and x not in fresh and x not in queued:
            tick += 1
            heappush(que, (okey(x), ts[x], tick, x))
            queued.add(x)

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
    # Phase engine — pulls, insertion relaxations, push drain.  Only the
    # nodes the repair wrote need a full pull: every input of an unwritten
    # seed is no better than before, and inserted edges are relaxed per
    # pair (docs/theory.md, "Anchor-tested repair seeds").
    prioritized = kspec.prioritized
    heap: List[Tuple[float, int, Any]] = []
    dq: deque = deque()
    inq: Set[Any] = set()

    for x in old_val:
        best = init[x]
        row = in_rows[x]
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
        if best < val[x]:
            val[x] = best
            writes.append((x, best))
            if prioritized:
                heappush(heap, (best, len(heap), x))
            elif x not in inq:
                inq.add(x)
                dq.append(x)

    pairs = spec.relaxation_pairs(expanded, graph, query)
    if pairs:
        for cause, dep in pairs:
            if dep == src:
                continue
            vu = val[cause]
            if combine == ADD:
                cand = vu + out_rows[cause][dep]
            elif combine == MAXNEG:
                nw = -out_rows[cause][dep]
                cand = nw if nw > vu else vu
            else:
                cand = vu
            if cand < val[dep]:
                val[dep] = cand
                writes.append((dep, cand))
                if prioritized:
                    heappush(heap, (cand, len(heap), dep))
                elif dep not in inq:
                    inq.add(dep)
                    dq.append(dep)

    pops = drain(kspec, out_rows, val, writes, heap if prioritized else dq, src)

    # ------------------------------------------------------------------
    # Write-back: the ordered write log, decoded per domain, replayed into
    # the dict state in one loop (timestamp provenance for <_C; the armed
    # changelog and undo log fed on each key's first touch).
    if decode_map is not None:
        writes = [(x, decode_map[v]) for x, v in writes]
    elif boolean:
        writes = [(x, v != 0.0) for x, v in writes]
    elif combine == MAXNEG:
        writes = [(x, -v + 0.0) for x, v in writes]
    state.replay(writes)
    state.rounds += pops + len(old_val)

    # Per-op boundedness evidence: every node the apply touched.  It
    # scales with |ΔG| + |AFF|, never n — the counters the benchmarks read.
    touched = {x for x, _v in writes}
    touched.update(h_scope)
    touched.update(old_val)
    result = IncrementalResult(h_counter=NullCounter(), engine_counter=NullCounter())
    result.scope = h_scope
    result.kernel_stats = {
        "engine": "kernel",
        "touched": len(touched),
        "writes": len(writes),
        "pops": pops,
    }
    return result
