"""Dense batch execution and the scalar push drain both kernel engines share.

:func:`try_run_batch` lowers a full batch run of a kernel-declaring spec
(:meth:`~repro.core.spec.FixpointSpec.kernel`) onto dense row dicts:
node ids densified to ``0..n-1``, values mirrored into the encoded
minimizing domain of :mod:`repro.kernels.spec`, and the fixpoint
computed by :func:`drain` over :func:`dense_rows` — the scalar heap/FIFO
push loop that :func:`~repro.kernels.incremental.kernel_apply` also runs
after each update batch, over the graph's own rows keyed by node.  The
batch run seeds it with the source alone when the
spec has one (every other variable starts at the top, ``x^⊥``, so only
the source can lower a neighbour) and with every node otherwise (CC,
where each node starts at its own label).  Prioritized specs drain in
Dijkstra order (Figure 1), the others as FIFO min-label propagation
(Example 2).  Every accepted write is replayed into the state in order,
so the timestamps are those of a push drain and invariant (I) of
``docs/theory.md`` holds by the same argument as for an apply.

The function returns ``None`` whenever the run cannot be lowered
faithfully (no kernel declared, unencodable values, colliding node-id
encodings, a directed graph for an undirected-only kernel, or a missing
source node); callers then fall back to the generic engine, which either
runs the spec or raises the same errors it always did.

Hot-loop conventions (shared with :mod:`repro.kernels.incremental`):
values and row weights are plain Python floats, so the loops combine
unboxed scalars; writes are appended to a log replayed into the
:class:`~repro.core.state.FixpointState` afterwards — preserving write
*order*, hence a valid timestamp linearization of ``<_C`` for the weakly
deducible specs — and relaxations into a pinned source are skipped,
mirroring the constant ``edge_candidate`` branch of the generic engine.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from ..core.spec import FixpointSpec
from ..core.state import FixpointState
from ..graph.graph import Graph, Node
from .spec import ADD, BOOL, MAXNEG, NODE, KernelSpec


def build_node_decode(kspec: KernelSpec, node_of) -> Optional[Dict[float, Any]]:
    """The exact ``float(id) → id`` map for the ``node`` domain.

    Returns ``None`` when the encoding is lossy (non-numeric ids, or two
    ids sharing a float image, e.g. ints beyond 2**53) — the kernel then
    cannot represent the label domain and the caller must fall back.
    For collision-free images ``float`` is monotone, so the encoded
    order is isomorphic to the node-id order the spec minimizes over.
    """
    if kspec.domain != NODE:
        return None
    decode: Dict[float, Any] = {}
    try:
        for node in node_of:
            decode[float(node)] = node
    except (TypeError, ValueError, OverflowError):
        return None
    if len(decode) != len(node_of):
        return None
    return decode


def dense_ids(node_of) -> bool:
    """True when the node ids already are the dense ids ``0..n-1``, in order."""
    return node_of == list(range(len(node_of))) and set(map(type, node_of)) <= {int}


def encode_values(kspec: KernelSpec, raw) -> List[float]:
    """:func:`~repro.kernels.spec.encode_value` over a sequence, inlined per domain.

    One listcomp instead of an ``encode_value`` call per value; raises
    the same ``TypeError``/``ValueError``/``OverflowError``.
    """
    if kspec.domain == BOOL:
        return [-1.0 if v else 0.0 for v in raw]
    if kspec.combine == MAXNEG:
        return [-float(v) for v in raw]
    return list(map(float, raw))


def encode_initial(
    spec: FixpointSpec, kspec: KernelSpec, graph: Graph, query: Any, node_of
) -> Optional[List[float]]:
    """Encoded ``x^⊥`` per dense node, or ``None`` if unencodable."""
    try:
        return encode_values(kspec, [spec.initial_value(node, graph, query) for node in node_of])
    except (TypeError, ValueError, OverflowError):
        return None


def lower(
    spec: FixpointSpec, graph: Graph, query: Any, node_of
) -> Union[str, Tuple[KernelSpec, Optional[Dict[float, Any]], List[float]]]:
    """The lowering both kernel engines share.

    Returns ``(kspec, decode_map, init)`` — the declared kernel, the
    ``node``-domain decode map (``None`` for other domains) and the
    encoded ``x^⊥`` of each node in ``node_of`` order — or, when the run
    cannot take the kernel path, a string saying why.
    """
    kspec = spec.kernel()
    if kspec is None:
        return f"{spec.name} declares no kernel"
    if spec.order is None:
        # The encoding lowers ⪯ onto numeric ≤; a spec without a declared
        # order keeps the generic engine (and its push-precondition errors).
        return f"{spec.name} declares no partial order"
    if kspec.undirected_only and graph.directed:
        return f"{spec.name} kernel requires an undirected graph"
    if kspec.has_source and not graph.has_node(query):
        return "source node is not in the graph"
    decode_map = build_node_decode(kspec, node_of)
    if kspec.domain == NODE and decode_map is None:
        return "node ids have no exact float encoding"
    init = encode_initial(spec, kspec, graph, query, node_of)
    if init is None:
        return "initial values are not float-encodable"
    return kspec, decode_map, init


def unsupported_reason(spec: FixpointSpec, graph: Graph, query: Any) -> Optional[str]:
    """Why this run cannot take the kernel path, or ``None`` if it can."""
    lowered = lower(spec, graph, query, list(graph.nodes()))
    return lowered if isinstance(lowered, str) else None


def try_run_batch(spec: FixpointSpec, graph: Graph, query: Any) -> Optional[FixpointState]:
    """A full batch run on dense row dicts, or ``None`` to fall back."""
    node_of = list(graph.nodes())
    lowered = lower(spec, graph, query, node_of)
    if isinstance(lowered, str):
        return None
    kspec, decode_map, init = lowered
    # Graphs built with dense int ids (0..n-1 in order) need no index map.
    index_of = None if dense_ids(node_of) else {v: i for i, v in enumerate(node_of)}
    # Seeds: the source alone (every other variable starts at the top),
    # else every node, each holding its own initial label.
    if kspec.has_source:
        src = query if index_of is None else index_of[query]
        seeds = [src]
    else:
        src = -1
        seeds = range(len(node_of))
    val = list(init)
    if kspec.prioritized:
        work: Union[List[Tuple[float, int, int]], Deque[int]] = [
            (val[i], tick, i) for tick, i in enumerate(seeds)
        ]
        heapq.heapify(work)
    else:
        work = deque(seeds)
    writes: List[Tuple[int, float]] = []
    rows = dense_rows(graph._succ, node_of, index_of)
    pops = drain(kspec, rows, val, writes, work, src)

    # Bulk-seed x^⊥ (same effect as per-node state.seed), then replay the
    # accepted-write log in order to lay down the <_C timestamps.  The
    # decode is inlined per domain: a decode_value call per write costs
    # more than the write itself at snapshot sizes.
    state = FixpointState()
    if kspec.domain == NODE:
        dm = decode_map
        state.values = dict(zip(node_of, map(dm.__getitem__, init)))
        decoded = [(node_of[i], dm[v]) for i, v in writes]
    elif kspec.domain == BOOL:
        state.values = {node: v != 0.0 for node, v in zip(node_of, init)}
        decoded = [(node_of[i], v != 0.0) for i, v in writes]
    elif kspec.combine == MAXNEG:
        state.values = {node: -v + 0.0 for node, v in zip(node_of, init)}
        decoded = [(node_of[i], -v + 0.0) for i, v in writes]
    else:
        state.values = dict(zip(node_of, init))
        decoded = [(node_of[i], v) for i, v in writes]
    state.timestamps = dict.fromkeys(node_of, -1)
    state.replay(decoded)
    state.rounds += pops
    return state


def dense_rows(
    adj: Dict[Node, Dict[Node, float]], node_of: List[Node], index_of: Optional[Dict[Node, int]]
) -> List[Dict[int, float]]:
    """One ``{dense neighbor: weight}`` dict per node, in ``node_of`` order.

    ``index_of`` is ``None`` when the node ids are already the dense ids;
    the rows are then plain copies (C-level, no per-edge lookup).
    """
    rows = map(adj.__getitem__, node_of)
    if index_of is None:
        return [row.copy() for row in rows]
    get_index = index_of.__getitem__
    return [dict(zip(map(get_index, row), row.values())) for row in rows]


def drain(
    kspec: KernelSpec,
    rows: Union[List[Dict[int, float]], Dict[Node, Dict[Node, float]]],
    val: Union[List[float], Dict[Node, float]],
    writes: List[Tuple[Any, float]],
    work: Union[List[Tuple[float, int, Any]], Deque[Any]],
    src: Any,
) -> int:
    """Push every change in ``work`` along ``rows`` to the fixpoint.  Returns pops.

    ``rows`` and ``val`` are indexed by id: lists over dense ids for a
    batch run, dicts keyed by node for an incremental apply.  ``work`` is
    a heap of ``(value, tick, id)`` entries for prioritized specs — the
    ticks are distinct and below ``len(work)``, so value ties never
    compare ids, which need not be mutually ordered — and a deque of
    distinct ids otherwise (FIFO with in-queue dedup).  Each accepted
    relaxation lowers ``val`` in place and is appended to ``writes``;
    none relaxes into the pinned source ``src``.
    """
    combine = kspec.combine
    pops = 0
    if kspec.prioritized:
        heap = work
        heappush, heappop = heapq.heappush, heapq.heappop
        tick = len(heap)
        while heap:
            d, _, i = heappop(heap)
            if d > val[i]:
                continue  # stale entry; a better one was processed
            pops += 1
            if combine == ADD:
                for j, w in rows[i].items():
                    cand = d + w
                    if cand < val[j] and j != src:
                        val[j] = cand
                        writes.append((j, cand))
                        tick += 1
                        heappush(heap, (cand, tick, j))
            else:  # MAXNEG
                for j, w in rows[i].items():
                    nw = -w
                    cand = nw if nw > d else d
                    if cand < val[j] and j != src:
                        val[j] = cand
                        writes.append((j, cand))
                        tick += 1
                        heappush(heap, (cand, tick, j))
        return pops

    dq = work
    inq = set(dq)
    while dq:
        i = dq.popleft()
        inq.discard(i)
        pops += 1
        v = val[i]
        for j in rows[i]:
            if v < val[j] and j != src:
                val[j] = v
                writes.append((j, v))
                if j not in inq:
                    inq.add(j)
                    dq.append(j)
    return pops
