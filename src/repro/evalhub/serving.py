"""The ``serve`` suite: load mixes against an in-process query server.

:func:`smoke` is the correctness gate, run twice — once over the
single-writer session and once over a 2-shard
:class:`~repro.parallel.ShardedSession` with real worker processes.  It
starts a server on an ephemeral port and runs mixed read/write
closed-loop load from concurrent clients, then requires that (a) the
differential isolation check finds **zero torn reads** — every served
answer equals a from-scratch batch recomputation at its reported
sequence number, (b) reads and writes actually flowed, and (c) the
service drains and shuts down cleanly.  The sharded pass also runs a
deletion-heavy mix and holds the mean scatter round-trips per deletion
window under :data:`SMOKE_SCATTER_CEILING`.  Any failure raises
:class:`SuiteError`; the checked mixes are the recorded rows.

:func:`run` sweeps the shard count (``shards=1`` is the plain
single-writer session, ``shards>1`` the multi-process sharded tier) and
three workload mixes per shard count:

* ``read_heavy`` — 95% reads / 5% writes, the standing-query serving
  regime the snapshot store is built for;
* ``write_heavy`` — 50% reads / 50% writes, stressing the writer window
  batching and, sharded, the per-window replication scatter;
* ``delete_heavy`` — 50% reads / 50% writes with writers biased to 0.75
  deletions, the regime where ``A_Δ`` raises values.

Each row records throughput (ops/s) and read/write latency percentiles
(p50/p99) plus the service's own window counters — and, for sharded
runs, the ``ProtocolStats`` block (scatters, scatters per deletion
window, bytes shipped).  Every mix is gated on zero isolation
violations, and a ``split_micro`` row times the router's memoized
ownership lookup against raw ``stable_assign``.  A ``window_micro`` row
times the single writer's window in process — hub moves through a
:class:`~repro.session.DynamicGraphSession` with no server around it.

Sharding buys wall-clock throughput only when worker processes run on
distinct cores.  On a single-core host the sweep measures pure
replication overhead (every scatter serialized), so the numbers there
are an upper bound on coordination cost, not a scaling curve.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter

from ..generators import assign_weights, barabasi_albert, erdos_renyi
from ..graph import Batch, EdgeDeletion, EdgeInsertion
from ..parallel import ShardedSession
from ..parallel.partition import stable_assign
from ..serve import QueryServer, QueryService, ServiceConfig, run_load, verify_isolation
from ..session import DynamicGraphSession
from .suites import SuiteError

QUERIES = {"cc": ("CC", None), "sssp": ("SSSP", 0), "sswp": ("SSWP", 0)}

#: Ceiling on mean scatter round-trips per deletion window in the
#: sharded smoke mix: every window costs exactly one ``apply`` scatter,
#: so any extra coordination round trips this immediately.
SMOKE_SCATTER_CEILING = 1.0


def make_graph(edges: int, seed: int = 7):
    n = max(edges // 10, 8)
    return assign_weights(erdos_renyi(n, edges, directed=False, seed=seed), seed=seed)


def start_server(edges: int, queue_size: int = 256, shards: int = 1):
    graph = make_graph(edges)
    if shards == 1:
        session = DynamicGraphSession(graph)
    else:
        session = ShardedSession(graph, shards, processes=True)
    service = QueryService(session, ServiceConfig(queue_size=queue_size))
    for name, (algorithm, query) in QUERIES.items():
        service.register(name, algorithm, query=query)
    service.start()
    server = QueryServer(service, port=0).start()
    return graph, service, server


def run_mix(
    server,
    service,
    graph,
    *,
    name,
    shards,
    read_fraction,
    duration,
    threads,
    seed,
    delete_bias=0.4,
):
    """One load mix as a registry row; raises :class:`SuiteError` on a
    torn read or a degenerate load — a mix with torn reads must never be
    recorded as a performance number."""
    host, port = server.address
    base_seq = service.session.seq
    base_graph = service.session.graph.copy()
    service.stats(reset_window=True)  # roll the window so counters are per-mix
    report = run_load(
        host,
        port,
        list(QUERIES),
        duration=duration,
        read_fraction=read_fraction,
        threads=threads,
        base_nodes=list(graph.nodes())[:32],
        seed=seed,
        delete_bias=delete_bias,
    )
    violations = verify_isolation(base_graph, QUERIES, report, base_seq=base_seq)
    if violations:
        shown = "; ".join(str(v) for v in violations[:5])
        raise SuiteError(f"{name} shards={shards}: {len(violations)} torn read(s): {shown}")
    if report.reads == 0 or report.writes == 0:
        raise SuiteError(
            f"{name} shards={shards}: degenerate load "
            f"(reads={report.reads}, writes={report.writes})"
        )
    stats = service.stats(reset_window=True)
    window = stats["window"]
    summary = report.summary()
    entry = {
        "name": name,
        "shards": shards,
        "edges": graph.num_edges,
        "nodes": graph.num_nodes,
        "threads": threads,
        "read_fraction": read_fraction,
        "delete_bias": delete_bias,
        "reads": report.reads,
        "writes": report.writes,
        "throughput_ops_s": summary["throughput_ops_s"],
        "read_p50_ms": round(summary["read_latency_s"]["p50"] * 1e3, 3),
        "read_p99_ms": round(summary["read_latency_s"]["p99"] * 1e3, 3),
        "write_p50_ms": round(summary["write_latency_s"]["p50"] * 1e3, 3),
        "write_p99_ms": round(summary["write_latency_s"]["p99"] * 1e3, 3),
        "windows": window["windows"],
        "shed_overloaded": window["shed_overloaded"],
        "shed_deadline": window["shed_deadline"],
        "isolation_violations": 0,
    }
    protocol = stats.get("protocol")
    if protocol is not None:
        proto = protocol["window"]
        entry.update(
            {
                "scatters": proto["scatters"],
                "deletion_windows": proto["deletion_windows"],
                "scatters_per_deletion_window": proto["scatters_per_deletion_window"],
                "bytes_shipped": proto["bytes_shipped"],
            }
        )
    return entry


def smoke(duration: float):
    """The correctness gate; returns the checked mixes as registry rows."""
    rows = []
    for shards in (1, 2):
        graph, service, server = start_server(edges=400, shards=shards)
        try:
            mix = dict(
                server=server, service=service, graph=graph, shards=shards,
                duration=duration, threads=8,
            )
            rows.append(run_mix(name="smoke", read_fraction=0.8, seed=17, **mix))
            if shards > 1:
                deletion = run_mix(
                    name="smoke_delete", read_fraction=0.5, seed=23, delete_bias=0.75, **mix
                )
                rows.append(deletion)
                if deletion["deletion_windows"] == 0:
                    raise SuiteError("deletion-heavy smoke produced no deletion windows")
                per_window = deletion["scatters_per_deletion_window"]
                if per_window > SMOKE_SCATTER_CEILING:
                    raise SuiteError(
                        f"{per_window:.2f} scatters per deletion window "
                        f"(ceiling {SMOKE_SCATTER_CEILING}): a window now "
                        "costs more than its one apply scatter"
                    )
        finally:
            server.stop()
            service.close()
        if not service.closed:
            raise SuiteError(f"service (shards={shards}) did not close cleanly")
    return rows


def split_micro(edges: int = 2_000, shards: int = 4, repeats: int = 50):
    """Micro-benchmark the split path's per-endpoint ownership lookup:
    the router's session-level dict memo against the raw (lru_cached,
    md5-hashing on miss) ``stable_assign`` it fronts."""
    graph = make_graph(edges)
    session = ShardedSession(graph, shards, processes=False)
    try:
        ids = list(graph.nodes())
        start = perf_counter()
        for _ in range(repeats):
            for node in ids:
                session._owner(node)
        memo_s = perf_counter() - start
        start = perf_counter()
        for _ in range(repeats):
            for node in ids:
                stable_assign(node, shards, session.seed)
        lru_s = perf_counter() - start
    finally:
        session.close()
    lookups = repeats * len(ids)
    return {
        "name": "split_micro",
        "shards": shards,
        "lookups": lookups,
        "owner_memo_ns": round(memo_s / lookups * 1e9, 1),
        "stable_assign_ns": round(lru_s / lookups * 1e9, 1),
        "memo_speedup": round(lru_s / memo_s, 2) if memo_s > 0 else 0.0,
    }


def window_micro(nodes: int = 1_500, windows: int = 200, seed: int = 11):
    """Time single-op hub-move windows on an in-process session.

    A preferential-attachment graph (m=7) gets 16 writer vertices, each
    linked to 4 of the 32 highest-degree hubs; a window moves one writer
    edge to another hub (a deletion plus an insertion in one batch) with
    CC, SSSP and SSWP registered.
    """
    rng = random.Random(seed)
    graph = assign_weights(barabasi_albert(nodes, 7, seed=seed), seed=seed)
    hubs = sorted(graph.nodes(), key=lambda v: (-graph.degree(v), v))[:32]
    links = {}
    for x in range(nodes, nodes + 16):
        links[x] = {h: float(rng.randint(1, 10)) for h in rng.sample(hubs, 4)}
        for h, w in links[x].items():
            graph.add_edge(h, x, weight=w)
    moves = []
    for _ in range(windows):
        x = rng.choice(sorted(links))
        old = rng.choice(sorted(links[x]))
        new = rng.choice([h for h in hubs if h not in links[x]])
        w = float(rng.randint(1, 10))
        del links[x][old]
        links[x][new] = w
        moves.append(Batch([EdgeDeletion(x, old), EdgeInsertion(new, x, weight=w)]))

    session = DynamicGraphSession(graph)
    for name, (algorithm, query) in QUERIES.items():
        session.register(name, algorithm, query=query)
    times = []
    for batch in moves:
        start = perf_counter()
        session.update(batch)
        times.append(perf_counter() - start)
    return {
        "name": "window_micro",
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "windows": windows,
        "queries": len(QUERIES),
        "window_us_p50": round(median(times) * 1e6, 1),
    }


def run(shards_sweep, duration: float, threads: int, edges: int):
    """The timed shard × mix sweep plus ``split_micro``; registry rows."""
    results = []
    seed = 29
    for shards in shards_sweep:
        graph, service, server = start_server(edges=edges, shards=shards)
        try:
            for name, read_fraction, delete_bias in (
                ("read_heavy", 0.95, 0.4),
                ("write_heavy", 0.5, 0.4),
                ("delete_heavy", 0.5, 0.75),
            ):
                results.append(
                    run_mix(
                        server,
                        service,
                        graph,
                        name=name,
                        shards=shards,
                        read_fraction=read_fraction,
                        duration=duration,
                        threads=threads,
                        seed=seed,
                        delete_bias=delete_bias,
                    )
                )
                seed += 1
        finally:
            server.stop()
            service.close()
    results.append(split_micro(edges=edges))
    return results
