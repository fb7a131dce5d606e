#!/usr/bin/env python
"""Serving-layer load benchmarks, recorded to ``BENCH_serve.json``.

Two modes:

``--smoke``
    Fast CI gate, run twice — once over the single-writer session and
    once over a 2-shard :class:`~repro.parallel.ShardedSession` with
    real worker processes: start a server on an ephemeral port, run ~2
    seconds of mixed read/write closed-loop load from concurrent
    clients, then assert (a) the differential isolation check finds
    **zero torn reads** — every served answer equals a from-scratch
    batch recomputation at its reported sequence number, (b) reads and
    writes actually flowed, and (c) the service drains and shuts down
    cleanly.  The sharded pass additionally runs a deletion-heavy mix
    and gates the protocol telemetry: mean scatter round-trips per
    deletion window must stay under :data:`SMOKE_SCATTER_CEILING`.
    Exits non-zero on any failure.

default (full)
    Timed load runs against an in-process server, swept over the shard
    count (1 / 2 / 4 / 8 — ``shards=1`` is the plain single-writer
    session, ``shards>1`` the multi-process sharded tier) and three
    workload mixes per shard count:

    * ``read_heavy`` — 95% reads / 5% writes, the standing-query
      serving regime the snapshot store is built for;
    * ``write_heavy`` — 50% reads / 50% writes, stressing the writer
      window batching and, sharded, the per-window replication scatter;
    * ``delete_heavy`` — 50% reads / 50% writes with writers biased to
      0.75 deletions, the regime where ``A_Δ`` raises values.

    Each records throughput (ops/s) and read/write latency percentiles
    (p50/p99) plus the service's own window counters — and, for sharded
    runs, the ``ProtocolStats`` block (scatters, scatters per deletion
    window, bytes shipped).  Every mix
    is gated on zero isolation violations, and a ``split_micro`` row
    times the router's memoized ownership lookup against raw
    ``stable_assign``.  Results are appended as one tagged run to the
    registry ledger at ``benchmarks/results/serve.json`` (see
    ``docs/evaluation.md``); ``repro bench run serve`` drives the same
    suite at named scales.

    Caveat for reading the shard sweep: sharding buys wall-clock
    throughput only when worker processes run on distinct cores.  On a
    single-core host the sweep instead measures pure replication
    overhead (every scatter serialized), so the recorded numbers there
    are an upper bound on coordination cost, not a scaling curve.
"""

from __future__ import annotations

import argparse
import os
import sys

from _shared import record_results

from repro.generators import assign_weights, erdos_renyi
from repro.parallel import ShardedSession
from repro.serve import QueryServer, QueryService, ServiceConfig, run_load, verify_isolation
from repro.session import DynamicGraphSession

QUERIES = {"cc": ("CC", None), "sssp": ("SSSP", 0), "sswp": ("SSWP", 0)}

SHARD_SWEEP = (1, 2, 4, 8)


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
        "isolation_violations": len(violations),
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
    line = (
        f"{name:12s} shards={shards}  {entry['throughput_ops_s']:10.0f} ops/s  "
        f"read p50 {entry['read_p50_ms']:.2f}ms p99 {entry['read_p99_ms']:.2f}ms  "
        f"write p50 {entry['write_p50_ms']:.2f}ms p99 {entry['write_p99_ms']:.2f}ms  "
        f"violations={len(violations)}"
    )
    if protocol is not None:
        line += (
            f"  scatters/del-window {entry['scatters_per_deletion_window']:.2f} "
            f"({entry['bytes_shipped']} B shipped)"
        )
    print(line)
    return entry, violations


def _check_entry(name: str, entry, violations) -> bool:
    if violations:
        for violation in violations[:5]:
            print(f"FAIL: {violation}", file=sys.stderr)
        return False
    if entry["reads"] == 0 or entry["writes"] == 0:
        print(
            f"FAIL: {name} degenerate load "
            f"(reads={entry['reads']}, writes={entry['writes']})",
            file=sys.stderr,
        )
        return False
    return True


#: CI ceiling on mean scatter round-trips per deletion window in the
#: sharded smoke mix: every window costs exactly one ``apply`` scatter,
#: so any extra coordination round trips this immediately.
SMOKE_SCATTER_CEILING = 1.0


def smoke(duration: float = 2.0, collect=None) -> int:
    """The CI gate.  ``collect`` (a list) receives the measured rows so
    ``repro bench run serve --scale smoke`` can record the checked run."""
    for shards in (1, 2):
        graph, service, server = start_server(edges=400, shards=shards)
        try:
            entry, violations = run_mix(
                server,
                service,
                graph,
                name="smoke",
                shards=shards,
                read_fraction=0.8,
                duration=duration,
                threads=8,
                seed=17,
            )
            if not _check_entry(f"smoke shards={shards}", entry, violations):
                return 1
            if collect is not None:
                collect.append(entry)
            if shards > 1:
                deletion, violations = run_mix(
                    server,
                    service,
                    graph,
                    name="smoke_delete",
                    shards=shards,
                    read_fraction=0.5,
                    duration=duration,
                    threads=8,
                    seed=23,
                    delete_bias=0.75,
                )
                if not _check_entry(f"smoke_delete shards={shards}", deletion, violations):
                    return 1
                if collect is not None:
                    collect.append(deletion)
                if deletion["deletion_windows"] == 0:
                    print(
                        "FAIL: deletion-heavy smoke produced no deletion windows",
                        file=sys.stderr,
                    )
                    return 1
                per_window = deletion["scatters_per_deletion_window"]
                if per_window > SMOKE_SCATTER_CEILING:
                    print(
                        f"FAIL: {per_window:.2f} scatters per deletion window "
                        f"(ceiling {SMOKE_SCATTER_CEILING}): a window now "
                        "costs more than its one apply scatter",
                        file=sys.stderr,
                    )
                    return 1
                print(
                    f"scatter gate OK: {per_window:.2f} scatters/deletion-window "
                    f"over {deletion['deletion_windows']} deletion windows "
                    f"(ceiling {SMOKE_SCATTER_CEILING})"
                )
        finally:
            server.stop()
            service.close()
        if not service.closed:
            print("FAIL: service did not close cleanly", file=sys.stderr)
            return 1
        print(
            f"smoke OK ({shards} shard{'s' if shards > 1 else ''}): "
            f"{entry['reads']} reads / {entry['writes']} writes, "
            "0 isolation violations, clean shutdown"
        )
    return 0


def split_micro(edges: int = 2_000, shards: int = 4, repeats: int = 50):
    """Micro-benchmark the split path's per-endpoint ownership lookup:
    the router's session-level dict memo against the raw (lru_cached,
    md5-hashing on miss) ``stable_assign`` it fronts."""
    from time import perf_counter

    from repro.parallel.partition import stable_assign

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
    entry = {
        "name": "split_micro",
        "shards": shards,
        "lookups": lookups,
        "owner_memo_ns": round(memo_s / lookups * 1e9, 1),
        "stable_assign_ns": round(lru_s / lookups * 1e9, 1),
        "memo_speedup": round(lru_s / memo_s, 2) if memo_s > 0 else 0.0,
    }
    print(
        f"split_micro  shards={shards}  owner memo {entry['owner_memo_ns']:.0f}ns  "
        f"stable_assign {entry['stable_assign_ns']:.0f}ns  "
        f"({entry['memo_speedup']:.2f}x)"
    )
    return entry


def run_full(
    shards_sweep=SHARD_SWEEP,
    duration: float = 4.0,
    threads: int = 8,
    edges: int = 2_000,
    with_split_micro: bool = True,
):
    """The timed shard × mix sweep; returns registry rows.

    Raises :class:`RuntimeError` when any mix fails its isolation or
    degenerate-load check — a sweep with torn reads must never be
    recorded as a performance number.
    """
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
                entry, violations = run_mix(
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
                seed += 1
                if not _check_entry(f"{name} shards={shards}", entry, violations):
                    raise RuntimeError(f"{name} shards={shards} failed its checks")
                results.append(entry)
        finally:
            server.stop()
            service.close()

    baseline = next(
        (e for e in results if e["name"] == "write_heavy" and e["shards"] == 1), None
    )
    if baseline:
        print(f"\nwrite-heavy scaling vs 1 shard ({os.cpu_count()} CPU core(s) visible):")
        for entry in results:
            if entry["name"] != "write_heavy":
                continue
            ratio = entry["throughput_ops_s"] / baseline["throughput_ops_s"]
            print(f"  shards={entry['shards']}: {ratio:5.2f}x")

    if with_split_micro:
        results.append(split_micro(edges=edges))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast CI isolation gate")
    parser.add_argument("--duration", type=float, default=4.0, help="seconds per mix")
    parser.add_argument("--threads", type=int, default=8, help="client threads")
    parser.add_argument("--edges", type=int, default=2_000, help="base graph size")
    parser.add_argument(
        "--shards",
        type=int,
        nargs="*",
        default=list(SHARD_SWEEP),
        help="shard counts to sweep (full mode)",
    )
    parser.add_argument("--tag", default=None, help="registry run tag")
    args = parser.parse_args()
    if args.smoke:
        return smoke()

    try:
        results = run_full(
            tuple(args.shards),
            duration=args.duration,
            threads=args.threads,
            edges=args.edges,
        )
    except RuntimeError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1

    record = record_results("serve", results, tag=args.tag)
    print(f"recorded serve run {record.run}" + (f" [{record.tag}]" if record.tag else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
