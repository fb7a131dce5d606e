"""Command-line interface.

Usage (also via ``python -m repro``):

    python -m repro stats GRAPH            # structural summary
    python -m repro run ALGO GRAPH         # batch answer
    python -m repro inc ALGO GRAPH UPDATES # batch + incremental maintenance
    python -m repro datasets               # list the proxy datasets
    python -m repro recover DIR            # rebuild a crashed session (sharded or plain)
    python -m repro audit DIR              # σ_A invariant audit (exit 1 if dirty)
    python -m repro serve GRAPH --shards N # sharded multi-process serving tier
    python -m repro bench run SUITE...     # record a benchmark run in the registry
    python -m repro bench report           # render trend tables -> docs/RESULTS.md
    python -m repro bench gate             # regression gate (exit 1 on breach)

``GRAPH`` is an edge-list file (``u v [weight]``), a labeled edge list
(autodetected via ``--labeled``), or a dataset name prefixed with ``@``
(e.g. ``@LJ``).  ``UPDATES`` is a text file of unit updates:

    + u v [weight]      edge insertion
    - u v               edge deletion
    +v x [label]        vertex insertion
    -v x                vertex deletion

Answers are printed as JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional, Tuple

from .errors import ReproError
from .graph.analysis import graph_stats
from .graph.graph import Graph
from .graph.io import read_edge_list, read_labeled_edge_list
from .graph.temporal import TemporalGraph
from .graph.updates import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    VertexDeletion,
    VertexInsertion,
)
from .session import ALGORITHM_PAIRS

_NEEDS_SOURCE = {"SSSP", "SSWP", "Reach"}
_UNDIRECTED_ONLY = {"CC", "LCC", "Coreness"}


def _parse_node(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def load_graph(ref: str, directed: bool, labeled: bool) -> Graph:
    """Load a graph from a path or a ``@DATASET`` reference."""
    if ref.startswith("@"):
        from .datasets import load

        data = load(ref[1:], scale=1.0)
        if isinstance(data, TemporalGraph):
            first, last = data.time_span
            data = data.snapshot(last)
        return data
    if labeled:
        return read_labeled_edge_list(ref, directed=directed)
    return read_edge_list(ref, directed=directed)


def read_updates(path: str) -> Batch:
    """Parse the CLI update format into a :class:`Batch`."""
    batch = Batch()
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            op = parts[0]
            try:
                if op == "+" and len(parts) >= 3:
                    weight = float(parts[3]) if len(parts) > 3 else 1.0
                    batch.append(EdgeInsertion(_parse_node(parts[1]), _parse_node(parts[2]), weight=weight))
                elif op == "-" and len(parts) >= 3:
                    batch.append(EdgeDeletion(_parse_node(parts[1]), _parse_node(parts[2])))
                elif op == "+v" and len(parts) >= 2:
                    label = parts[2] if len(parts) > 2 else None
                    batch.append(VertexInsertion(_parse_node(parts[1]), label=label))
                elif op == "-v" and len(parts) >= 2:
                    batch.append(VertexDeletion(_parse_node(parts[1])))
                else:
                    raise ValueError(f"unrecognized update line: {line!r}")
            except (ValueError, IndexError) as exc:
                raise ReproError(f"{path}:{lineno}: {exc}") from None
    return batch


# The canonical JSON rendering of algorithm answers lives in the serving
# protocol (the wire format and the CLI must agree on it).
from .serve.protocol import jsonable as _jsonable  # noqa: E402


def _resolve(algo_name: str) -> Tuple[Any, Any]:
    for name, pair in ALGORITHM_PAIRS.items():
        if name.lower() == algo_name.lower():
            return name, pair
    raise ReproError(
        f"unknown algorithm {algo_name!r}; available: {', '.join(ALGORITHM_PAIRS)}"
    )


def _query_for(name: str, args, graph: Graph):
    if name in _NEEDS_SOURCE:
        if args.source is None:
            raise ReproError(f"{name} requires --source")
        source = _parse_node(args.source)
        if not graph.has_node(source):
            raise ReproError(f"source node {source!r} is not in the graph")
        return source
    if name == "Sim":
        if getattr(args, "pattern", None) is None:
            raise ReproError("Sim requires --pattern (a labeled edge-list file)")
        return read_labeled_edge_list(args.pattern, directed=True)
    return None


def cmd_stats(args) -> int:
    graph = load_graph(args.graph, directed=args.directed, labeled=args.labeled)
    print(json.dumps(graph_stats(graph).as_dict(), indent=2))
    return 0


def cmd_datasets(args) -> int:
    from .datasets import available, spec

    rows = []
    for name in available():
        s = spec(name)
        rows.append(
            {
                "name": s.name,
                "paper_dataset": s.paper_dataset,
                "directed": s.directed,
                "temporal": s.temporal,
                "description": s.description,
            }
        )
    print(json.dumps(rows, indent=2))
    return 0


def cmd_run(args) -> int:
    name, (batch_factory, _inc_factory) = _resolve(args.algorithm)
    directed = args.directed and name not in _UNDIRECTED_ONLY
    graph = load_graph(args.graph, directed=directed, labeled=args.labeled)
    query = _query_for(name, args, graph)
    algo = batch_factory()
    state = algo.run(graph, query)
    print(json.dumps(_jsonable(algo.answer(state, graph, query)), indent=2))
    return 0


def cmd_inc(args) -> int:
    name, (batch_factory, inc_factory) = _resolve(args.algorithm)
    directed = args.directed and name not in _UNDIRECTED_ONLY
    graph = load_graph(args.graph, directed=directed, labeled=args.labeled)
    query = _query_for(name, args, graph)
    delta = read_updates(args.updates)

    batch = batch_factory()
    state = batch.run(graph, query)
    result = inc_factory().apply(graph, state, delta, query)
    document = {
        "updates": delta.size,
        "changes": {str(k): [_jsonable(old), _jsonable(new)] for k, (old, new) in result.changes.items()},
        "answer": _jsonable(batch.answer(state, graph, query)),
    }
    print(json.dumps(document, indent=2))
    return 0


def cmd_recover(args) -> int:
    from pathlib import Path

    from .resilience import SHARDING_FILE
    from .session import DynamicGraphSession

    if (Path(args.directory) / SHARDING_FILE).exists():
        return _recover_sharded(args)
    session = DynamicGraphSession.recover(args.directory)
    document = {
        "queries": {
            name: {
                "algorithm": session._queries[name].algorithm,
                "quarantined": session._queries[name].quarantined,
            }
            for name in session.queries()
        },
        "batches_replayed": session.batches_applied,
        "graph": {"nodes": session.graph.num_nodes, "edges": session.graph.num_edges},
        "incidents": session.incidents.as_dicts(),
    }
    if args.audit:
        report = session.audit(full=args.full, heal=not args.no_heal)
        document["audit"] = report.as_dict()
    session.close()
    print(json.dumps(document, indent=2))
    return 0


def _recover_sharded(args) -> int:
    """Reassemble a sharded base directory (``sharding.json`` manifest).

    All shards recover or the command fails with a typed
    :class:`~repro.errors.ShardRecoveryError` — never a partial session.
    """
    from .parallel import ShardedSession

    if args.audit:
        raise ReproError(
            "--audit is not supported for sharded directories; recovery "
            "already re-runs every query on the reassembled graph"
        )
    session = ShardedSession.recover(args.directory)
    document = {
        "sharded": True,
        "num_shards": session.num_shards,
        "seq": session.seq,
        "queries": {
            name: {"algorithm": session._queries[name].algorithm}
            for name in session.queries()
        },
        "batches_replayed": session.batches_applied,
        "graph": {"nodes": session.graph.num_nodes, "edges": session.graph.num_edges},
        "incidents": session.incidents.as_dicts(),
    }
    session.close()
    print(json.dumps(document, indent=2))
    return 0


def cmd_audit(args) -> int:
    from .session import DynamicGraphSession

    session = DynamicGraphSession.recover(args.directory)
    report = session.audit(
        full=args.full,
        sample=args.sample,
        heal=not args.no_heal,
    )
    session.close()
    print(json.dumps(report.as_dict(), indent=2))
    return 0 if report.clean else 1


def _parse_register(spec: str) -> Tuple[str, str, Any]:
    """Parse one ``--register NAME=ALGO[:QUERY]`` specification."""
    name, eq, rest = spec.partition("=")
    if not eq or not name or not rest:
        raise ReproError(
            f"bad --register {spec!r}: expected NAME=ALGO or NAME=ALGO:QUERY"
        )
    algo, colon, query_token = rest.partition(":")
    canonical, _pair = _resolve(algo)
    if canonical in _NEEDS_SOURCE and not colon:
        raise ReproError(f"{canonical} requires a query: --register {name}={canonical}:SOURCE")
    if canonical == "Sim":
        raise ReproError("Sim needs a pattern graph; register it programmatically")
    query = _parse_node(query_token) if colon else None
    return name, canonical, query


def cmd_serve(args) -> int:
    from pathlib import Path

    from .resilience import SHARDING_FILE, SessionConfig
    from .serve import QueryService, ServiceConfig, serve_forever
    from .session import DynamicGraphSession

    registrations = [_parse_register(spec) for spec in (args.register or [])]
    shards = getattr(args, "shards", 1)
    if shards < 1:
        raise ReproError("--shards must be at least 1")
    if args.recover:
        if (Path(args.recover) / SHARDING_FILE).exists():
            from .parallel import ShardedSession

            session = ShardedSession.recover(args.recover, processes=True)
        else:
            session = DynamicGraphSession.recover(args.recover)
    else:
        if args.graph is None:
            raise ReproError("serve needs a GRAPH (or --recover DIR)")
        wants_undirected = {a for _n, a, _q in registrations if a in _UNDIRECTED_ONLY}
        if args.directed and wants_undirected:
            raise ReproError(
                f"{', '.join(sorted(wants_undirected))} only run on undirected "
                "graphs; drop --directed or those registrations"
            )
        graph = load_graph(args.graph, directed=args.directed, labeled=args.labeled)
        config = SessionConfig(directory=args.directory) if args.directory else None
        if shards > 1:
            # The sharded tier: one worker process per fragment, the
            # single-writer path (shards=1) stays on the plain session.
            from .parallel import ShardedSession

            session = ShardedSession(
                graph, shards, config=config, seed=args.shard_seed, processes=True
            )
        else:
            session = DynamicGraphSession(graph, config=config)

    service = QueryService(
        session,
        ServiceConfig(queue_size=args.queue_size, write_window=args.window),
    )
    try:
        for name, algorithm, query in registrations:
            service.register(name, algorithm, query=query)
    except ReproError:
        service.close(drain=False)
        raise
    service.start()
    serve_forever(service, args.host, args.port)
    return 0


def cmd_lint(args) -> int:
    from .lint import builtin_specs, lint_specs
    from .lint.rules import get as get_rule

    specs = builtin_specs()
    if args.spec:
        wanted = {s.lower() for s in args.spec}
        specs = [s for s in specs if s.name.lower() in wanted]
        known = {s.name.lower() for s in builtin_specs()}
        unknown = sorted(wanted - known)
        if unknown:
            names = ", ".join(s.name for s in builtin_specs())
            raise ReproError(f"unknown spec(s) {', '.join(unknown)}; available: {names}")
    try:
        disabled = [get_rule(ref).id for ref in args.disable or ()]
    except KeyError as exc:
        raise ReproError(str(exc.args[0])) from None

    report = lint_specs(specs, semantic=args.semantic, disabled=disabled, threads=args.threads)
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text(verbose=args.verbose))
    return 0 if report.clean else 1


def _bench_registry(args):
    from pathlib import Path

    from .evalhub import Registry

    root = Path(args.results_dir) if getattr(args, "results_dir", None) else None
    return Registry(root=root)


def cmd_bench_run(args) -> int:
    from .evalhub import run_suite
    from .evalhub.suites import SUITES

    registry = _bench_registry(args)
    scale = "smoke" if args.smoke else args.scale
    unknown = [name for name in args.suites if name not in SUITES]
    if unknown:
        raise ReproError(
            f"unknown suite(s) {', '.join(unknown)}; available: {', '.join(sorted(SUITES))}"
        )
    for name in args.suites:
        print(f"running suite {name!r} at scale {scale!r} ...", flush=True)
        rows = run_suite(name, scale)
        record = registry.append(name, rows, tag=args.tag, scale=scale)
        print(
            f"recorded {name} run {record.run}"
            + (f" tag {record.tag!r}" if record.tag else "")
            + f" ({len(rows)} rows) -> {registry.path(name)}"
        )
    return 0


def cmd_bench_report(args) -> int:
    from pathlib import Path

    from .evalhub import generate_report, write_report
    from .evalhub.registry import repo_root

    registry = _bench_registry(args)
    suites = args.suite or None
    if args.stdout:
        print(generate_report(registry, suites))
        return 0
    if args.out:
        out = Path(args.out)
    else:
        root = repo_root()
        out = (root if root is not None else Path.cwd()) / "docs" / "RESULTS.md"
    write_report(out, registry, suites)
    print(f"wrote {out}")
    return 0


def cmd_bench_gate(args) -> int:
    from .evalhub import run_gates

    report = run_gates(
        registry=_bench_registry(args),
        path=args.config,
        suites=args.suite or None,
    )
    print(report.render_text())
    return 1 if report.failed else 0


def cmd_bench_suites(args) -> int:
    from .evalhub.suites import SCALES, SUITES

    print(f"scales: {', '.join(SCALES)}")
    for name in sorted(SUITES):
        print(f"{name:10s} {SUITES[name].description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Incrementalized graph algorithms (SIGMOD 2021 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_options(p):
        p.add_argument("graph", help="edge-list path or @DATASET")
        p.add_argument("--directed", action="store_true", help="treat the graph as directed")
        p.add_argument("--labeled", action="store_true", help="parse 'u ulabel v vlabel [w]' lines")

    p_stats = sub.add_parser("stats", help="print structural statistics")
    add_graph_options(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_datasets = sub.add_parser("datasets", help="list the proxy datasets")
    p_datasets.set_defaults(func=cmd_datasets)

    p_run = sub.add_parser("run", help="run a batch algorithm")
    p_run.add_argument("algorithm", help="|".join(ALGORITHM_PAIRS))
    add_graph_options(p_run)
    p_run.add_argument("--source", help="source node (SSSP/SSWP/Reach)")
    p_run.add_argument("--pattern", help="pattern file for Sim (labeled edge list)")
    p_run.set_defaults(func=cmd_run)

    p_inc = sub.add_parser("inc", help="run batch once, then apply updates incrementally")
    p_inc.add_argument("algorithm", help="|".join(ALGORITHM_PAIRS))
    add_graph_options(p_inc)
    p_inc.add_argument("updates", help="update file: '+ u v [w]' / '- u v' / '+v x' / '-v x'")
    p_inc.add_argument("--source", help="source node (SSSP/SSWP/Reach)")
    p_inc.add_argument("--pattern", help="pattern file for Sim (labeled edge list)")
    p_inc.set_defaults(func=cmd_inc)

    p_recover = sub.add_parser(
        "recover",
        help="rebuild a crashed session from its checkpoint + WAL",
        description=(
            "Load the last checkpoint in DIRECTORY, replay the WAL tail, "
            "write a fresh checkpoint, and print a JSON summary of the "
            "recovered session.  See docs/robustness.md."
        ),
    )
    p_recover.add_argument("directory", help="durable session directory")
    p_recover.add_argument(
        "--audit", action="store_true", help="audit the recovered states too"
    )
    p_recover.add_argument(
        "--full", action="store_true", help="with --audit: diff against fresh batch runs"
    )
    p_recover.add_argument(
        "--no-heal", action="store_true", help="with --audit: report divergence only"
    )
    p_recover.set_defaults(func=cmd_recover)

    p_audit = sub.add_parser(
        "audit",
        help="check a durable session's states against the σ_A invariant",
        description=(
            "Recover the session in DIRECTORY and verify every query's "
            "fixpoint state: a sampled σ_A probe by default, a full diff "
            "against fresh batch runs with --full.  Divergent states are "
            "self-healed by batch recomputation unless --no-heal.  Exits "
            "1 when any finding was reported."
        ),
    )
    p_audit.add_argument("directory", help="durable session directory")
    p_audit.add_argument("--full", action="store_true", help="diff against fresh batch runs")
    p_audit.add_argument(
        "--sample", type=int, default=None, help="variables sampled per query (default 32)"
    )
    p_audit.add_argument(
        "--no-heal", action="store_true", help="report divergence without recomputing"
    )
    p_audit.set_defaults(func=cmd_audit)

    p_serve = sub.add_parser(
        "serve",
        help="serve standing incremental queries over TCP (JSON lines)",
        description=(
            "Start the concurrent query service: a single writer thread "
            "maintains the registered incremental queries while clients "
            "read snapshot-isolated answers, stream updates, and long-poll "
            "for changes.  See docs/serving.md for the protocol, the "
            "isolation model, and the overload behaviour."
        ),
    )
    p_serve.add_argument(
        "graph", nargs="?", default=None, help="edge-list path or @DATASET (omit with --recover)"
    )
    p_serve.add_argument("--directed", action="store_true", help="treat the graph as directed")
    p_serve.add_argument("--labeled", action="store_true", help="parse 'u ulabel v vlabel [w]' lines")
    p_serve.add_argument(
        "--recover",
        metavar="DIR",
        default=None,
        help="recover a durable session directory instead of loading GRAPH",
    )
    p_serve.add_argument(
        "--directory",
        metavar="DIR",
        default=None,
        help="make the session durable (WAL + checkpoints) in DIR",
    )
    p_serve.add_argument(
        "--register",
        action="append",
        metavar="NAME=ALGO[:QUERY]",
        help="register a standing query (repeatable), e.g. cc=CC or d0=SSSP:0",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=7227, help="bind port (0 = ephemeral)")
    p_serve.add_argument(
        "--queue-size", type=int, default=256, help="admission queue bound (Overloaded beyond it)"
    )
    p_serve.add_argument(
        "--window", type=int, default=32, help="max update batches committed per writer window"
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="log every window on N durable shard worker processes, one "
        "graph fragment each (1 = the plain single-writer session)",
    )
    p_serve.add_argument(
        "--shard-seed",
        type=int,
        default=0,
        help="partitioning seed for --shards (must match across restarts)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="verify FixpointSpec contracts (C1/C2, anchors, push-mode)",
        description=(
            "Check every built-in fixpoint spec against the framework's "
            "applicability conditions: a structural pass over the spec "
            "source (purity, declared reads, capability flags) and — with "
            "--semantic — an executed contract pass on small seeded "
            "workloads (contraction, monotonicity, anchor soundness, "
            "H0 ⊆ AFF, incremental/batch agreement).  Exits 1 when an "
            "unsuppressed error finding remains."
        ),
    )
    p_lint.add_argument(
        "--spec",
        action="append",
        metavar="NAME",
        help="lint only this spec (repeatable); default: all built-ins",
    )
    p_lint.add_argument(
        "--semantic",
        action="store_true",
        help="also run the executed contract checks (slower)",
    )
    p_lint.add_argument(
        "--threads",
        action="store_true",
        help="also run the whole-program concurrency pass (T-rules) over "
        "the library source: single-writer reachability, snapshot "
        "escapes, lock discipline, WAL ordering",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p_lint.add_argument(
        "--disable",
        action="append",
        metavar="RULE",
        help="suppress a rule by id or name (repeatable), e.g. S006 or "
        "nondeterministic-update",
    )
    p_lint.add_argument(
        "--verbose", action="store_true", help="show suppressed findings too"
    )
    p_lint.set_defaults(func=cmd_lint)

    p_bench = sub.add_parser(
        "bench",
        help="run, report, and gate recorded benchmark suites",
        description=(
            "The evaluation hub: execute a registered suite and append a "
            "tagged run to the registry under benchmarks/results/, render "
            "the recorded trajectory as markdown trend tables, or compare "
            "the latest run against the last comparable baseline under the "
            "tolerances in benchmarks/gates.toml.  See docs/evaluation.md."
        ),
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    def add_registry_option(p):
        p.add_argument(
            "--results-dir",
            metavar="DIR",
            default=None,
            help="registry root (default: <checkout>/benchmarks/results, "
            "or $REPRO_RESULTS_DIR)",
        )

    p_brun = bench_sub.add_parser(
        "run", help="execute suites and append a tagged run to the registry"
    )
    p_brun.add_argument("suites", nargs="+", metavar="SUITE", help="suite names (see `bench suites`)")
    p_brun.add_argument(
        "--scale", choices=("smoke", "small", "full"), default="small", help="suite scale"
    )
    p_brun.add_argument(
        "--smoke", action="store_true", help="shorthand for --scale smoke (CI gate mode)"
    )
    p_brun.add_argument("--tag", default=None, help="run tag (unique per suite)")
    add_registry_option(p_brun)
    p_brun.set_defaults(func=cmd_bench_run)

    p_breport = bench_sub.add_parser(
        "report", help="render registry trend tables as markdown"
    )
    p_breport.add_argument(
        "--suite", action="append", metavar="NAME", help="restrict to a suite (repeatable)"
    )
    p_breport.add_argument(
        "--out", metavar="PATH", default=None, help="output file (default docs/RESULTS.md)"
    )
    p_breport.add_argument(
        "--stdout", action="store_true", help="print the report instead of writing a file"
    )
    add_registry_option(p_breport)
    p_breport.set_defaults(func=cmd_bench_report)

    p_bgate = bench_sub.add_parser(
        "gate", help="check the latest runs against the declared tolerances"
    )
    p_bgate.add_argument(
        "--suite", action="append", metavar="NAME", help="restrict to a suite (repeatable)"
    )
    p_bgate.add_argument(
        "--config", metavar="PATH", default=None, help="gate config (default benchmarks/gates.toml)"
    )
    add_registry_option(p_bgate)
    p_bgate.set_defaults(func=cmd_bench_gate)

    p_bsuites = bench_sub.add_parser("suites", help="list the suite catalog")
    p_bsuites.set_defaults(func=cmd_bench_suites)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # OSError covers the filesystem-shaped failures (missing files,
        # a checkpoint path that is a directory, permission errors):
        # operator mistakes deserve one line on stderr, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
