"""The shard router: a sharded, multi-process drop-in for the session.

:class:`ShardedSession` is one single-writer
:class:`~repro.session.DynamicGraphSession` over the global graph (the
*writer*) plus ``N`` partitioned, durable fragment logs.  By Theorems 1
and 3, one ``A_Δ`` run on the global graph already yields the batch
fixpoint, so the writer does all the query work; the shards hold no
query at all and exist to keep per-fragment WALs and checkpoints.

The graph is partitioned by :func:`~repro.parallel.partition.stable_assign`
(edge-cut: every edge lives on its endpoints' owner shards, remote
endpoints become replicas).  Each shard runs a
:class:`~repro.parallel.worker.ShardWorker` — a query-less session with
its own WAL/checkpoint directory over its fragment.  The router presents
the *session surface* the serving tier consumes (``register`` /
``update`` / ``update_stream`` / ``answer`` / ``seq`` / ``incidents`` /
``close``), so :class:`repro.serve.QueryService` runs unchanged on top
of it (``repro serve --shards N``).

One write window:

1. ``writer.update_stream(stream)`` validates the window, runs it under
   the writer's transaction and computes ``A_Δ`` and ``ΔO``.  A failure
   rolls the writer back and nothing is scattered.
2. The router splits every batch by ownership, adding
   ``VertexInsertion`` preludes so each sub-batch is valid on its
   fragment alone.
3. One ``apply`` scatter sends each shard its sub-batches (one per
   global batch, possibly empty, so shard WAL seqs stay in lockstep with
   the global seq); each worker runs them through its session's
   ``update_stream``.

Registration touches only the writer and, when durable, the
``sharding.json`` manifest, which lists every registered query in
registration order: it sends no scatter and consumes no seq.

Reads (``answer``) go to the writer.  Failure semantics: the writer
commits or rolls back before anything is scattered; a failed scatter
raises :class:`~repro.errors.ShardingError` and records an incident.
:meth:`ShardedSession.recover` reassembles the graph from the shard
fragments, refuses divergent shard seqs with
:class:`~repro.errors.ShardRecoveryError`, and re-registers the
manifest's queries on a fresh writer.  See ``docs/serving.md``
("Sharded deployment").
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple, Union

# The e2e benchmark's tracer patches these three names on this module.
from ..core.engine import run_fixpoint  # noqa: F401
from ..graph.updates import apply_updates  # noqa: F401
from ..resilience.validate import validate_batch  # noqa: F401

from ..errors import ReproError, ShardingError, ShardRecoveryError
from ..graph.graph import Graph
from ..graph.updates import Batch, EdgeDeletion, EdgeInsertion, VertexDeletion, VertexInsertion
from ..resilience import SessionConfig
from ..resilience.checkpoint import (
    CHECKPOINT_FILE,
    SHARDING_FILE,
    query_from_doc,
    query_to_doc,
    write_json_atomic,
)
from ..session import DynamicGraphSession, Listener, RegisteredQuery
from .partition import stable_assign, stable_partition
from .stats import ProtocolStats
from .worker import ShardWorker, shard_main

SHARD_DIR = "shard-{:02d}"
_MANIFEST_VERSION = 2


class _InProcessShard:
    """Transport running the worker inline (tests, recovery, debugging).

    Requests round-trip through pickle exactly like the process
    transport's pipe, so byte accounting is uniform and picklability
    bugs surface in deterministic tests rather than only under
    ``processes=True``.
    """

    def __init__(self, worker: ShardWorker) -> None:
        self.worker = worker
        self._responses: deque = deque()

    def send(self, request: Dict[str, Any]) -> int:
        blob = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
        self._responses.append(self.worker.handle(pickle.loads(blob)))
        return len(blob)

    def recv(self) -> Dict[str, Any]:
        return self._responses.popleft()

    def join(self) -> None:  # pragma: no cover - nothing to reap
        pass


class _ProcessShard:
    """Transport over a child process and a pickle pipe."""

    def __init__(self, index: int, payload: Dict[str, Any]) -> None:
        self.index = index
        ctx = multiprocessing.get_context()
        parent, child = ctx.Pipe()
        self.process = ctx.Process(
            target=shard_main,
            args=(child, index, payload),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        self.process.start()
        child.close()
        self.conn = parent

    def send(self, request: Dict[str, Any]) -> int:
        # Pickle once ourselves and ship the blob: ``Connection.recv`` on
        # the worker side unpickles byte messages, so this is wire-
        # compatible with ``Connection.send`` while giving the router the
        # exact shipped size for ProtocolStats.
        try:
            blob = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
            self.conn.send_bytes(blob)
            return len(blob)
        except (BrokenPipeError, OSError) as exc:
            raise ShardingError(
                f"shard {self.index} pipe is closed: {exc}", shard=self.index
            ) from exc

    def recv(self) -> Dict[str, Any]:
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardingError(
                f"shard {self.index} process died", shard=self.index
            ) from exc

    def join(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5)


class ShardedSession:
    """A single-writer session whose windows are logged on ``N`` durable
    fragment shards.

    Parameters
    ----------
    graph:
        The initial reference graph; the writer session owns it.
    shards:
        Number of fragments/workers.  ``shards=1`` is the degenerate
        case used by equivalence tests; the CLI routes ``--shards 1`` to
        the plain single-writer path instead.
    config:
        Session configuration; ``config.directory`` (when set) becomes
        the *base* directory — the router keeps a ``sharding.json``
        manifest there and gives shard ``i`` the subdirectory
        ``shard-00``, ``shard-01``, ... so per-shard WALs and
        checkpoints never collide.  The writer runs in memory
        (``directory=None``): durability lives in the shards and the
        manifest.
    processes:
        True (default) forks one worker process per shard;
        False runs workers in-process (deterministic, for tests).
    """

    def __init__(
        self,
        graph: Graph,
        shards: int,
        config: Optional[SessionConfig] = None,
        seed: int = 0,
        processes: bool = True,
    ) -> None:
        if shards < 1:
            raise ShardingError("need at least one shard")
        self.num_shards = shards
        self.seed = seed
        self.config = config or SessionConfig()
        self._init_writer(DynamicGraphSession(graph, replace(self.config, directory=None)))
        self._closed = False
        #: Scatter telemetry, surfaced through ``repro serve`` stats.
        self.protocol_stats = ProtocolStats()
        #: Session-level ownership memo: ``stable_assign`` is an md5 hash
        #: per miss, and the split path asks per endpoint per op — a plain
        #: dict hit is ~5x cheaper than even the lru_cache lookup.
        self._owner_cache: Dict[Hashable, int] = {}

        partitioning = stable_partition(graph, shards, seed)
        self._present: List[Set[Hashable]] = [set(f.nodes()) for f in partitioning.fragments]

        directory = self.config.directory
        self._base = Path(directory) if directory is not None else None
        if self._base is not None:
            self._base.mkdir(parents=True, exist_ok=True)
            self._write_manifest()
        self._shards: List[Any] = []
        for i, fragment in enumerate(partitioning.fragments):
            cfg = self._shard_config(i)
            if processes:
                self._shards.append(
                    _ProcessShard(i, {"fragment": fragment, "config": cfg})
                )
            else:
                self._shards.append(
                    _InProcessShard(ShardWorker(i, fragment, cfg))
                )

    def _init_writer(self, writer: DynamicGraphSession) -> None:
        self.writer = writer
        # Shared with the writer, not copied: the serving tier reads
        # ``_queries`` for algorithm names and scrapes ``incidents``.
        self._queries = writer._queries
        self.incidents = writer.incidents

    def _shard_config(self, index: int) -> SessionConfig:
        base = self._base
        directory = str(base / SHARD_DIR.format(index)) if base is not None else None
        return replace(self.config, directory=directory)

    def _write_manifest(self) -> None:
        """Atomically rewrite ``sharding.json``: the partitioning and
        every registered query, in registration order."""
        if self._base is None:
            return
        write_json_atomic(
            self._base / SHARDING_FILE,
            {
                "version": _MANIFEST_VERSION,
                "num_shards": self.num_shards,
                "seed": self.seed,
                "queries": [
                    [r.name, r.algorithm, query_to_doc(r.query)] for r in self._queries.values()
                ],
            },
        )

    @property
    def graph(self) -> Graph:
        """The global graph (the writer's)."""
        return self.writer.graph

    # ------------------------------------------------------------------
    # Scatter/gather plumbing
    # ------------------------------------------------------------------
    def _send(self, requests: Dict[int, Dict[str, Any]]) -> List[int]:
        """Send every request; returns the shard order to collect in."""
        order = sorted(requests)
        payload_bytes = 0
        for i in order:
            payload_bytes += self._shards[i].send(requests[i])
        if order:
            self.protocol_stats.scatter(
                requests[order[0]].get("cmd", "?"), len(order), payload_bytes
            )
        return order

    def _collect(self, order: List[int]) -> Dict[int, Any]:
        """Collect every response (in shard order, so pipes never hold
        more than one in-flight reply), draining every pipe even when
        one shard failed."""
        results: Dict[int, Any] = {}
        failure = None
        for i in order:
            response = self._shards[i].recv()
            if response.get("ok"):
                results[i] = response["result"]
            elif failure is None:
                failure = (i, response.get("error"))
        if failure is not None:
            i, error = failure
            self.incidents.record(
                "shard-error", detail=f"shard {i}: {error!r}", seq=self.seq
            )
            raise ShardingError(f"shard {i} command failed: {error}", shard=i) from (
                error if isinstance(error, BaseException) else None
            )
        return results

    def _scatter(self, requests: Dict[int, Dict[str, Any]]) -> Dict[int, Any]:
        """One round-trip: send every request, then collect every reply."""
        return self._collect(self._send(requests))

    def _owner(self, node: Hashable) -> int:
        cache = self._owner_cache
        owner = cache.get(node)
        if owner is None:
            if len(cache) > (1 << 20):  # runaway node churn: start over
                cache.clear()
            owner = stable_assign(node, self.num_shards, self.seed)
            cache[node] = owner
        return owner

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        algorithm: str,
        query: Any = None,
        listener: Optional[Listener] = None,
    ) -> RegisteredQuery:
        """Register a standing query on the writer and record it in the
        manifest.  The shards hold no queries: no scatter, no seq."""
        registered = self.writer.register(name, algorithm, query=query, listener=listener)
        try:
            self._write_manifest()
        except Exception:
            self.writer.unregister(name)  # recovery could not bring it back
            raise
        return registered

    def unregister(self, name: str) -> None:
        self.writer.unregister(name)
        self._write_manifest()

    def subscribe(self, name: str, listener: Listener) -> None:
        self.writer.subscribe(name, listener)

    def queries(self) -> List[str]:
        return self.writer.queries()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, delta) -> Dict[str, Any]:
        """Apply one ``ΔG``: a one-batch :meth:`update_stream` that notifies."""
        if not isinstance(delta, Batch):
            delta = Batch(list(delta))
        return self.update_stream([delta], notify=True)

    def update_stream(self, stream, notify: bool = False) -> Dict[str, Any]:
        """Apply a whole update stream as one window on the writer
        (session semantics), then log it on the shards."""
        stream = [item if isinstance(item, Batch) else Batch([item]) for item in stream]
        if not stream:
            return {}
        self._check_open()
        results = self.writer.update_stream(stream, notify=notify)
        self._log_on_shards(stream)
        return results

    def _check_open(self) -> None:
        if self._closed:
            raise ShardingError("sharded session is closed")

    def _log_on_shards(self, stream: List[Batch]) -> None:
        """Split the committed window by ownership and ship it in one
        ``apply`` scatter."""
        deletions = any(
            isinstance(op, (EdgeDeletion, VertexDeletion)) for batch in stream for op in batch
        )
        self.protocol_stats.begin_window(deletions=deletions)
        try:
            per_shard: List[List[Batch]] = [[] for _ in range(self.num_shards)]
            for batch in stream:
                for i, sub in enumerate(self._split_batch(batch)):
                    per_shard[i].append(sub)
            gathers = self._scatter(
                {
                    i: {"cmd": "apply", "batches": per_shard[i]}
                    for i in range(self.num_shards)
                }
            )
        finally:
            self.protocol_stats.end_window()
        for i, gather in gathers.items():
            if gather["seq"] != self.seq:
                raise ShardingError(
                    f"shard {i} is at seq {gather['seq']} but the global seq is "
                    f"{self.seq}: the shards have diverged",
                    shard=i,
                )

    def _split_batch(self, batch: Batch) -> List[Batch]:
        """Split one committed batch into per-shard sub-batches, adding
        ``VertexInsertion`` preludes so each sub-batch is valid on its
        fragment alone.  Updates presence bookkeeping in place.

        Labels of nodes not inserted by ``batch`` are read from the
        post-window graph; they only reach replicas, and recovery takes
        every node's label from its owner."""
        subs: List[List] = [[] for _ in range(self.num_shards)]
        batch_labels: Dict[Hashable, Any] = {}
        graph = self.graph

        def node_label(node: Hashable) -> Any:
            if node in batch_labels:
                return batch_labels[node]
            return graph.node_label(node) if graph.has_node(node) else None

        def ensure_present(shard: int, node: Hashable) -> None:
            if node in self._present[shard]:
                return
            subs[shard].append(VertexInsertion(node, node_label(node)))
            self._present[shard].add(node)

        def route_edge(op: EdgeInsertion) -> None:
            for shard in {self._owner(op.u), self._owner(op.v)}:
                ensure_present(shard, op.u)
                ensure_present(shard, op.v)
                subs[shard].append(op)

        for op in batch:
            if isinstance(op, EdgeInsertion):
                route_edge(op)
            elif isinstance(op, EdgeDeletion):
                # The edge lives exactly on its endpoints' owner shards.
                for shard in {self._owner(op.u), self._owner(op.v)}:
                    subs[shard].append(op)
            elif isinstance(op, VertexInsertion):
                batch_labels[op.v] = op.label
                owner = self._owner(op.v)
                if op.v not in self._present[owner]:
                    subs[owner].append(VertexInsertion(op.v, op.label))
                    self._present[owner].add(op.v)
                for edge in op.edges:  # carried edges route independently
                    route_edge(edge)
            elif isinstance(op, VertexDeletion):
                for shard in range(self.num_shards):
                    if op.v in self._present[shard]:
                        subs[shard].append(op)
                        self._present[shard].discard(op.v)
            else:  # pragma: no cover - exhaustive over the update model
                raise ShardingError(f"unroutable update {op!r}")
        return [Batch(ops) for ops in subs]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def answer(self, name: str) -> Any:
        """The query's current global answer (the writer's)."""
        return self.writer.answer(name)

    @property
    def seq(self) -> int:
        """Global sequence number — every shard's WAL seq equals it."""
        return self.writer.seq

    @property
    def batches_applied(self) -> int:
        return self.writer.batches_applied

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every worker (checkpointing the durable ones) and reap
        the shard processes."""
        if self._closed:
            return
        self._closed = True
        try:
            self._scatter({i: {"cmd": "close"} for i in range(self.num_shards)})
        finally:
            for shard in self._shards:
                shard.join()
            self.writer.close()

    @classmethod
    def recover(
        cls,
        directory: Union[str, Path],
        config: Optional[SessionConfig] = None,
        processes: bool = False,
    ) -> "ShardedSession":
        """Reassemble a sharded session from its base directory.

        Every shard recovers its own session (checkpoint + WAL tail);
        the router then verifies the shards agree on their sequence
        number, reassembles the global graph from the fragments, and
        re-registers the manifest's queries, in order, on a fresh
        writer.  A missing or malformed manifest, missing shards, failed
        shard recoveries, and divergent sequence numbers raise
        :class:`~repro.errors.ShardRecoveryError`.
        """
        base = Path(directory)
        shards, seed, registrations = _read_manifest(base / SHARDING_FILE)
        if config is None:
            config = SessionConfig(directory=base)
        elif config.directory is None:
            config = replace(config, directory=base)

        session = cls.__new__(cls)
        session.num_shards = shards
        session.seed = seed
        session.config = config
        session._base = base
        session._closed = False
        session.protocol_stats = ProtocolStats()
        session._owner_cache = {}
        session._shards = []
        for i in range(shards):
            shard_dir = base / SHARD_DIR.format(i)
            if not (shard_dir / CHECKPOINT_FILE).exists():
                raise ShardRecoveryError(
                    f"shard {i} cannot be reassembled: no checkpoint in {shard_dir}"
                )
            cfg = session._shard_config(i)
            try:
                if processes:
                    session._shards.append(
                        _ProcessShard(i, {"directory": shard_dir, "config": cfg})
                    )
                else:
                    session._shards.append(
                        _InProcessShard(ShardWorker.recover(i, shard_dir, cfg))
                    )
            except ReproError as exc:
                raise ShardRecoveryError(f"shard {i} failed to recover: {exc}") from exc

        try:
            infos = session._scatter({i: {"cmd": "info"} for i in range(shards)})
        except ShardingError as exc:
            raise ShardRecoveryError(f"shard handshake failed: {exc}") from exc
        seqs = {i: info["seq"] for i, info in infos.items()}
        if len(set(seqs.values())) > 1:
            raise ShardRecoveryError(
                f"shard WAL sequence numbers diverge ({seqs}): a crash mid-scatter "
                "lost part of a window on some shards"
            )

        fragments = session._scatter({i: {"cmd": "export_fragment"} for i in range(shards)})
        graph = Graph(directed=fragments[0].directed)
        for i in range(shards):
            for node in fragments[i].nodes():
                if stable_assign(node, shards, seed) == i:
                    graph.ensure_node(node, label=fragments[i].node_label(node))
        for i in range(shards):
            for u, v in fragments[i].edges():
                if not graph.has_edge(u, v):
                    graph.add_edge(
                        u,
                        v,
                        weight=fragments[i].weight(u, v),
                        label=fragments[i].edge_label(u, v),
                    )
        session._present = [set(fragments[i].nodes()) for i in range(shards)]

        writer = DynamicGraphSession(graph, replace(config, directory=None))
        writer._seq = seqs[0]
        writer._batches_applied = infos[0]["batches_applied"]
        session._init_writer(writer)
        for name, algorithm, query in registrations:
            try:
                writer.register(name, algorithm, query=query)
            except ReproError as exc:
                raise ShardRecoveryError(
                    f"manifest query {name!r} cannot be re-registered: {exc}"
                ) from exc
        return session

    def __repr__(self) -> str:
        return (
            f"ShardedSession(shards={self.num_shards}, |V|={self.graph.num_nodes}, "
            f"queries={self.queries()}, seq={self.seq})"
        )


def _read_manifest(path: Path) -> Tuple[int, int, List[Tuple[str, str, Any]]]:
    """``(num_shards, seed, [(name, algorithm, query), ...])`` from a
    version-2 ``sharding.json``; anything else is a
    :class:`~repro.errors.ShardRecoveryError`."""
    if not path.exists():
        raise ShardRecoveryError(
            f"{path.parent} holds no {SHARDING_FILE} manifest; recover plain session "
            "directories with DynamicGraphSession.recover"
        )
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise ShardRecoveryError(f"corrupt manifest {path}: {exc}") from exc
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != _MANIFEST_VERSION:
        raise ShardRecoveryError(
            f"unsupported manifest version {version!r} in {path}; this build reads "
            f"version {_MANIFEST_VERSION}"
        )
    try:
        entries = manifest["queries"]
        if not isinstance(entries, list):
            raise TypeError(f"'queries' is {type(entries).__name__}, not a list")
        registrations = []
        for name, algorithm, query in entries:
            if not isinstance(name, str) or not isinstance(algorithm, str):
                raise TypeError(f"query entry {[name, algorithm]!r} is not [name, algorithm, ...]")
            registrations.append((name, algorithm, query_from_doc(query)))
        return int(manifest["num_shards"]), int(manifest["seed"]), registrations
    except (ValueError, KeyError, TypeError, ReproError) as exc:
        raise ShardRecoveryError(f"corrupt manifest {path}: {exc!r}") from exc
