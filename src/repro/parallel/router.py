"""The shard router: a sharded, multi-process drop-in for the session.

:class:`ShardedSession` is one single-writer
:class:`~repro.session.DynamicGraphSession` over the global graph (the
*writer*) plus ``N`` partitioned, durable replicas of its state.  By
Theorems 1 and 3, one ``A_Δ`` run on the global graph already yields the
batch fixpoint, so the writer does all the query work and the shards
divide none of it; they exist to keep per-fragment WALs and checkpoints.

The graph is partitioned by :func:`~repro.parallel.partition.stable_assign`
(edge-cut: every edge lives on its endpoints' owner shards, remote
endpoints become replicas).  Each shard runs a
:class:`~repro.parallel.worker.ShardWorker` — a full session with its
own WAL/checkpoint directory over its fragment.  The router presents the
*session surface* the serving tier consumes (``register`` / ``update``
/ ``update_stream`` / ``answer`` / ``seq`` / ``incidents`` / ``close``),
so :class:`repro.serve.QueryService` runs unchanged on top of it
(``repro serve --shards N``).

One write window:

1. ``writer.update_stream(stream)`` validates the window, runs it under
   the writer's transaction and computes ``A_Δ`` and ``ΔO``.  A failure
   rolls the writer back and nothing is scattered.
2. The router splits every batch by ownership, adding
   ``VertexInsertion`` preludes so each sub-batch is valid on its
   fragment alone.
3. One ``apply`` scatter sends each shard its sub-batches (one per
   global batch, possibly empty, so shard WAL seqs stay in lockstep with
   the global seq) plus *pins*: the writer's post-window value of every
   key present on that shard that is in ``ΔO`` or newly materialized
   there.  The worker applies its sub-batches to its fragment graphs
   only — no ``A_Δ`` runs on a shard — then lands exactly on the
   writer's values (:meth:`~repro.session.DynamicGraphSession.replicate`).

Reads (``answer``) go to the writer.  Failure semantics: the writer
commits or rolls back before anything is scattered; a failed scatter
raises :class:`~repro.errors.ShardingError` and records an incident.
:meth:`ShardedSession.recover` reassembles the graph from the shard
fragments, refuses divergent shard seqs with
:class:`~repro.errors.ShardRecoveryError`, re-runs the queries on the
writer and re-pins every shard.  See ``docs/serving.md`` ("Sharded
deployment").
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Union

# The e2e benchmark's tracer patches these three names on this module.
from ..core.engine import run_fixpoint  # noqa: F401
from ..graph.updates import apply_updates  # noqa: F401
from ..resilience.validate import validate_batch  # noqa: F401

from ..errors import NodeNotFoundError, ReproError, ShardingError, ShardRecoveryError
from ..graph.graph import Graph
from ..graph.updates import Batch, EdgeDeletion, EdgeInsertion, VertexDeletion, VertexInsertion
from ..resilience import SessionConfig
from ..resilience.checkpoint import CHECKPOINT_FILE, SHARDING_FILE
from ..session import ALGORITHM_PAIRS, DynamicGraphSession, Listener, RegisteredQuery
from .partition import stable_assign, stable_partition
from .stats import ProtocolStats
from .worker import ShardWorker, shard_main

#: Algorithms the sharded tier can host: node-keyed specs, whose values
#: split cleanly over fragment nodes.
SHARDABLE_ALGORITHMS = frozenset({"SSSP", "SSWP", "CC", "Reach"})
_SOURCE_ALGORITHMS = frozenset({"SSSP", "SSWP", "Reach"})

SHARD_DIR = "shard-{:02d}"
_MANIFEST_VERSION = 1


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
    """A single-writer session replicated onto ``N`` durable shards.

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
        the *base* directory — the router writes a ``sharding.json``
        manifest there and gives shard ``i`` the subdirectory
        ``shard-00``, ``shard-01``, ... so per-shard WALs and
        checkpoints never collide.  The writer runs in memory
        (``directory=None``): durability lives in the shards.  Worker
        sessions always run with ``transactional=False``; the writer's
        transaction already decided the window before it is scattered.
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

        base = Path(self.config.directory) if self.config.directory is not None else None
        if base is not None:
            base.mkdir(parents=True, exist_ok=True)
            (base / SHARDING_FILE).write_text(
                json.dumps(
                    {"version": _MANIFEST_VERSION, "num_shards": shards, "seed": seed}
                )
            )
        self._shards: List[Any] = []
        for i, fragment in enumerate(partitioning.fragments):
            cfg = self._shard_config(base, i)
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

    def _shard_config(self, base: Optional[Path], index: int) -> SessionConfig:
        directory = str(base / SHARD_DIR.format(index)) if base is not None else None
        # A replica's values are the global fixpoint, not its fragment's,
        # so a σ_A audit on the fragment would flag (and "heal") them;
        # the writer audits the global state instead.
        return replace(self.config, directory=directory, transactional=False, audit_every=0)

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

    def _pins(self, shard: int, keys: Dict[str, Iterable[Hashable]]) -> Dict[str, Dict]:
        """The writer's values of ``keys[name]`` on ``shard``'s nodes."""
        present = self._present[shard]
        pins = {}
        for name, wanted in keys.items():
            values = self._queries[name].state.values
            pins[name] = {k: values[k] for k in wanted if k in present and k in values}
        return pins

    def _pin_everywhere(self, names: List[str]) -> None:
        self._scatter(
            {
                i: {"cmd": "pin", "pins": self._pins(i, dict.fromkeys(names, self._present[i]))}
                for i in range(self.num_shards)
            }
        )

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
        """Register a standing query on the writer and every shard.

        The shards' fragment runs overlap the writer's central batch
        run; one pin scatter then lands every shard on the writer's
        values."""
        if name in self._queries:
            raise ReproError(f"query {name!r} is already registered")
        if algorithm not in ALGORITHM_PAIRS:
            raise ReproError(
                f"unknown algorithm {algorithm!r}; available: {', '.join(ALGORITHM_PAIRS)}"
            )
        if algorithm not in SHARDABLE_ALGORITHMS:
            raise ShardingError(
                f"algorithm {algorithm!r} cannot be sharded; shardable algorithms: "
                f"{', '.join(sorted(SHARDABLE_ALGORITHMS))}"
            )
        preludes: List[List[Batch]] = [[] for _ in range(self.num_shards)]
        if algorithm in _SOURCE_ALGORITHMS and query is not None:
            if not self.graph.has_node(query):
                raise NodeNotFoundError(query)
            preludes = self._align_source(query)
        order = self._send(
            {
                i: {
                    "cmd": "register",
                    "name": name,
                    "algorithm": algorithm,
                    "query": query,
                    "prelude": preludes[i],
                }
                for i in range(self.num_shards)
            }
        )
        try:
            registered = self.writer.register(name, algorithm, query=query, listener=listener)
        finally:
            self._collect(order)
        self._pin_everywhere([name])
        return registered

    def _align_source(self, source: Hashable) -> List[List[Batch]]:
        """Per-shard preludes materializing ``source`` on every shard
        lacking it (a fragment without the source cannot even seed the
        spec).  The prelude is one seq-consuming batch on every shard
        (empty where the source is already present), matched by an empty
        writer batch, so seqs stay in lockstep."""
        missing = [i for i in range(self.num_shards) if source not in self._present[i]]
        if not missing:
            return [[] for _ in range(self.num_shards)]
        self.writer.update_stream([Batch([])])
        insert = Batch([VertexInsertion(source, self.graph.node_label(source))])
        for i in missing:
            self._present[i].add(source)
        return [[insert if i in missing else Batch([])] for i in range(self.num_shards)]

    def unregister(self, name: str) -> None:
        if name not in self._queries:
            raise ReproError(f"query {name!r} is not registered")
        self._scatter({i: {"cmd": "unregister", "name": name} for i in range(self.num_shards)})
        self.writer.unregister(name)

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
        (session semantics), then replicate it to the shards."""
        stream = [item if isinstance(item, Batch) else Batch([item]) for item in stream]
        if not stream:
            return {}
        self._check_open()
        results = self.writer.update_stream(stream, notify=notify)
        self._replicate(stream, results)
        return results

    def _check_open(self) -> None:
        if self._closed:
            raise ShardingError("sharded session is closed")

    def _replicate(self, stream: List[Batch], results: Dict[str, Any]) -> None:
        """Split the committed window by ownership and ship it, with the
        writer's new values as pins, in one ``apply`` scatter."""
        deletions = any(
            isinstance(op, (EdgeDeletion, VertexDeletion)) for batch in stream for op in batch
        )
        self.protocol_stats.begin_window(deletions=deletions)
        try:
            per_shard: List[List[Batch]] = [[] for _ in range(self.num_shards)]
            fresh: List[Set[Hashable]] = [set() for _ in range(self.num_shards)]
            for batch in stream:
                for i, sub in enumerate(self._split_batch(batch, fresh)):
                    per_shard[i].append(sub)
            changed = {
                name: getattr(results.get(name), "changes", {}) for name in self._queries
            }
            pins = [
                self._pins(i, {name: fresh[i].union(keys) for name, keys in changed.items()})
                for i in range(self.num_shards)
            ]
            gathers = self._scatter(
                {
                    i: {"cmd": "apply", "batches": per_shard[i], "pins": pins[i]}
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

    def _split_batch(self, batch: Batch, fresh: List[Set[Hashable]]) -> List[Batch]:
        """Split one committed batch into per-shard sub-batches, adding
        ``VertexInsertion`` preludes so each sub-batch is valid on its
        fragment alone.  Updates presence bookkeeping in place and adds
        every node newly materialized on shard ``i`` to ``fresh[i]``.

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
            fresh[shard].add(node)

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
                    fresh[owner].add(op.v)
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
        number and registered queries, reassembles the global graph
        from the fragments, re-runs every query on a fresh writer, and
        re-pins every shard to the writer's values (pins are not
        WAL-logged).  Missing shards, failed shard recoveries, and
        divergent sequence numbers raise
        :class:`~repro.errors.ShardRecoveryError`.
        """
        base = Path(directory)
        manifest_path = base / SHARDING_FILE
        if not manifest_path.exists():
            raise ShardRecoveryError(
                f"{base} holds no {SHARDING_FILE} manifest; recover plain session "
                "directories with DynamicGraphSession.recover"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
            shards = int(manifest["num_shards"])
            seed = int(manifest["seed"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ShardRecoveryError(f"corrupt manifest {manifest_path}: {exc}") from exc
        if config is None:
            config = SessionConfig(directory=base)
        elif config.directory is None:
            config = replace(config, directory=base)

        session = cls.__new__(cls)
        session.num_shards = shards
        session.seed = seed
        session.config = config
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
            cfg = session._shard_config(base, i)
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
        reference = infos[0]["queries"]
        for i, info in infos.items():
            if info["queries"] != reference:
                raise ShardRecoveryError(
                    f"shard {i} registers {sorted(info['queries'])} but shard 0 "
                    f"registers {sorted(reference)}"
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
        for qname, qinfo in reference.items():
            writer.register(qname, qinfo["algorithm"], query=qinfo["query"])
        if reference:
            session._pin_everywhere(list(reference))
        return session

    def __repr__(self) -> str:
        return (
            f"ShardedSession(shards={self.num_shards}, |V|={self.graph.num_nodes}, "
            f"queries={self.queries()}, seq={self.seq})"
        )
