"""The concurrent query service: admission control + the writer thread.

:class:`QueryService` wraps one :class:`~repro.session.DynamicGraphSession`
with the serving discipline a standing-query deployment needs:

* **single writer** — all mutations (updates, registrations) flow
  through one bounded queue drained by one writer thread, so the
  session below never needs internal locking and each window commits
  through one
  :meth:`~repro.session.DynamicGraphSession.update_stream` call exactly
  as a sequential caller would;
* **snapshot-isolated readers** — after every committed window the
  writer publishes immutable per-query answer snapshots tagged with the
  WAL sequence number (:mod:`repro.serve.state`); reads are served from
  those and never block on writes.  Publishing costs O(|ΔO|): only a
  query whose window changed its output (or that was just registered)
  is re-extracted, the others keep their previous snapshot;
* **admission control** — the write queue is bounded
  (:class:`~repro.errors.Overloaded` on a full queue, the request is
  *not* enqueued), and every request may carry a deadline
  (:class:`~repro.errors.Deadline`; expired ops are shed at dequeue
  without being applied);
* **graceful drain** — :meth:`close` stops admission, lets the writer
  drain the queued tail, publishes the final snapshots, and checkpoints
  durable sessions through the resilience layer.

Failure containment follows the session's own degradation ladder: a
window that fails wholesale (one poisoned batch rolls back the
whole stream) is retried op by op, so healthy batches commit and
only the offending op's submitter sees the typed error.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Dict, List, Optional, Set, Union

from ..core.incremental import compose_changes
from ..errors import Deadline, Overloaded, ReproError, ServiceClosed
from ..graph.updates import Batch, Update
from ..metrics.latency import DepthGauge, LatencyRecorder
from ..resilience.sanitizer import claim_owner, release_owner
from ..session import DynamicGraphSession
from .state import UNCHANGED, AnswerSnapshot, Revision, SnapshotStore


@dataclass
class ServiceConfig:
    """Tunable serving behaviour; see ``docs/serving.md`` for the matrix."""

    #: Write-queue capacity: admission sheds (``Overloaded``) beyond it.
    queue_size: int = 256
    #: Max queued ops drained into one committed window.
    write_window: int = 32
    #: Deadline applied to writes that carry none (``None`` = unbounded).
    default_deadline: Optional[float] = None
    #: Bound on the shutdown drain; ops still queued past it are shed.
    drain_timeout: float = 30.0


class _Op:
    """One queued mutation: an update batch or a (un)registration."""

    __slots__ = (
        "kind", "batch", "name", "algorithm", "query", "listener",
        "deadline", "enqueued", "done", "seq", "error", "cancelled",
    )

    def __init__(self, kind: str, deadline: Optional[float]) -> None:
        self.kind = kind
        self.batch: Optional[Batch] = None
        self.name = self.algorithm = ""
        self.query: Any = None
        self.listener = None
        self.deadline = deadline
        self.enqueued = monotonic()
        self.done = threading.Event()
        self.seq: Optional[int] = None
        self.error: Optional[BaseException] = None
        self.cancelled = False

    @property
    def expired(self) -> bool:
        return self.deadline is not None and monotonic() > self.deadline


class QueryService:
    """Snapshot-isolated serving front for one dynamic-graph session.

    The service owns the session: once :meth:`start` has run, never call
    the session's mutating APIs directly — submit through
    :meth:`update` / :meth:`register` instead.  Reads (:meth:`read`,
    :meth:`watch`, :meth:`stats`) are safe from any number of threads.
    """

    def __init__(
        self,
        session: DynamicGraphSession,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.session = session
        self.config = config or ServiceConfig()
        self.store = SnapshotStore()
        self._queue: "queue.Queue[_Op]" = queue.Queue(self.config.queue_size)
        self._writer: Optional[threading.Thread] = None
        self._closing = threading.Event()
        self._closed = threading.Event()
        self._started = monotonic()

        # Windowed counters, guarded by one small lock (never held while
        # applying): reset on stats(reset_window=True).
        self._stats_lock = threading.Lock()
        self._depth = DepthGauge()
        self.read_latency = LatencyRecorder()
        self.write_latency = LatencyRecorder()
        self._counters = self._zero_counters()
        self._lifetime = self._zero_counters()

        # Writer-only: each query's ΔO composed across the runs committed
        # since the last publish, the names (re-)registered since, and the
        # seq those runs reach.  A commit whose results never arrived (a
        # stream that raised after committing) leaves the session's seq
        # past it, and the next publish rebuilds every answer.
        self._changes: Dict[str, Dict[Any, Any]] = {}
        self._registered: Set[str] = set()
        self._covered = session.seq

        # Queries registered before start() get their initial snapshots.
        self._publish()

    @staticmethod
    def _zero_counters() -> Dict[str, int]:
        return {
            "ops": 0,            # update ops committed
            "windows": 0,        # writer cycles that committed something
            "applies": 0,        # applies across all queries (one per query per run)
            "touched": 0,        # realized |AFF| across queries/applies
            "shed_overloaded": 0,
            "shed_deadline": 0,
            "rejected": 0,       # typed per-op failures (validation, ...)
            "answers_reused": 0,   # published with the previous answer (empty ΔO)
            "answers_rebuilt": 0,  # re-extracted (non-empty ΔO or registration)
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        if self._writer is not None:
            raise ReproError("service already started")
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-serve-writer", daemon=True
        )
        self._writer.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop admission, drain (or shed) the queue, checkpoint, stop.

        With ``drain=True`` the writer finishes every already-admitted
        op (bounded by ``config.drain_timeout``); with ``drain=False``
        queued ops are shed with :class:`~repro.errors.ServiceClosed`.
        """
        if self._closed.is_set():
            return
        if not drain:
            self._shed_queue(ServiceClosed("service closed before this op was applied"))
        self._closing.set()
        writer = self._writer
        if writer is not None:
            writer.join(self.config.drain_timeout)
            if writer.is_alive():  # drain overran its bound: shed the rest
                self._shed_queue(ServiceClosed("shutdown drain timed out"))
                writer.join(self.config.drain_timeout)
        # An op that raced past the closing check after the writer exited
        # would otherwise block its submitter forever.
        self._shed_queue(ServiceClosed("service closed before this op was applied"))
        try:
            self.session.close()  # checkpoint + release WAL when durable
        finally:
            self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def _shed_queue(self, error: ReproError) -> None:
        while True:
            try:
                op = self._queue.get_nowait()
            except queue.Empty:
                return
            op.error = error
            op.done.set()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, op: _Op) -> _Op:
        if self._closing.is_set() or self._closed.is_set():
            raise ServiceClosed("service is shutting down; op rejected")
        try:
            self._queue.put_nowait(op)
        except queue.Full:
            with self._stats_lock:
                self._counters["shed_overloaded"] += 1
                self._lifetime["shed_overloaded"] += 1
            raise Overloaded(
                f"write queue full ({self.config.queue_size} ops pending)",
                depth=self.config.queue_size,
            ) from None
        self._depth.set(self._queue.qsize())
        return op

    def _await(self, op: _Op, label: str) -> _Op:
        """Block the submitter until the op resolves (or its deadline)."""
        if op.deadline is None:
            op.done.wait()
        else:
            # Small grace past the deadline: the writer sheds expired ops
            # itself, so this timeout only fires if the op is mid-apply.
            if not op.done.wait(max(0.0, op.deadline - monotonic()) + 0.05):
                op.cancelled = True
                with self._stats_lock:
                    self._counters["shed_deadline"] += 1
                    self._lifetime["shed_deadline"] += 1
                raise Deadline(
                    f"{label} not applied within its deadline; "
                    "it may still commit — check a later read's seq"
                )
        if op.error is not None:
            raise op.error
        return op

    def _deadline(self, deadline: Optional[float]) -> Optional[float]:
        """Relative seconds → absolute monotonic deadline."""
        if deadline is None:
            deadline = self.config.default_deadline
        return None if deadline is None else monotonic() + deadline

    # ------------------------------------------------------------------
    # Write path (public)
    # ------------------------------------------------------------------
    def update(
        self,
        updates: Union[Batch, List[Update], Update],
        deadline: Optional[float] = None,
    ) -> int:
        """Submit ``ΔG``; block until committed; return its sequence number.

        Raises :class:`~repro.errors.Overloaded` (not enqueued),
        :class:`~repro.errors.Deadline` (shed or still in flight), a
        :class:`~repro.errors.BatchValidationError` subclass (rejected by
        validation — nothing applied), or
        :class:`~repro.errors.ServiceClosed`.
        """
        if not isinstance(updates, Batch):
            if isinstance(updates, (list, tuple)):
                updates = Batch(list(updates))
            else:
                updates = Batch([updates])
        started = monotonic()
        op = _Op("update", self._deadline(deadline))
        op.batch = updates
        self._admit(op)
        self._await(op, f"update of {len(updates)} op(s)")
        self.write_latency.record(monotonic() - started)
        assert op.seq is not None
        return op.seq

    def register(
        self,
        name: str,
        algorithm: str,
        query: Any = None,
        listener=None,
        deadline: Optional[float] = None,
    ) -> AnswerSnapshot:
        """Register a standing query (runs its batch algorithm once) and
        return its initial published snapshot."""
        if self._writer is None:
            # Not serving yet: register synchronously, snapshot directly.
            # lint: allow(T001): pre-start path — the writer thread does
            # not exist yet, so the caller is the only thread alive here
            self.session.register(name, algorithm, query=query, listener=listener)
            self._registered.add(name)
            self._publish()
            return self.store.get(name)
        op = _Op("register", self._deadline(deadline))
        op.name, op.algorithm, op.query, op.listener = name, algorithm, query, listener
        self._admit(op)
        self._await(op, f"registration of {name!r}")
        return self.store.get(name)

    def unregister(self, name: str, deadline: Optional[float] = None) -> None:
        if self._writer is None:
            # lint: allow(T001): pre-start path — no writer thread yet
            self.session.unregister(name)
            self._publish()
            return
        op = _Op("unregister", self._deadline(deadline))
        op.name = name
        self._admit(op)
        self._await(op, f"unregistration of {name!r}")

    # ------------------------------------------------------------------
    # Read path (public; never touches the session)
    # ------------------------------------------------------------------
    def read(self, name: str) -> AnswerSnapshot:
        """The current published snapshot of one query; never blocks on
        writes.  The snapshot's ``seq`` names the exact fixpoint version
        the answer corresponds to."""
        started = monotonic()
        snapshot = self.store.get(name)
        self.read_latency.record(monotonic() - started)
        return snapshot

    def watch(
        self, name: str, after_version: int = -1, timeout: Optional[float] = None
    ) -> AnswerSnapshot:
        """Long-poll until ``name`` publishes a version > ``after_version``.

        Raises :class:`~repro.errors.Deadline` when ``timeout`` elapses
        first — the long-poll idiom: re-issue with the same version.
        """
        snapshot = self.store.wait_for(name, after_version, timeout)
        if snapshot is None:
            raise Deadline(
                f"no version of {name!r} newer than {after_version} within {timeout}s"
            )
        return snapshot

    def stats(self, reset_window: bool = True) -> Dict[str, Any]:
        """Service health: queue, shed counts, latency, per-window apply
        counters, and each query's published version/seq.

        ``reset_window=True`` (the default — scrape-and-reset) zeroes the
        windowed counters so successive scrapes report per-window, not
        cumulative-forever, numbers; lifetime totals stay under
        ``"lifetime"``.
        """
        with self._stats_lock:
            window = dict(self._counters)
            lifetime = dict(self._lifetime)
            if reset_window:
                self._counters = self._zero_counters()
        report = {
            "uptime": monotonic() - self._started,
            "seq": self.session.seq,
            "closing": self._closing.is_set(),
            "queue": {
                "capacity": self.config.queue_size,
                **self._depth.snapshot(reset=reset_window),
            },
            "window": window,
            "lifetime": lifetime,
            "latency": {
                "read": self.read_latency.snapshot(reset=reset_window),
                "write": self.write_latency.snapshot(reset=reset_window),
            },
            "queries": self.store.as_dict(),
            "incidents": len(self.session.incidents),
        }
        # The sharded tier's scatter telemetry, when the session is a
        # router (single-writer sessions scatter nothing).
        protocol = getattr(self.session, "protocol_stats", None)
        if protocol is not None:
            report["protocol"] = protocol.snapshot(reset=reset_window)
        return report

    # ------------------------------------------------------------------
    # Writer thread
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        # Under REPRO_TSAN the writer thread claims the session: any
        # other thread mutating it while we run is a reported race.
        claim_owner(self.session, role="serve-writer")
        try:
            while True:
                try:
                    first = self._queue.get(timeout=0.05)
                except queue.Empty:
                    if self._closing.is_set():
                        break
                    continue
                window: List[_Op] = [first]
                while len(window) < self.config.write_window:
                    try:
                        window.append(self._queue.get_nowait())
                    except queue.Empty:
                        break
                self._depth.set(self._queue.qsize())
                self._run_window(window)
            # Final snapshots reflect the fully-drained state.
            self._publish()
        finally:
            release_owner(self.session)

    def _run_window(self, window: List[_Op]) -> None:
        """Commit one admitted window: shed expired ops, group runs of
        update ops into one scheduled stream, run control ops in order."""
        index = 0
        committed = False
        while index < len(window):
            op = window[index]
            if op.cancelled or op.expired:
                op.error = Deadline("deadline expired while queued; op shed un-applied")
                with self._stats_lock:
                    self._counters["shed_deadline"] += 1
                    self._lifetime["shed_deadline"] += 1
                op.done.set()
                index += 1
                continue
            if op.kind == "update":
                run = [op]
                scan = index + 1
                while scan < len(window) and window[scan].kind == "update":
                    nxt = window[scan]
                    if nxt.cancelled or nxt.expired:
                        break
                    run.append(nxt)
                    scan += 1
                committed |= self._apply_run(run)
                index += len(run)
            else:
                committed |= self._apply_control(op)
                index += 1
        if committed:
            self._publish()
        # Resolve only after publication: a submitter that saw its op
        # acknowledged is guaranteed to read a snapshot at seq >= its own
        # (read-your-writes across the snapshot store).
        for op in window:
            op.done.set()

    def _apply_run(self, run: List[_Op]) -> bool:
        """Apply a run of update ops as one scheduled stream; on failure,
        isolate per op so healthy batches still commit.

        A stream that committed and then raised (a failing shard scatter
        or audit) is never retried: its ops resolve with the error, and
        the publish rebuilds the answers its lost results would have
        updated.  ``batches_applied`` tells a commit apart from a
        rollback; ``seq`` cannot, as a rolled-back window advances it.
        """
        session = self.session
        base = session.seq
        applied = session.batches_applied
        try:
            results = session.update_stream([op.batch for op in run], notify=True)
        except Exception as exc:
            if session.batches_applied == applied:
                return self._apply_individually(run)
            self._reject(run, exc)
            return True
        # update_stream logged one seq per batch, in order.
        for offset, op in enumerate(run):
            op.seq = base + 1 + offset
        self._absorb(results, base, ops=len(run))
        return True

    def _apply_individually(self, run: List[_Op]) -> bool:
        committed = False
        session = self.session
        for op in run:
            base = session.seq
            applied = session.batches_applied
            try:
                results = session.update_stream([op.batch], notify=True)
            except Exception as exc:
                committed |= session.batches_applied != applied
                self._reject([op], exc)
                continue
            op.seq = session.seq
            committed = True
            self._absorb(results, base, ops=1)
        return committed

    def _reject(self, ops: List[_Op], exc: Exception) -> None:
        for op in ops:
            op.error = exc
        with self._stats_lock:
            self._counters["rejected"] += len(ops)
            self._lifetime["rejected"] += len(ops)

    def _apply_control(self, op: _Op) -> bool:
        try:
            if op.kind == "register":
                self.session.register(
                    op.name, op.algorithm, query=op.query, listener=op.listener
                )
                self._registered.add(op.name)
            elif op.kind == "unregister":
                self.session.unregister(op.name)
            else:  # pragma: no cover - unknown kinds never admitted
                raise ReproError(f"unknown op kind {op.kind!r}")
        except Exception as exc:
            self._reject([op], exc)
            return False
        return True

    # ------------------------------------------------------------------
    def _absorb(self, results: Dict[str, Any], base: int, ops: int) -> None:
        """Fold the results of one ``update_stream`` of ``ops`` batches,
        committed after ``base``, into the pending per-query ΔO and the
        apply counters: one apply per query per committed run."""
        if base == self._covered:
            self._covered = base + ops
        totals = {"applies": len(results), "touched": 0}
        for name, result in results.items():
            compose_changes(self._changes.setdefault(name, {}), result.changes)
            totals["touched"] += result.affected_size
        with self._stats_lock:
            for counters in (self._counters, self._lifetime):
                counters["ops"] += ops
                counters["windows"] += 1
                for key, value in totals.items():
                    counters[key] += value

    def _publish(self) -> None:
        """Publish every query at the session's ``seq``, in O(|ΔO|).

        A published query whose pending ΔO is empty keeps its snapshot
        (:data:`~repro.serve.state.UNCHANGED`); one with a non-empty ΔO
        is re-extracted once and published as a
        :class:`~repro.serve.state.Revision` carrying |ΔO|.  A query
        registered since the last publish, or not yet published, is
        extracted in full, and so is every query when a committed batch's
        ΔO is missing.
        """
        session = self.session
        changes, self._changes = self._changes, {}
        registered, self._registered = self._registered, set()
        rebuild = session.seq != self._covered
        self._covered = session.seq
        published = set(self.store.names())
        answers: Dict[str, Any] = {}
        algorithms: Dict[str, str] = {}
        rebuilt = 0
        for name in session.queries():
            delta = changes.get(name)
            fresh = rebuild or name in registered or name not in published
            if not fresh and not delta:
                answers[name] = UNCHANGED
                continue
            try:
                answer = session.answer(name)
            except Exception:  # a torn query: keep serving the others
                continue
            rebuilt += 1
            answers[name] = answer if fresh else Revision(answer, len(delta))
            query = session._queries.get(name)
            algorithms[name] = query.algorithm if query is not None else ""
        with self._stats_lock:
            for counters in (self._counters, self._lifetime):
                counters["answers_reused"] += len(answers) - rebuilt
                counters["answers_rebuilt"] += rebuilt
        self.store.publish(answers, seq=session.seq, algorithms=algorithms)

    def __repr__(self) -> str:
        return (
            f"QueryService(queries={self.store.names()}, seq={self.session.seq}, "
            f"depth={self._queue.qsize()}/{self.config.queue_size})"
        )
