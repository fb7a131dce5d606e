"""Continuous-query sessions over one dynamic graph.

The paper's motivating deployments ("we often need to repeatedly run
queries of e.g. SSSP, graph simulation, ... when graphs are updated")
keep *many* standing queries in sync with one evolving graph.
:class:`DynamicGraphSession` packages that workflow:

* register any number of queries (each = an algorithm pair + a query
  object) against a shared graph;
* push update batches once — every registered query is maintained
  incrementally and its ``ΔO`` is delivered to subscribed listeners;
* read any query's current answer at any time.

A session that runs for days must also survive what long-running
services actually hit, so updates are *fault tolerant* (see
``docs/robustness.md`` and :mod:`repro.resilience`):

* batches are validated up front — malformed ``ΔG`` raises a typed
  :class:`~repro.errors.BatchValidationError` before anything mutates;
* applies are atomic — the reference graph absorbs a window only after
  every query's step succeeded, so a mid-window failure resets every
  query to its pre-window state on a copy of that graph and raises
  :class:`~repro.errors.TransactionError`;
* sessions given a durable ``SessionConfig.directory`` write-ahead-log
  every batch and checkpoint on a cadence, so :meth:`recover` rebuilds
  a crashed session without re-running any batch algorithm;
* σ_A invariant audits (:meth:`audit`) detect silent state corruption,
  and misbehaving queries are quarantined and self-healed by batch
  recomputation instead of poisoning the whole session.

Example
-------
>>> from repro import Graph
>>> from repro.session import DynamicGraphSession
>>> g = Graph(directed=True)
>>> g.add_edge(0, 1, weight=2.0)
>>> session = DynamicGraphSession(g)
>>> _ = session.register("routes", "SSSP", query=0)
>>> session.answer("routes")[1]
2.0
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

from .algorithms import (
    CCfp,
    CorenessFp,
    DFSfp,
    Dijkstra,
    IncCC,
    IncCoreness,
    IncDFS,
    IncLCC,
    IncReach,
    IncSSSP,
    IncSSWP,
    IncSim,
    LCCfp,
    Reachability,
    Simfp,
    WidestPath,
)
from .core.incremental import IncrementalResult, compose_changes
from .core.state import FixpointState
from .errors import (
    FixpointError,
    RecoveryError,
    ReproError,
    SessionError,
    ShardedDirectoryError,
    TransactionError,
)
from .graph.graph import Graph
from .graph.updates import Batch, apply_updates
from .resilience import SessionConfig
from .resilience.audit import AuditReport, QueryAudit, full_audit, sigma_audit
from .resilience.checkpoint import (
    SHARDING_FILE,
    WAL_FILE,
    load_checkpoint,
    write_checkpoint,
)
from .resilience.faults import InjectedFault, inject
from .resilience.incidents import IncidentLog
from .resilience.sanitizer import apply_starting, guarded_mutation, wal_logged
from .resilience.transactions import SessionTransaction
from .resilience.validate import session_weight_requirements, validate_batch
from .resilience.wal import WriteAheadLog

# Built-in algorithm pairs, addressable by name.
ALGORITHM_PAIRS: Dict[str, Tuple[Callable[[], Any], Callable[[], Any]]] = {
    "SSSP": (Dijkstra, IncSSSP),
    "CC": (CCfp, IncCC),
    "Sim": (Simfp, IncSim),
    "DFS": (DFSfp, IncDFS),
    "LCC": (LCCfp, IncLCC),
    "SSWP": (WidestPath, IncSSWP),
    "Reach": (Reachability, IncReach),
    "Coreness": (CorenessFp, IncCoreness),
}

Listener = Callable[[str, IncrementalResult], None]


@dataclass
class RegisteredQuery:
    """One standing query: its algorithms, query object, state, and the
    graph replica the state is maintained against.

    Incremental algorithms mutate their graph while applying ΔG (some —
    IncDFS, IncCoreness — must see the pre-update graph), so each query
    keeps its own replica; the session applies every batch to each
    replica and to its reference graph, keeping them all identical.
    """

    name: str
    batch: Any
    incremental: Any
    query: Any
    state: FixpointState
    graph: Graph = None
    listeners: List[Listener] = field(default_factory=list)
    #: Name of the algorithm pair in :data:`ALGORITHM_PAIRS` — recorded
    #: so checkpoints can rebuild the pair on :meth:`recover`.
    algorithm: str = ""
    #: Consecutive failed incremental applies (reset on clean success).
    faults: int = 0
    #: Quarantined queries skip the incremental path and are maintained
    #: by batch recomputation until :meth:`DynamicGraphSession.heal`.
    quarantined: bool = False

    def reset(self, graph: Graph, state: FixpointState) -> None:
        """Maintain ``state`` against the replica ``graph`` from now on."""
        self.graph = graph
        self.state = state


def _diff_values(old: Dict, new: Dict) -> Dict[Hashable, Tuple[Any, Any]]:
    """ΔO between two value assignments (``None`` on the missing side)."""
    changes: Dict[Hashable, Tuple[Any, Any]] = {}
    for key, value in new.items():
        before = old.get(key)
        if key not in old or before != value:
            changes[key] = (before if key in old else None, value)
    for key, before in old.items():
        if key not in new:
            changes[key] = (before, None)
    return changes


class DynamicGraphSession:
    """Keep many registered queries in sync with one evolving graph.

    The session owns the graph: apply updates through :meth:`update`
    only, so every registered state stays consistent with it.  Pass a
    :class:`~repro.resilience.SessionConfig` to tune validation,
    durability, and audits; the default is validated, in memory.
    Every window commits or rolls back as a whole.
    """

    def __init__(self, graph: Graph, config: Optional[SessionConfig] = None) -> None:
        self.graph = graph
        self.config = config or SessionConfig()
        self._queries: Dict[str, RegisteredQuery] = {}
        self._batches_applied = 0
        self.incidents = IncidentLog(self.config.max_incidents)
        self._wal: Optional[WriteAheadLog] = None
        self._seq = -1  # last WAL sequence number issued
        if self.config.directory is not None:
            directory = Path(self.config.directory)
            directory.mkdir(parents=True, exist_ok=True)
            wal_path = directory / WAL_FILE
            self._seq = WriteAheadLog.last_seq(wal_path)
            self._wal = WriteAheadLog(wal_path, fsync=self.config.fsync)

    # ------------------------------------------------------------------
    @guarded_mutation("session.register")
    def register(
        self,
        name: str,
        algorithm: str,
        query: Any = None,
        listener: Optional[Listener] = None,
    ) -> RegisteredQuery:
        """Register a standing query and run its batch algorithm once.

        ``algorithm`` names a built-in pair (see :data:`ALGORITHM_PAIRS`).
        """
        if name in self._queries:
            raise ReproError(f"query {name!r} is already registered")
        try:
            batch_factory, inc_factory = ALGORITHM_PAIRS[algorithm]
        except KeyError:
            raise ReproError(
                f"unknown algorithm {algorithm!r}; available: {', '.join(ALGORITHM_PAIRS)}"
            ) from None
        batch = batch_factory()
        replica = self.graph.copy()
        state = batch.run(replica, query)
        registered = RegisteredQuery(
            name=name,
            batch=batch,
            incremental=inc_factory(),
            query=query,
            state=state,
            graph=replica,
            algorithm=algorithm,
        )
        if listener is not None:
            registered.listeners.append(listener)
        self._queries[name] = registered
        # Checkpoint eagerly so recovery never has to re-run A from Δ⊥.
        self._checkpoint_if_durable()
        return registered

    @guarded_mutation("session.unregister")
    def unregister(self, name: str) -> None:
        if name not in self._queries:
            raise ReproError(f"query {name!r} is not registered")
        del self._queries[name]
        self._checkpoint_if_durable()

    def subscribe(self, name: str, listener: Listener) -> None:
        """Call ``listener(name, result)`` after every update batch."""
        self._query(name).listeners.append(listener)

    def queries(self) -> List[str]:
        """Names of all registered queries, as a fresh list.

        The returned list is a defensive copy: mutating it never touches
        the session, and a registration from another thread never mutates
        a list a reader already holds.
        """
        return list(self._queries)

    def _query(self, name: str) -> RegisteredQuery:
        try:
            return self._queries[name]
        except KeyError:
            raise ReproError(f"query {name!r} is not registered") from None

    # ------------------------------------------------------------------
    # Applying updates
    # ------------------------------------------------------------------
    def update(self, delta) -> Dict[str, Any]:
        """Apply one ``ΔG``: a one-batch :meth:`update_stream` that notifies."""
        if not isinstance(delta, Batch):
            delta = Batch(list(delta))
        return self.update_stream([delta], notify=True)

    @guarded_mutation("session.update_stream")
    def update_stream(self, stream, notify: bool = False) -> Dict[str, Any]:
        """Apply an update window and maintain every registered query.

        ``stream`` is an iterable of :class:`Batch` or unit updates; each
        item is one batch with its own WAL seq.  The window's ops, in
        order, are one ``ΔG``: every healthy query takes it in one apply
        of its incremental algorithm (spec-backed ones through
        :meth:`apply_stream`, on the generic engine with
        ``SessionConfig.step_budget`` as the apply's budget), and the
        reference graph receives the same ops, so all replicas stay
        identical.  Returns ``{query name: result}`` with each query's
        ``ΔO`` over the whole window.
        ``notify=True`` delivers each result to the query's listeners
        once, after the window committed; a raising listener is recorded
        as an incident and never starves the rest.

        One commit, in order: the whole window is validated by one
        O(|ΔG|) overlay (typed
        :class:`~repro.errors.BatchValidationError` subclasses, nothing
        mutated), WAL-logged one seq per batch when the session is
        durable (a failed append aborts the batches already logged and
        raises :class:`~repro.errors.SessionError`), then applied under
        one transaction: every query's state logs the old value and
        timestamp of each variable the window first touches, and a
        failure anywhere rewinds each state from its log onto a copy of
        the still-untouched reference graph, aborts every logged batch
        and raises :class:`~repro.errors.TransactionError` with the
        original error as its cause.  A committed window pays
        O(|written|) for its logs, never a copy of a state.  A query
        whose drain runs away (:class:`~repro.errors.FixpointError`) or
        that faults
        ``quarantine_after`` times in a row is quarantined instead and
        recomputed by its batch algorithm.  An audit cadence that heals
        a query folds the recompute into that query's ``ΔO``, so each
        result maps the query's values before the window onto its values
        after it.
        :class:`~repro.resilience.InjectedFault` models a hard crash and
        propagates as-is — no rollback, no abort record — leaving exactly
        the on-disk state :meth:`recover` must handle.
        """
        stream = [item if isinstance(item, Batch) else Batch([item]) for item in stream]
        if not stream:
            return {}
        self._validate(stream)
        inject("session.pre-apply")
        seqs: List[int] = []
        try:
            for batch in stream:
                seqs.append(self._log(batch))
        except SessionError:
            self._abort(seqs)
            raise
        apply_starting(self, seqs[-1], durable=self._wal is not None)
        txn = SessionTransaction.begin(self._queries.values())
        try:
            results = self._maintain(stream, seqs[-1], txn)
        except InjectedFault:
            raise  # simulated crash: the process is presumed dead mid-window
        except Exception as exc:
            self._fail_batch(txn, seqs, exc)
        finally:
            txn.disarm()  # commit, rollback or crash: no undo log stays armed
        if notify:
            self._notify(results)
        self._run_cadences(results)
        return results

    # ------------------------------------------------------------------
    def _validate(self, stream: List[Batch]) -> None:
        policy = self.config.weight_policy
        try:
            validate_batch(
                self.graph,
                stream,
                weight_policy=policy,
                forbid_negative=policy == "spec"
                and session_weight_requirements(
                    r.algorithm for r in self._queries.values()
                ),
            )
        except ReproError as exc:
            self.incidents.record("validation-error", detail=str(exc), error=exc)
            raise

    def _log(self, delta: Batch) -> int:
        """WAL-append ``delta`` under the next sequence number."""
        seq = self._seq + 1
        if self._wal is not None:
            try:
                self._wal.append(seq, delta)
            except InjectedFault:
                raise  # crash mid-append: the torn tail is recovery's problem
            except Exception as exc:
                self.incidents.record("wal-error", detail=str(exc), error=exc, seq=seq)
                raise SessionError(f"WAL append for batch {seq} failed: {exc}") from exc
            wal_logged(self, seq)
        self._seq = seq
        return seq

    def _maintain(
        self, stream: List[Batch], seq: int, txn: Optional[SessionTransaction] = None
    ) -> Dict[str, Any]:
        """One maintenance step per query, then ``G ⊕ ΔG`` on the reference.

        The window's batches, concatenated in order, are one ``ΔG``, and
        each healthy query takes it in one apply: spec-driven queries
        through ``apply_stream`` under the step budget, hand-written ones
        (IncDFS, IncCoreness, which have no evaluation counter) through
        their own ``apply``, unbudgeted.  A runaway
        drain (step budget, divergence) is the query's own pathology and
        quarantines it; any other error fails the window until the query
        has faulted ``quarantine_after`` times in a row.  Quarantined
        queries are recomputed by their batch algorithm on a post-window
        copy; with the window's transaction ``txn`` their ``ΔO`` starts
        from the pre-window values its undo log rebuilds, not from a
        state a failed apply tore.  The reference graph absorbs the
        window last, so until everything else succeeded it still is the
        pre-window graph a rollback rebuilds replicas from.
        """
        window = Batch([op for batch in stream for op in batch.updates])
        results: Dict[str, Any] = {}
        quarantined: List[RegisteredQuery] = []
        for registered in self._queries.values():
            if registered.quarantined:
                continue
            inject("session.mid-apply")
            inc = registered.incremental
            try:
                if hasattr(inc, "apply_stream"):
                    result = inc.apply_stream(
                        registered.graph,
                        registered.state,
                        [window],
                        registered.query,
                        max_evals=self.config.step_budget,
                    )
                else:
                    result = inc.apply(registered.graph, registered.state, window, registered.query)
            except InjectedFault:
                raise
            except FixpointError as exc:
                kind = (
                    "runaway-drain"
                    if "exceeded" in str(exc) or "max_evals" in str(exc)
                    else "apply-error"
                )
                self.incidents.record(kind, query=registered.name, detail=str(exc), error=exc, seq=seq)
                failure = exc
            except Exception as exc:
                registered.faults += 1
                if registered.faults < self.config.quarantine_after:
                    raise
                self.incidents.record(
                    "apply-error",
                    query=registered.name,
                    detail=f"fault {registered.faults}/{self.config.quarantine_after}: {exc}",
                    error=exc,
                    seq=seq,
                )
                failure = exc
            else:
                registered.faults = 0
                results[registered.name] = result
                continue
            registered.quarantined = True
            quarantined.append(registered)
            self.incidents.record(
                "quarantine",
                query=registered.name,
                detail=f"incremental path disabled after: {failure}",
                error=failure,
                seq=seq,
            )
        recompute = [r for r in self._queries.values() if r.quarantined]
        if recompute:
            after = apply_updates(self.graph.copy(), window)
            for registered in recompute:
                results[registered.name] = self._recompute(
                    registered, after, None if txn is None else txn.values(registered.name)
                )
        apply_updates(self.graph, window)
        self._batches_applied += len(stream)
        for registered in quarantined:
            self.incidents.record(
                "self-heal",
                query=registered.name,
                detail="state recomputed by the batch algorithm",
                seq=seq,
            )
        return results

    def _recompute(
        self,
        registered: RegisteredQuery,
        graph: Optional[Graph] = None,
        old_values: Optional[Dict] = None,
    ) -> IncrementalResult:
        """Rebuild one query's replica and state from ``graph``.

        ``graph`` defaults to the session's authoritative ``self.graph``;
        either way the replica is a fresh copy, so this is correct even
        when the query's own replica was torn by a failed apply.  The
        returned ``ΔO`` runs from ``old_values`` (default: the current
        state's values) to the recomputed ones.
        """
        replica = (self.graph if graph is None else graph).copy()
        if old_values is None:
            old_values = registered.state.values
        state = registered.batch.run(replica, registered.query)
        registered.reset(replica, state)
        return IncrementalResult(changes=_diff_values(old_values, state.values))

    def _fail_batch(self, txn: SessionTransaction, seqs: List[int], exc: Exception) -> None:
        """Roll a failed window back, abort its batches and re-raise."""
        seq = seqs[-1]
        restored = txn.rollback(self._queries.values(), self.graph)
        self.incidents.record(
            "rollback",
            detail=f"batch {seq} failed; {restored} quer{'y' if restored == 1 else 'ies'} restored",
            error=exc,
            seq=seq,
        )
        self._abort(seqs)
        raise TransactionError(f"batch {seq} failed and was rolled back: {exc}") from exc

    def _abort(self, seqs: List[int]) -> None:
        """WAL-record that the logged batches ``seqs`` were never applied."""
        if self._wal is not None:
            for seq in seqs:
                self._wal.abort(seq)

    def _notify(self, results: Dict[str, IncrementalResult]) -> None:
        """Deliver ΔO to listeners; one raising listener never starves
        the rest (the failure is recorded as an incident instead)."""
        for registered in self._queries.values():
            result = results.get(registered.name)
            for listener in registered.listeners:
                try:
                    inject("session.listener")
                    listener(registered.name, result)
                except Exception as exc:
                    self.incidents.record(
                        "listener-error",
                        query=registered.name,
                        detail=f"listener {getattr(listener, '__name__', listener)!r} raised",
                        error=exc,
                        seq=self._seq,
                    )

    def _run_cadences(self, results: Dict[str, Any]) -> None:
        cfg = self.config
        if (
            self._wal is not None
            and cfg.checkpoint_every
            and self._batches_applied % cfg.checkpoint_every == 0
        ):
            try:
                self.checkpoint()
            except InjectedFault:
                raise
            except Exception:
                pass  # recorded as a checkpoint-error incident
        if cfg.audit_every and self._batches_applied % cfg.audit_every == 0:
            for entry in self.audit(sample=cfg.audit_sample).entries:
                if entry.healed:
                    compose_changes(results[entry.query].changes, entry.changes)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> Path:
        """Atomically persist the session snapshot; returns its path."""
        if self.config.directory is None:
            raise SessionError(
                "session has no durable directory; pass SessionConfig(directory=...)"
            )
        try:
            return write_checkpoint(
                self.config.directory, self.graph, self._queries.values(), self._seq
            )
        except InjectedFault:
            raise  # crash mid-write: the previous checkpoint is intact
        except Exception as exc:
            self.incidents.record("checkpoint-error", detail=str(exc), error=exc, seq=self._seq)
            raise

    @guarded_mutation("session.close")
    def close(self) -> None:
        """Checkpoint (when durable) and release the WAL handle."""
        if self._wal is not None:
            self.checkpoint()
            self._wal.close()
            self._wal = None

    def _checkpoint_if_durable(self) -> None:
        if self._wal is None:
            return
        try:
            self.checkpoint()
        except InjectedFault:
            raise
        except Exception:
            pass  # recorded as a checkpoint-error incident

    @classmethod
    def recover(
        cls, directory: Union[str, Path], config: Optional[SessionConfig] = None
    ) -> "DynamicGraphSession":
        """Rebuild a session from its durable directory after a crash.

        Loads the last checkpoint (graph + every query's state — no
        batch algorithm re-runs), then replays the WAL tail (records
        with ``seq`` greater than the checkpoint's, skipping aborted
        batches) through the normal per-query incremental path.  A torn
        final WAL record — the signature of a crash mid-append — is
        dropped and recorded as a ``wal-torn-tail`` incident; corruption
        anywhere else raises :class:`~repro.errors.RecoveryError`.

        By Lemma 2 the replayed applies converge to the same fixpoints a
        from-scratch batch run on the final graph would produce, which is
        exactly what the crash-recovery suite asserts.
        """
        directory = Path(directory)
        if (directory / SHARDING_FILE).exists():
            raise ShardedDirectoryError(
                f"{directory} is a sharded session directory (it holds a "
                f"{SHARDING_FILE} manifest); recover it with "
                "repro.parallel.ShardedSession.recover or `repro recover`"
            )
        doc = load_checkpoint(directory)
        if config is None:
            config = SessionConfig(directory=directory)
        elif config.directory is None:
            config = replace(config, directory=directory)

        wal_path = directory / WAL_FILE
        entries, torn = WriteAheadLog.replay(wal_path, after_seq=doc["seq"])

        session = cls.__new__(cls)
        session.graph = doc["graph"]
        session.config = config
        session._queries = {}
        session._batches_applied = 0
        session.incidents = IncidentLog(config.max_incidents)
        session._wal = None
        session._seq = max(doc["seq"], WriteAheadLog.last_seq(wal_path))

        for entry in doc["queries"]:
            try:
                batch_factory, inc_factory = ALGORITHM_PAIRS[entry["algorithm"]]
            except KeyError:
                raise RecoveryError(
                    f"checkpoint names unknown algorithm {entry['algorithm']!r}"
                ) from None
            session._queries[entry["name"]] = RegisteredQuery(
                name=entry["name"],
                batch=batch_factory(),
                incremental=inc_factory(),
                query=entry["query"],
                state=entry["state"],
                graph=session.graph.copy(),
                algorithm=entry["algorithm"],
                quarantined=entry["quarantined"],
            )

        for seq, delta in entries:
            try:
                session._maintain([delta], seq)
            except Exception as exc:
                raise RecoveryError(
                    f"replaying WAL batch {seq} failed: {exc!r}"
                ) from exc
        if torn:
            session.incidents.record(
                "wal-torn-tail",
                detail=f"dropped torn final record of {wal_path}",
                seq=session._seq,
            )
            # Drop the partial line so future appends don't splice into it.
            text = wal_path.read_text()
            cut = text.rfind("\n") + 1
            wal_path.write_text(text[:cut])

        session._wal = WriteAheadLog(wal_path, fsync=config.fsync)
        # Fold the replayed tail into a fresh checkpoint immediately.
        session._checkpoint_if_durable()
        return session

    # ------------------------------------------------------------------
    # Audits and healing
    # ------------------------------------------------------------------
    def audit(
        self,
        full: bool = False,
        sample: Optional[int] = None,
        heal: bool = True,
    ) -> AuditReport:
        """Check every query's state against the σ_A fixpoint invariant.

        The default probe re-evaluates a ``sample`` of each spec-backed
        query's update functions against the live assignment and compares
        the variable set to ``Ψ_A(G)``; ``full=True`` (and every query
        without a spec, e.g. DFS) diffs against a from-scratch batch run
        instead.  Divergent queries are recorded, quarantined, and — with
        ``heal=True`` — immediately self-healed by batch recomputation.
        """
        if sample is None:
            sample = self.config.audit_sample
        report = AuditReport()
        for registered in self._queries.values():
            spec = getattr(registered.batch, "spec", None)
            if spec is not None and not full:
                entry = sigma_audit(
                    spec, registered.graph, registered.state, registered.query, sample=sample
                )
            else:
                entry = full_audit(
                    registered.batch, registered.graph, registered.state, registered.query
                )
            entry.query = registered.name
            if not entry.clean:
                self.incidents.record(
                    "audit-divergence",
                    query=registered.name,
                    detail=f"{len(entry.findings)} finding(s), e.g. "
                    f"{entry.findings[0].kind} at {entry.findings[0].key!r}",
                    seq=self._seq,
                )
                registered.quarantined = True
                if heal:
                    entry.changes = self._recompute(registered).changes
                    entry.healed = True
                    self.incidents.record(
                        "self-heal",
                        query=registered.name,
                        detail="divergent state recomputed by the batch algorithm",
                        seq=self._seq,
                    )
            report.entries.append(entry)
        return report

    @guarded_mutation("session.heal")
    def heal(self, name: str) -> None:
        """Recompute a quarantined query and restore its incremental path."""
        registered = self._query(name)
        self._recompute(registered)
        registered.quarantined = False
        registered.faults = 0
        self.incidents.record("healed", query=name, detail="quarantine lifted", seq=self._seq)

    # ------------------------------------------------------------------
    def answer(self, name: str) -> Any:
        """The current ``Q(G)`` of a registered query, as a fresh snapshot.

        The returned object shares **no mutable structure** with the live
        fixpoint state: extraction runs over an atomically-copied value
        map (``dict(values)`` is atomic under the GIL), so a reader on
        another thread can never observe a value map that an in-flight
        :meth:`update` mutates under its feet, and mutating the returned
        answer never corrupts the session.  Note this only makes the
        *container* safe — a concurrent reader can still observe a
        committed-but-mid-stream version; the serving layer
        (:mod:`repro.serve`) layers prefix-consistent snapshot isolation
        on top for that.
        """
        registered = self._query(name)
        state = registered.state
        snapshot = FixpointState()
        snapshot.values = dict(state.values)
        snapshot.timestamps = state.timestamps
        snapshot.clock = state.clock
        return registered.batch.answer(snapshot, registered.graph, registered.query)

    @property
    def batches_applied(self) -> int:
        return self._batches_applied

    @property
    def seq(self) -> int:
        """Sequence number of the last batch issued (-1 before any).

        This is the WAL sequence number for durable sessions and the same
        monotonic counter for in-memory ones — the version tag the serving
        layer stamps on published answer snapshots, and the coordinate in
        which "prefix-consistent at seq s" is defined.
        """
        return self._seq

    def __repr__(self) -> str:
        return (
            f"DynamicGraphSession(|V|={self.graph.num_nodes}, "
            f"queries={list(self._queries)}, batches={self._batches_applied})"
        )
