"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  The subclasses separate failures of the
*substrate* (graph manipulation, I/O) from failures of the *framework*
(fixpoint specification, incrementalization).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Structural graph errors (unknown nodes, duplicate edges, ...)."""


class NodeNotFoundError(GraphError):
    """A referenced node does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError):
    """A referenced edge does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.edge = (u, v)


class DuplicateEdgeError(GraphError):
    """Inserting an edge that already exists."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) already exists")
        self.edge = (u, v)


class DuplicateNodeError(GraphError):
    """Inserting a node that already exists."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} already exists")
        self.node = node


class UpdateError(ReproError):
    """An update batch cannot be applied to the target graph."""


class BatchValidationError(UpdateError):
    """``ΔG`` failed up-front validation; nothing was mutated.

    Raised by :func:`repro.resilience.validate.validate_batch` (and hence
    by :meth:`repro.session.DynamicGraphSession.update`) *before* any
    graph replica or fixpoint state is touched, so catching it never
    requires a rollback.
    """

    def __init__(self, message: str, index: int = -1, batch: int = 0) -> None:
        super().__init__(message)
        #: Position of the offending unit update within its batch.
        self.index = index
        #: Position of that batch within the validated window.
        self.batch = batch


class UnknownNodeError(BatchValidationError):
    """An update references a node the batch-so-far never materializes."""


class ContradictoryUpdateError(BatchValidationError):
    """Duplicate or conflicting ops: re-inserting a present edge/node,
    deleting an absent one, or an op invalidated earlier in the batch."""


class InvalidWeightError(BatchValidationError):
    """An edge weight is non-finite, or violates a registered
    algorithm's weight requirements (e.g. negative weights under SSSP)."""


class SessionError(ReproError):
    """A continuous-query session failure (transactions, WAL, recovery)."""


class TransactionError(SessionError):
    """An update window failed mid-apply; every query was rolled back to
    its pre-window state.  ``__cause__`` carries the original error."""


class RecoveryError(SessionError):
    """A session checkpoint or WAL cannot be loaded or replayed."""


class ShardingError(SessionError):
    """A sharded-session failure (:mod:`repro.parallel`): a worker died,
    a command failed on a shard, or an unsupported configuration."""

    def __init__(self, message: str, shard: int = -1) -> None:
        super().__init__(message)
        #: Index of the shard involved (-1 = the router itself).
        self.shard = shard


class ShardedDirectoryError(RecoveryError):
    """A plain-session operation was pointed at a *sharded* session
    directory (one holding a ``sharding.json`` manifest and per-shard
    subdirectories).  Recover it with
    :meth:`repro.parallel.ShardedSession.recover` (the ``repro recover``
    command auto-detects the manifest)."""


class ShardRecoveryError(RecoveryError):
    """A sharded session directory cannot be reassembled: its manifest
    is missing or malformed, a shard is missing, a shard failed to
    recover, or the shards' WAL sequence numbers diverge (a crash
    mid-scatter lost part of a window on some shards — see
    docs/serving.md, "Failure semantics per shard")."""


class ServeError(SessionError):
    """A concurrent query-service failure (:mod:`repro.serve`)."""


class Overloaded(ServeError):
    """The service shed the request: its bounded write queue is full.

    Back off and retry; the request was **not** enqueued and will never
    be applied.  :attr:`depth` carries the queue depth at rejection.
    """

    def __init__(self, message: str = "write queue is full", depth: int = -1) -> None:
        super().__init__(message)
        self.depth = depth


class Deadline(ServeError):
    """The request's deadline expired before it completed.

    For writes this is *ambiguous on the commit side*: an op whose
    deadline expires while queued is shed un-applied, but an op whose
    deadline expires during the apply itself may still commit — observe
    the outcome through a subsequent read's sequence number.  For
    ``watch`` long-polls it simply means no newer version arrived in
    time.
    """


class ServiceClosed(ServeError):
    """The service is shutting down (or closed) and admits no new work."""


class FixpointError(ReproError):
    """A fixpoint specification is inconsistent or its run diverged."""


class IncrementalizationError(ReproError):
    """The incrementalization machinery was misused.

    Raised, for example, when an incremental run is started from a state
    that was not produced by the matching batch algorithm, or when a spec
    that requires timestamps is incrementalized without them.
    """


class DatasetError(ReproError):
    """A named dataset cannot be materialized."""
