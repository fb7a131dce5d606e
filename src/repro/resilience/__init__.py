"""Fault tolerance for continuous-query sessions.

The paper's deployment story — register standing queries once, stream
``ΔG`` batches for days — only works if the session survives the things
long-running services actually hit: malformed batches, crashes mid-apply,
runaway drains, and silent state corruption.  This package supplies the
four defenses :class:`~repro.session.DynamicGraphSession` weaves in:

* :mod:`~repro.resilience.validate` — up-front batch validation: typed
  errors (:class:`~repro.errors.BatchValidationError` and friends)
  raised **before** any replica mutates;
* :mod:`~repro.resilience.transactions` — first-touch undo logs so a
  mid-apply failure rewinds every query to its pre-window state on a
  copy of the untouched reference graph;
* :mod:`~repro.resilience.wal` + :mod:`~repro.resilience.checkpoint` —
  durability: append-before-apply logging and atomic checkpoints, so
  ``DynamicGraphSession.recover(dir)`` rebuilds a crashed session and
  replays the WAL tail;
* :mod:`~repro.resilience.audit` — runtime σ_A invariant probes, with
  quarantine + batch-recompute self-healing on divergence.

:mod:`~repro.resilience.faults` provides the deterministic
fault-injection sites the crash-recovery test-suite drives (and the
``REPRO_FAULTS`` environment hook for CI smoke runs);
:mod:`~repro.resilience.sanitizer` is the dynamic thread-sanitizer
cross-checking the static concurrency lint (``REPRO_TSAN=on``);
:mod:`~repro.resilience.incidents` is the structured log every defense
reports into.

See ``docs/robustness.md`` for the fault model and degradation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

# faults first: it is the leaf module every other resilience (and core)
# module imports, and importing it installs any REPRO_FAULTS env plan.
from .faults import FaultPlan, InjectedFault, KNOWN_SITES, active_plan, inject, injected, install
from .audit import AuditFinding, AuditReport, QueryAudit, full_audit, sigma_audit
from .checkpoint import (
    CHECKPOINT_FILE,
    SHARDING_FILE,
    WAL_FILE,
    load_checkpoint,
    write_checkpoint,
)
from .incidents import Incident, IncidentLog
from .sanitizer import (
    SanitizerViolation,
    apply_starting,
    claim_owner,
    guarded_mutation,
    owner_of,
    publish_region,
    release_owner,
    wal_logged,
)
from .transactions import SessionTransaction
from .validate import (
    NONNEGATIVE_WEIGHT_ALGORITHMS,
    WEIGHT_POLICIES,
    session_weight_requirements,
    validate_batch,
)
from .wal import WriteAheadLog, decode_batch, encode_batch


@dataclass
class SessionConfig:
    """Tunable resilience behaviour of a :class:`DynamicGraphSession`.

    Validation and rollback are always on; per window they cost an
    O(|ΔG|) overlay and one undo-log entry per variable written.
    Durability and audits are off until given a directory / cadence.
    ``docs/robustness.md`` discusses each knob.
    """

    #: Durable directory for the WAL + checkpoints; ``None`` = in-memory
    #: session (no durability, :meth:`recover` impossible).
    directory: Optional[Union[str, Path]] = None
    #: Checkpoint after every N applied batches (0 = only on register /
    #: close; ignored without a directory).
    checkpoint_every: int = 16
    #: Run a sampled σ_A audit every N applied batches (0 = only on demand).
    audit_every: int = 0
    #: Variables sampled per query per audit (``None`` = all of them).
    audit_sample: Optional[int] = 32
    #: Weight validation: "any", "finite", or "spec" (per-algorithm
    #: requirements, e.g. no negative weights while SSSP is registered).
    weight_policy: str = "finite"
    #: Abort a query's incremental maintenance of one window after this
    #: many update-function evaluations (``None`` = unbounded).  Guards
    #: non-terminating drains.
    step_budget: Optional[int] = None
    #: Quarantine a query after this many consecutive failed applies.
    quarantine_after: int = 3
    #: Ring-buffer capacity of the session's :class:`IncidentLog`.
    max_incidents: int = 256
    #: fsync WAL appends (durable against power loss, slower).
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.weight_policy not in WEIGHT_POLICIES:
            raise ValueError(
                f"weight_policy must be one of {WEIGHT_POLICIES}, got {self.weight_policy!r}"
            )


__all__ = [
    "AuditFinding",
    "AuditReport",
    "CHECKPOINT_FILE",
    "FaultPlan",
    "Incident",
    "IncidentLog",
    "InjectedFault",
    "KNOWN_SITES",
    "NONNEGATIVE_WEIGHT_ALGORITHMS",
    "QueryAudit",
    "SHARDING_FILE",
    "SessionConfig",
    "SessionTransaction",
    "WAL_FILE",
    "WEIGHT_POLICIES",
    "WriteAheadLog",
    "active_plan",
    "decode_batch",
    "encode_batch",
    "full_audit",
    "inject",
    "injected",
    "install",
    "load_checkpoint",
    "session_weight_requirements",
    "sigma_audit",
    "validate_batch",
    "write_checkpoint",
]
