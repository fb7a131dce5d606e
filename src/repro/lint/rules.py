"""The lint rule registry.

Each rule encodes one applicability condition of the paper's framework —
a precondition of Theorem 1 (pure update functions, declared input sets)
or of Theorem 3 (C1: correct bounded scope function; C2: contracting and
monotonic under ``⪯``).  Rules come in two kinds:

* ``structural`` — decided from the spec's source via :mod:`ast` and
  class-level reflection (:mod:`repro.lint.ast_checks`); cheap, no
  execution;
* ``contract`` — decided by executing the spec on small generated
  workloads (:mod:`repro.lint.contracts`); these are the algebraic
  side-conditions Alvarez-Picallo et al. show fixpoint-derivative
  correctness hinges on;
* ``threads`` — decided by a whole-program effect analysis of the
  library itself (:mod:`repro.lint.effects` /
  :mod:`repro.lint.concurrency`): the single-writer, snapshot-isolation,
  and WAL-ordering invariants the serving tier (:mod:`repro.serve`)
  documents but the spec-level passes cannot see.

Every rule is individually suppressible — globally through the
``disabled`` argument of the runner/CLI, or per spec through the
``FixpointSpec.lint_suppress`` class attribute (both accept ids or
names).  A suppression is an audited waiver, not a silent skip: the
report counts suppressed findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

#: Finding severities, most severe first.
ERROR = "error"
WARNING = "warning"
INFO = "info"
SEVERITIES = (ERROR, WARNING, INFO)

STRUCTURAL = "structural"
CONTRACT = "contract"
THREADS = "threads"


@dataclass(frozen=True)
class Rule:
    """One checkable applicability condition.

    Attributes
    ----------
    id:
        Stable short id (``S...`` structural, ``C...`` contract,
        ``T...`` threads).
    name:
        Kebab-case mnemonic, usable anywhere the id is.
    kind:
        ``structural``, ``contract``, or ``threads``.
    severity:
        Default severity of findings (a finding may downgrade it).
    summary:
        One-line statement of the condition the rule enforces.
    """

    id: str
    name: str
    kind: str
    severity: str
    summary: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.kind not in (STRUCTURAL, CONTRACT, THREADS):
            raise ValueError(f"unknown rule kind {self.kind!r}")


RULES: Dict[str, Rule] = {}
_BY_NAME: Dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.id in RULES or rule.name in _BY_NAME:
        raise ValueError(f"duplicate lint rule {rule.id}/{rule.name}")
    RULES[rule.id] = rule
    _BY_NAME[rule.name] = rule
    return rule


def get(ref: str) -> Rule:
    """Resolve a rule by id (``S001``) or name (``mutating-update``)."""
    rule = RULES.get(ref) or _BY_NAME.get(ref)
    if rule is None:
        raise KeyError(f"unknown lint rule {ref!r}; known: {', '.join(sorted(RULES))}")
    return rule


def resolve_refs(refs: Optional[Iterable[str]]) -> frozenset:
    """Normalize a mixed id/name collection to a frozenset of rule ids."""
    if not refs:
        return frozenset()
    return frozenset(get(ref).id for ref in refs)


# ----------------------------------------------------------------------
# Structural rules (AST / reflection; see lint/ast_checks.py)
# ----------------------------------------------------------------------
MUTATING_UPDATE = register(Rule(
    "S001", "mutating-update", STRUCTURAL, ERROR,
    "spec methods must not mutate the graph, pattern, or batch they are given",
))
UNDECLARED_READ = register(Rule(
    "S002", "undeclared-read", STRUCTURAL, ERROR,
    "update may only read status variables derived from graph/query "
    "accessors, the key itself, or input_keys",
))
PUSH_WITHOUT_CANDIDATE = register(Rule(
    "S003", "push-without-edge-candidate", STRUCTURAL, ERROR,
    "supports_push / relaxation_pairs require an overridden edge_candidate",
))
ORDER_KEY_IGNORES_TIMESTAMP = register(Rule(
    "S004", "order-key-ignores-timestamp", STRUCTURAL, ERROR,
    "uses_timestamps=True requires order_key to derive <_C from the timestamp",
))
VALUE_ORDER_FROM_TIMESTAMP = register(Rule(
    "S005", "value-order-from-timestamp", STRUCTURAL, ERROR,
    "a spec declared deducible (uses_timestamps=False) must not derive "
    "<_C from timestamps",
))
NONDETERMINISTIC_UPDATE = register(Rule(
    "S006", "nondeterministic-update", STRUCTURAL, ERROR,
    "update must be a pure function of the graph and its declared inputs "
    "(no random/time/popitem; set iteration order is a warning)",
))
MISSING_ANCHOR_HOOKS = register(Rule(
    "S007", "missing-anchor-hooks", STRUCTURAL, WARNING,
    "a spec using the generic scope function must override "
    "changed_input_keys and anchor_dependents",
))
KERNEL_CANDIDATE_MISMATCH = register(Rule(
    "S008", "kernel-candidate-mismatch", STRUCTURAL, ERROR,
    "a declared KernelSpec must satisfy encode ∘ edge_candidate == "
    "scalar combine on sampled edges (see lint/kernel_checks.py)",
))
KERNEL_FRONTIER_UNSEEDABLE = register(Rule(
    "S009", "kernel-frontier-unseedable", STRUCTURAL, WARNING,
    "a spec declaring a KernelSpec must override the anchor hooks "
    "(changed_input_keys / repair_seed_keys / anchor_dependents) so the "
    "incremental kernel can seed a sparse |AFF| frontier instead of "
    "forcing dense full-graph work",
))

# ----------------------------------------------------------------------
# Contract rules (executed on generated workloads; see lint/contracts.py)
# ----------------------------------------------------------------------
NOT_CONTRACTING = register(Rule(
    "C101", "not-contracting", CONTRACT, ERROR,
    "C2: replayed writes must never move a variable upward in ⪯ (Eq. 4)",
))
NOT_MONOTONIC = register(Rule(
    "C102", "not-monotonic", CONTRACT, ERROR,
    "C2: the update function must be order-preserving on its inputs",
))
INITIAL_NOT_TOP = register(Rule(
    "C103", "initial-not-top", CONTRACT, ERROR,
    "x^⊥ must dominate the fixpoint: final value ⪯ initial value",
))
ANCHOR_UNSOUND = register(Rule(
    "C104", "anchor-unsound", CONTRACT, ERROR,
    "C1: every variable invalidated by ΔG must be reachable from the "
    "repair seeds through anchor_dependents",
))
SCOPE_UNBOUNDED = register(Rule(
    "C105", "scope-unbounded", CONTRACT, ERROR,
    "C1: the scope function must produce H⁰ ⊆ AFF",
))
UNDECLARED_INPUT = register(Rule(
    "C106", "undeclared-input", CONTRACT, ERROR,
    "update read a status variable outside the declared input_keys",
))
CHANGED_INPUTS_INCOMPLETE = register(Rule(
    "C107", "changed-inputs-incomplete", CONTRACT, ERROR,
    "changed_input_keys must cover every variable whose declared input "
    "set evolved under ΔG",
))
INCREMENTAL_DIVERGENCE = register(Rule(
    "C108", "incremental-divergence", CONTRACT, ERROR,
    "the deduced incremental run must reach the same fixpoint as a "
    "from-scratch batch run on G ⊕ ΔG",
))
CHECK_CRASHED = register(Rule(
    "C109", "check-crashed", CONTRACT, ERROR,
    "a spec hook raised while a contract check exercised it",
))
DERIVATIVE_DIVERGENCE = register(Rule(
    "C110", "derivative-divergence", CONTRACT, ERROR,
    "a declared derivative must, per op of the expanded ΔG, leave every "
    "variable equal to a full update and write only changed_input_keys",
))

# ----------------------------------------------------------------------
# Concurrency rules (whole-program effect analysis; see lint/concurrency.py)
# ----------------------------------------------------------------------
SINGLE_WRITER_VIOLATION = register(Rule(
    "T001", "single-writer-violation", THREADS, ERROR,
    "session/graph mutation must not be reachable from a reader entry "
    "point except through the writer queue",
))
SNAPSHOT_ESCAPE = register(Rule(
    "T002", "snapshot-escape", THREADS, ERROR,
    "published AnswerSnapshots (frozen dataclasses) must never be "
    "mutated, and shared mutable state must not be returned without a "
    "defensive copy",
))
UNGUARDED_SHARED_ACCESS = register(Rule(
    "T003", "unguarded-shared-access", THREADS, ERROR,
    "a field written under a lock must not also be accessed bare "
    "(lock discipline must be all-or-nothing per field)",
))
LOCK_ORDER_INVERSION = register(Rule(
    "T004", "lock-order-inversion", THREADS, ERROR,
    "two locks must always be acquired in one global order "
    "(A-then-B somewhere and B-then-A elsewhere deadlocks)",
))
BLOCKING_UNDER_LOCK = register(Rule(
    "T005", "blocking-under-lock", THREADS, WARNING,
    "no blocking call (fsync, socket, sleep, queue/event wait) while "
    "holding a lock other than the condition being waited on",
))
WAL_ORDERING = register(Rule(
    "T006", "wal-ordering", THREADS, ERROR,
    "on a commit path the WAL append must precede the apply "
    "(the append-before-apply contract recovery depends on)",
))
THREAD_UNSAFE_CALLBACK = register(Rule(
    "T007", "thread-unsafe-callback", THREADS, ERROR,
    "user listeners must never be invoked while holding service locks "
    "(a listener calling back into the service would deadlock)",
))
