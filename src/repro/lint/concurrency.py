"""The T-rule family: concurrency checks over an :class:`EffectIndex`.

The serving tier's correctness (docs/serving.md, docs/robustness.md)
rests on invariants no spec-level lint pass can see:

* one writer thread owns the session — readers reach only the snapshot
  store (**T001**);
* published :class:`~repro.serve.state.AnswerSnapshot`\\ s are immutable
  and internal mutable state never escapes un-copied (**T002**);
* every field is either always-locked or never-locked (**T003**), locks
  nest in one global order (**T004**), and nothing blocks while holding
  one (**T005**);
* the WAL append precedes the apply on commit paths (**T006**);
* user listeners never run under service locks (**T007**).

Checks run against a :class:`ThreadModel` — the declaration of *which*
functions are reader entry points and *which* classes are writer-owned —
so the same rules apply to test fixtures with their own tiny models.
Findings are suppressible in-line with an audited pragma::

    self.session.register(...)  # lint: allow(T001): pre-start, no writer yet

(the pragma may sit on the finding line or the line above; the reason is
part of the waiver and should say *why* the access is safe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from . import rules
from .effects import (
    BLOCKING_TYPES,
    LOCK_TYPES,
    AttrAccess,
    CallSite,
    EffectIndex,
    FunctionEffects,
)
from .report import LintFinding

#: Call tokens that *apply* a batch to live state (the effect T006
#: orders against the WAL append); ``_maintain`` is the session's
#: per-query maintenance step.  No logging function applies to a private
#: copy (validation is an overlay), so every apply counts.
APPLY_TOKENS = frozenset({"apply_updates", "apply", "apply_stream", "_maintain"})


@dataclass(frozen=True)
class ThreadModel:
    """Who reads, who writes, and which classes are writer-owned.

    Attributes
    ----------
    reader_entries:
        Qualnames of functions any reader thread may call (protocol verb
        handlers, the public read paths).  Entries missing from the index
        are ignored, so one model serves many partial fixtures.
    guarded_classes:
        Classes only the writer thread may mutate (T001 fires when a
        reader entry reaches a mutation of one).
    shared_classes:
        Classes whose instances are shared across threads (T002 escape
        analysis inspects their public methods' returns).
    wal_classes:
        Classes whose ``append`` is the durability barrier (T006).
    """

    reader_entries: Tuple[str, ...] = ()
    guarded_classes: FrozenSet[str] = frozenset()
    shared_classes: FrozenSet[str] = frozenset()
    wal_classes: FrozenSet[str] = frozenset({"WriteAheadLog"})


#: The repository's own serve-tier model: every protocol verb handler
#: and public read path is a reader entry; everything the session owns
#: is writer-guarded.
DEFAULT_MODEL = ThreadModel(
    reader_entries=(
        "repro.serve.protocol.handle_line",
        "repro.serve.protocol.handle_request",
        "repro.serve.server._Handler.handle",
        "repro.serve.service.QueryService.read",
        "repro.serve.service.QueryService.watch",
        "repro.serve.service.QueryService.stats",
        "repro.serve.state.SnapshotStore.get",
        "repro.serve.state.SnapshotStore.wait_for",
        "repro.serve.state.SnapshotStore.names",
        "repro.serve.state.SnapshotStore.as_dict",
    ),
    guarded_classes=frozenset({
        "DynamicGraphSession",
        "RegisteredQuery",
        "FixpointState",
        "Graph",
        "WriteAheadLog",
        # The sharded tier's router/worker boundary: the router facade is
        # writer-owned like the session it substitutes for, and a worker
        # (with its per-shard session) belongs to exactly one shard
        # process/transport — no reader entry may reach either.
        "ShardedSession",
        "ShardWorker",
    }),
    shared_classes=frozenset({
        "SnapshotStore",
        "QueryService",
        "DynamicGraphSession",
        "LatencyRecorder",
        "DepthGauge",
        # Served through QueryService exactly like DynamicGraphSession:
        # its public reads must hand out copies, never merged internals.
        "ShardedSession",
    }),
)


# ----------------------------------------------------------------------
# Transitive-effect closures
# ----------------------------------------------------------------------
class _Closures:
    """Memoized transitive effects over the call graph (cycle-safe)."""

    def __init__(self, index: EffectIndex, model: ThreadModel) -> None:
        self.index = index
        self.model = model
        self._may_block: Dict[str, bool] = {}
        self._acquires: Dict[str, FrozenSet[str]] = {}
        self._listener: Dict[str, bool] = {}
        self._wal: Dict[str, bool] = {}

    def _edges(self, fx: FunctionEffects) -> List[Tuple[CallSite, FunctionEffects]]:
        out = []
        for site in fx.calls:
            for callee in self.index.resolve(site, fx):
                out.append((site, callee))
        return out

    def may_block(self, fx: FunctionEffects, _stack: Optional[Set[str]] = None) -> bool:
        if fx.qualname in self._may_block:
            return self._may_block[fx.qualname]
        stack = _stack or set()
        if fx.qualname in stack:
            return False
        stack.add(fx.qualname)
        result = bool(fx.blocking) or any(
            self.may_block(callee, stack) for _s, callee in self._edges(fx)
        )
        self._may_block[fx.qualname] = result
        return result

    def acquires(self, fx: FunctionEffects, _stack: Optional[Set[str]] = None) -> FrozenSet[str]:
        if fx.qualname in self._acquires:
            return self._acquires[fx.qualname]
        stack = _stack or set()
        if fx.qualname in stack:
            return frozenset()
        stack.add(fx.qualname)
        locks = {lock for lock, _line in fx.acquires}
        for _site, callee in self._edges(fx):
            locks |= self.acquires(callee, stack)
        result = frozenset(locks)
        self._acquires[fx.qualname] = result
        return result

    def invokes_listener(self, fx: FunctionEffects, _stack: Optional[Set[str]] = None) -> bool:
        if fx.qualname in self._listener:
            return self._listener[fx.qualname]
        stack = _stack or set()
        if fx.qualname in stack:
            return False
        stack.add(fx.qualname)
        result = any(site.is_listener for site in fx.calls) or any(
            self.invokes_listener(callee, stack) for _s, callee in self._edges(fx)
        )
        self._listener[fx.qualname] = result
        return result

    def reaches_wal_append(self, fx: FunctionEffects, _stack: Optional[Set[str]] = None) -> bool:
        if fx.qualname in self._wal:
            return self._wal[fx.qualname]
        stack = _stack or set()
        if fx.qualname in stack:
            return False
        stack.add(fx.qualname)
        result = False
        for _site, callee in self._edges(fx):
            if callee.name == "append" and callee.cls in self.model.wal_classes:
                result = True
                break
            if self.reaches_wal_append(callee, stack):
                result = True
                break
        self._wal[fx.qualname] = result
        return result


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def _finding(rule_id: str, fx_module: str, message: str, location: str,
             severity: str = "") -> LintFinding:
    return LintFinding(
        rule=rules.get(rule_id),
        spec=fx_module,
        message=message,
        severity=severity,
        location=location,
    )


def _check_single_writer(
    index: EffectIndex, model: ThreadModel, findings: List[LintFinding]
) -> None:
    """T001: BFS from each reader entry; a resolved edge into a function
    that directly mutates a guarded class is a violation (the search does
    not descend past the mutator — everything beneath it is writer-side
    machinery that would only repeat the same finding)."""
    reported: Set[Tuple[str, str]] = set()
    for entry_name in model.reader_entries:
        entry = index.functions.get(entry_name)
        if entry is None:
            continue
        direct = entry.mutates_classes & model.guarded_classes
        if direct:
            key = (entry.location, entry.qualname)
            if key not in reported:
                reported.add(key)
                findings.append(_finding(
                    "T001", entry.module,
                    f"reader entry {entry.qualname} itself mutates "
                    f"writer-owned {', '.join(sorted(direct))}",
                    entry.location,
                ))
        visited: Set[str] = {entry.qualname}
        queue: List[FunctionEffects] = [entry]
        while queue:
            fn = queue.pop(0)
            for site in fn.calls:
                if site.arg0_private or site.receiver_private:
                    continue  # operates on a thread-private object/copy
                for callee in index.resolve(site, fn):
                    if callee.qualname in visited:
                        continue
                    guarded = callee.mutates_classes & model.guarded_classes
                    if guarded:
                        location = f"{fn.path}:{site.line}"
                        key = (location, callee.qualname)
                        if key not in reported:
                            reported.add(key)
                            findings.append(_finding(
                                "T001", fn.module,
                                f"{callee.qualname} (mutates writer-owned "
                                f"{', '.join(sorted(guarded))}) is reachable from "
                                f"reader entry {entry.qualname} without the "
                                f"writer queue",
                                location,
                            ))
                        continue  # do not descend into the mutator
                    visited.add(callee.qualname)
                    queue.append(callee)


def _check_snapshot_escape(
    index: EffectIndex, model: ThreadModel, findings: List[LintFinding]
) -> None:
    """T002: frozen-dataclass writes anywhere; shared classes' public
    methods returning internal mutable state without a copy."""
    for fx in index.functions.values():
        for desc, line in fx.frozen_writes:
            findings.append(_finding(
                "T002", fx.module,
                f"{fx.qualname} writes {desc} on a frozen (published) "
                f"dataclass — snapshots are immutable once published",
                f"{fx.path}:{line}",
            ))
    for cls_name in model.shared_classes:
        info = index.classes.get(cls_name)
        if info is None:
            continue
        for method, qual in info.methods.items():
            if method.startswith("_"):
                continue
            fx = index.functions.get(qual)
            if fx is None:
                continue
            for expr, line in fx.escapes:
                parts = expr.split(".")
                if parts[0] == "self" and len(parts) == 2 and parts[1] in info.mutable_attrs:
                    findings.append(_finding(
                        "T002", fx.module,
                        f"{fx.qualname} returns internal mutable state "
                        f"self.{parts[1]} without a defensive copy",
                        f"{fx.path}:{line}",
                    ))
                elif len(parts) == 1 and parts[0] in fx.self_stores:
                    attr, _ = fx.self_stores[parts[0]]
                    findings.append(_finding(
                        "T002", fx.module,
                        f"{fx.qualname} returns {parts[0]!r}, the very object "
                        f"it stored into self.{attr} — callers can mutate "
                        f"shared state; return a copy",
                        f"{fx.path}:{line}",
                    ))


def _shared_attr_type(index: EffectIndex, owner: str, attr: str) -> Optional[str]:
    info = index.classes.get(owner)
    return info.attr_types.get(attr) if info is not None else None


def _check_unguarded_access(
    index: EffectIndex, model: ThreadModel, findings: List[LintFinding]
) -> None:
    """T003: group every attribute access by (owner, attr); a field with
    both locked and bare accesses (and at least one write) breaks the
    all-or-nothing lock discipline.  Lock/event/thread-typed fields are
    exempt (they are their own synchronization), as are ``__init__``
    accesses (pre-publication, single-threaded)."""
    groups: Dict[Tuple[str, str], List[Tuple[AttrAccess, FunctionEffects]]] = {}
    for fx in index.functions.values():
        if fx.is_init:
            continue
        for access in fx.accesses:
            groups.setdefault((access.owner, access.attr), []).append((access, fx))
    for (owner, attr), accesses in sorted(groups.items()):
        attr_type = _shared_attr_type(index, owner, attr)
        if attr_type in LOCK_TYPES or attr_type in BLOCKING_TYPES:
            continue
        locked = [(a, f) for a, f in accesses if a.locks]
        bare = [(a, f) for a, f in accesses if not a.locks]
        if not locked or not bare:
            continue
        if not any(a.is_write for a, _f in accesses):
            continue
        locks = sorted({lock for a, _f in locked for lock in a.locks})
        for access, fx in sorted(bare, key=lambda pair: (pair[0].line, pair[1].qualname)):
            verb = "written" if access.is_write else "read"
            findings.append(_finding(
                "T003", fx.module,
                f"{owner}.{attr} is accessed under {', '.join(locks)} "
                f"elsewhere but {verb} bare in {fx.qualname}",
                f"{fx.path}:{access.line}",
            ))


def _check_lock_order(
    index: EffectIndex, model: ThreadModel, closures: _Closures,
    findings: List[LintFinding],
) -> None:
    """T004: build the acquired-while-holding relation (lexical nesting
    plus call-under-lock edges); any 2-cycle is an inversion."""
    edges: Dict[Tuple[str, str], Tuple[str, str]] = {}  # (outer, inner) -> (qualname, loc)
    for fx in index.functions.values():
        for outer, inner in fx.nested_locks:
            edges.setdefault((outer, inner), (fx.qualname, fx.location))
        for site in fx.calls:
            if not site.locks:
                continue
            for callee in index.resolve(site, fx):
                for inner in closures.acquires(callee):
                    for outer in site.locks:
                        if outer != inner:
                            edges.setdefault(
                                (outer, inner), (fx.qualname, f"{fx.path}:{site.line}")
                            )
    seen: Set[Tuple[str, str]] = set()
    for (outer, inner), (qual, loc) in sorted(edges.items()):
        if (inner, outer) not in edges or (inner, outer) in seen:
            continue
        seen.add((outer, inner))
        other_qual, other_loc = edges[(inner, outer)]
        owner = index.functions.get(qual)
        findings.append(_finding(
            "T004", owner.module if owner is not None else "threads",
            f"lock order inversion: {qual} acquires {inner} while holding "
            f"{outer}, but {other_qual} ({other_loc}) acquires {outer} "
            f"while holding {inner}",
            loc,
        ))


def _check_blocking_under_lock(
    index: EffectIndex, model: ThreadModel, closures: _Closures,
    findings: List[LintFinding],
) -> None:
    """T005: direct blocking ops under a held lock, plus lock-held call
    edges into transitively-blocking callees."""
    for fx in index.functions.values():
        for token, line, locks in fx.blocking:
            if locks:
                findings.append(_finding(
                    "T005", fx.module,
                    f"{fx.qualname} calls blocking {token}() while holding "
                    f"{', '.join(sorted(locks))}",
                    f"{fx.path}:{line}",
                ))
        for site in fx.calls:
            if not site.locks:
                continue
            for callee in index.resolve(site, fx):
                if closures.may_block(callee):
                    findings.append(_finding(
                        "T005", fx.module,
                        f"{fx.qualname} calls {callee.qualname} (which may "
                        f"block) while holding {', '.join(sorted(site.locks))}",
                        f"{fx.path}:{site.line}",
                    ))


def _check_wal_ordering(
    index: EffectIndex, model: ThreadModel, closures: _Closures,
    findings: List[LintFinding],
) -> None:
    """T006: within any one function that both logs and applies, the
    first append-reaching call must precede the first apply."""
    for fx in index.functions.values():
        append_lines: List[int] = []
        apply_sites: List[CallSite] = []
        for site in fx.calls:
            is_append = False
            for callee in index.resolve(site, fx):
                if (callee.name == "append" and callee.cls in model.wal_classes) or (
                    closures.reaches_wal_append(callee)
                ):
                    is_append = True
                    break
            if is_append:
                append_lines.append(site.line)
            elif site.token in APPLY_TOKENS:
                apply_sites.append(site)
        if not append_lines or not apply_sites:
            continue
        first_append = min(append_lines)
        early = [s for s in apply_sites if s.line < first_append]
        for site in early:
            findings.append(_finding(
                "T006", fx.module,
                f"{fx.qualname} applies ({site.token} at line {site.line}) "
                f"before its first WAL append (line {first_append}) — the "
                f"append-before-apply contract recovery depends on",
                f"{fx.path}:{site.line}",
            ))


def _check_callback_under_lock(
    index: EffectIndex, model: ThreadModel, closures: _Closures,
    findings: List[LintFinding],
) -> None:
    """T007: listener invocation (direct or transitive) under any lock."""
    for fx in index.functions.values():
        for site in fx.calls:
            if not site.locks:
                continue
            if site.is_listener:
                findings.append(_finding(
                    "T007", fx.module,
                    f"{fx.qualname} invokes a user listener while holding "
                    f"{', '.join(sorted(site.locks))} — a listener calling "
                    f"back into the service deadlocks",
                    f"{fx.path}:{site.line}",
                ))
                continue
            for callee in index.resolve(site, fx):
                if closures.invokes_listener(callee):
                    findings.append(_finding(
                        "T007", fx.module,
                        f"{fx.qualname} calls {callee.qualname} (which invokes "
                        f"user listeners) while holding "
                        f"{', '.join(sorted(site.locks))}",
                        f"{fx.path}:{site.line}",
                    ))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def apply_pragmas(index: EffectIndex, findings: List[LintFinding]) -> None:
    """Mark findings suppressed by an in-line ``# lint: allow(Txxx)``
    pragma on the finding line or in the contiguous comment block
    directly above it (so a multi-line justification still counts)."""
    for finding in findings:
        if not finding.location:
            continue
        path, _, line_s = finding.location.rpartition(":")
        try:
            line = int(line_s)
        except ValueError:
            continue
        per_file = index.pragmas.get(path, {})
        comments = index.comment_lines.get(path, set())
        candidates = [line]
        above = line - 1
        while above in comments:
            candidates.append(above)
            above -= 1
        for candidate in candidates:
            if any(rule_id == finding.rule.id for rule_id, _reason in per_file.get(candidate, ())):
                finding.suppressed = True
                break


def check_concurrency(
    index: EffectIndex, model: Optional[ThreadModel] = None
) -> List[LintFinding]:
    """Run every T-rule over ``index``; pragma suppressions applied."""
    model = model or DEFAULT_MODEL
    closures = _Closures(index, model)
    findings: List[LintFinding] = []
    _check_single_writer(index, model, findings)
    _check_snapshot_escape(index, model, findings)
    _check_unguarded_access(index, model, findings)
    _check_lock_order(index, model, closures, findings)
    _check_blocking_under_lock(index, model, closures, findings)
    _check_wal_ordering(index, model, closures, findings)
    _check_callback_under_lock(index, model, closures, findings)
    apply_pragmas(index, findings)
    return findings
