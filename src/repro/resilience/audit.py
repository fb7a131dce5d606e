"""Runtime σ_A invariant audits of live fixpoint states.

Theorem 1's correctness argument rests on the session's states *being*
fixpoints: every status variable equals its update function applied to
the current assignment (``D = f_A(D)``), and the variable set matches
``Ψ_A(G)``.  Nothing re-checks that at runtime — bit rot, a buggy
listener poking at state, a torn apply that slipped past the
transaction layer, or a genuine framework bug would go unnoticed until
answers are visibly wrong.  This module re-checks it, in the spirit of
the lint contract pass (:mod:`repro.lint.contracts` probes σ_A on
seeded workloads at development time; this probes it on the *live*
state in production):

* :func:`sigma_audit` — cheap, sampled: the variable set is compared to
  ``spec.variables(G, Q)`` exactly, and a random sample of variables is
  re-evaluated through ``spec.update`` against the live assignment.
  Any difference is a σ_A violation — at a fixpoint of a contracting,
  monotonic spec, ``f`` moves nothing.
* :func:`full_audit` — exhaustive: a from-scratch batch run on a copy
  of the replica, diffed value by value.  Works for every algorithm
  pair, including the non-spec ones (DFS), and is what the sampled
  audit escalates to on demand (``repro audit --full``).

Audits only *detect*; the session reacts (quarantine + batch-recompute
self-heal) in :meth:`DynamicGraphSession.audit
<repro.session.DynamicGraphSession.audit>`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.state import FixpointState
from ..graph.graph import Graph


@dataclass
class AuditFinding:
    """One broken invariant: a variable whose value or existence is wrong."""

    kind: str          #: "value-divergence" | "missing-variable" | "extra-variable"
    key: Any
    expected: Any = None
    actual: Any = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "key": repr(self.key),
            "expected": repr(self.expected),
            "actual": repr(self.actual),
        }


@dataclass
class QueryAudit:
    """Audit outcome for one registered query."""

    query: str
    mode: str                        #: "sigma" (sampled) or "full"
    checked: int = 0                 #: variables actually examined
    findings: List[AuditFinding] = field(default_factory=list)
    healed: bool = False
    #: ΔO of the healing recompute (empty unless ``healed``).
    changes: Dict[Any, Tuple[Any, Any]] = field(default_factory=dict, repr=False)

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "mode": self.mode,
            "checked": self.checked,
            "clean": self.clean,
            "healed": self.healed,
            "findings": [f.as_dict() for f in self.findings],
        }


@dataclass
class AuditReport:
    """Audit outcomes across a session's registered queries."""

    entries: List[QueryAudit] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(entry.clean for entry in self.entries)

    def as_dict(self) -> Dict[str, Any]:
        return {"clean": self.clean, "queries": [e.as_dict() for e in self.entries]}

    def __repr__(self) -> str:
        dirty = sum(1 for e in self.entries if not e.clean)
        return f"AuditReport({len(self.entries)} queries, {dirty} dirty)"


_MAX_FINDINGS = 16  # enough to diagnose; the heal path doesn't need more


def sigma_audit(
    spec,
    graph: Graph,
    state: FixpointState,
    query: Any,
    sample: Optional[int] = 32,
    rng: Optional[random.Random] = None,
) -> QueryAudit:
    """Sampled σ_A probe of one spec-backed state; see module docstring.

    ``sample=None`` re-evaluates every variable (still cheaper than a
    batch run: one ``f`` evaluation per variable, no propagation).
    """
    audit = QueryAudit(query="", mode="sigma")
    values = state.values

    expected_keys = set(spec.variables(graph, query))
    for key in expected_keys:
        if key not in values:
            audit.findings.append(AuditFinding("missing-variable", key))
            if len(audit.findings) >= _MAX_FINDINGS:
                return audit
    for key in values:
        if key not in expected_keys:
            audit.findings.append(AuditFinding("extra-variable", key, actual=values[key]))
            if len(audit.findings) >= _MAX_FINDINGS:
                return audit

    keys = [k for k in values if k in expected_keys]
    if sample is not None and len(keys) > sample:
        keys.sort(key=repr)
        keys = (rng or random.Random(0)).sample(keys, sample)

    def value_of(k):
        if k in values:
            return values[k]
        return spec.initial_value(k, graph, query)

    for key in keys:
        audit.checked += 1
        expected = spec.update(key, value_of, graph, query)
        if expected != values[key]:
            audit.findings.append(
                AuditFinding("value-divergence", key, expected=expected, actual=values[key])
            )
            if len(audit.findings) >= _MAX_FINDINGS:
                break
    return audit


def full_audit(batch_algorithm, graph: Graph, state: FixpointState, query: Any) -> QueryAudit:
    """Exhaustive audit: diff the live state against a fresh batch run."""
    audit = QueryAudit(query="", mode="full")
    fresh = batch_algorithm.run(graph.copy(), query)
    live, truth = state.values, fresh.values
    audit.checked = len(truth)
    for key, expected in truth.items():
        if key not in live:
            audit.findings.append(AuditFinding("missing-variable", key, expected=expected))
        elif live[key] != expected:
            audit.findings.append(
                AuditFinding("value-divergence", key, expected=expected, actual=live[key])
            )
        if len(audit.findings) >= _MAX_FINDINGS:
            return audit
    for key in live:
        if key not in truth:
            audit.findings.append(AuditFinding("extra-variable", key, actual=live[key]))
            if len(audit.findings) >= _MAX_FINDINGS:
                break
    return audit
