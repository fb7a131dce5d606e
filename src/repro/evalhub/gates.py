"""CI regression gates over the run registry.

``repro bench gate`` evaluates the declarations in
``benchmarks/gates.toml`` against the latest recorded run of each
suite: absolute ceilings/floors (e.g. the one-scatter deletion-window
budget, zero isolation violations) always apply; relative tolerances
compare against the newest earlier run from the *same comparability
group* (host key + scale) with a **clean** git tree — dirty-tree runs
are never trusted as baselines.  When no comparable clean baseline
exists (first run on a host, CI hardware change) the relative check is
reported as skipped rather than failed: a gate must never invent a
baseline.

Gate entry schema (TOML)::

    [[gate]]
    suite = "serve"                        # registry suite
    metric = "scatters_per_deletion_window"
    rows = ["smoke_delete*", "delete_heavy*"]  # fnmatch on row name
    direction = "lower"                    # which way is better
    aggregate = "mean"                     # mean | geomean | max | min
    max = 1.0                              # absolute ceiling (optional)
    tolerance = 0.15                       # relative drift allowed vs baseline
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..bench.tables import geometric_mean
from ..errors import ReproError
from .registry import Ledger, Registry, RunRecord, repo_root


class GateConfigError(ReproError):
    """benchmarks/gates.toml is malformed."""


_AGGREGATES = {
    "mean": statistics.fmean,
    "geomean": geometric_mean,
    "max": max,
    "min": min,
}


@dataclass
class Gate:
    """One declared tolerance, parsed from ``gates.toml``."""

    suite: str
    metric: str
    rows: List[str] = field(default_factory=lambda: ["*"])
    direction: str = "higher"
    aggregate: str = "mean"
    max: Optional[float] = None
    min: Optional[float] = None
    tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise GateConfigError(
                f"{self.suite}/{self.metric}: direction must be higher|lower"
            )
        if self.aggregate not in _AGGREGATES:
            raise GateConfigError(
                f"{self.suite}/{self.metric}: unknown aggregate {self.aggregate!r}"
            )
        if self.max is None and self.min is None and self.tolerance is None:
            raise GateConfigError(
                f"{self.suite}/{self.metric}: gate declares no max/min/tolerance"
            )

    @property
    def label(self) -> str:
        return f"{self.suite}:{self.metric}[{','.join(self.rows)}]"

    def matched_values(self, ledger: Ledger, run: int) -> List[float]:
        values = []
        for row in ledger.rows(run):
            name = str(row.get("name", ""))
            if not any(fnmatch(name, pattern) for pattern in self.rows):
                continue
            value = row.get(self.metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values.append(float(value))
        return values

    def combine(self, values: List[float]) -> float:
        return float(_AGGREGATES[self.aggregate](values))


def default_gates_path() -> Path:
    root = repo_root()
    base = root if root is not None else Path.cwd()
    return base / "benchmarks" / "gates.toml"


def load_gates(path: Optional[Path] = None) -> List[Gate]:
    import tomllib

    path = Path(path) if path is not None else default_gates_path()
    try:
        payload = tomllib.loads(path.read_text())
    except FileNotFoundError:
        raise GateConfigError(f"gate config not found: {path}") from None
    except tomllib.TOMLDecodeError as exc:
        raise GateConfigError(f"{path}: {exc}") from None
    gates = []
    for doc in payload.get("gate", []):
        rows = doc.get("rows", ["*"])
        if isinstance(rows, str):
            rows = [rows]
        try:
            gates.append(
                Gate(
                    suite=doc["suite"],
                    metric=doc["metric"],
                    rows=list(rows),
                    direction=doc.get("direction", "higher"),
                    aggregate=doc.get("aggregate", "mean"),
                    max=doc.get("max"),
                    min=doc.get("min"),
                    tolerance=doc.get("tolerance"),
                )
            )
        except KeyError as exc:
            raise GateConfigError(f"{path}: gate entry missing {exc.args[0]!r}") from None
    if not gates:
        raise GateConfigError(f"{path}: no [[gate]] entries")
    return gates


@dataclass
class GateFinding:
    """The verdict of one gate against one suite's latest run."""

    gate: Gate
    status: str  # "ok" | "regression" | "ceiling" | "skipped"
    message: str
    current: Optional[float] = None
    baseline: Optional[float] = None

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "ceiling")


@dataclass
class GateReport:
    findings: List[GateFinding] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(f.failed for f in self.findings)

    def render_text(self) -> str:
        lines = []
        for f in self.findings:
            mark = {"ok": "ok  ", "skipped": "skip", "regression": "FAIL", "ceiling": "FAIL"}[
                f.status
            ]
            lines.append(f"{mark}  {f.gate.label}: {f.message}")
        verdict = "GATE FAILED" if self.failed else "gate passed"
        counts = (
            f"{sum(not f.failed and f.status == 'ok' for f in self.findings)} ok, "
            f"{sum(f.status == 'skipped' for f in self.findings)} skipped, "
            f"{sum(f.failed for f in self.findings)} failed"
        )
        return "\n".join(lines + [f"{verdict} ({counts})"])


def _check_gate(gate: Gate, ledger: Ledger) -> GateFinding:
    latest = ledger.latest
    if latest is None:
        return GateFinding(gate, "skipped", "no recorded runs")
    values = gate.matched_values(ledger, latest.run)
    if not values:
        return GateFinding(
            gate, "skipped", f"run {latest.run} has no rows matching {gate.rows}"
        )
    current = gate.combine(values)

    if gate.max is not None and current > gate.max:
        return GateFinding(
            gate,
            "ceiling",
            f"{current:.4g} exceeds the absolute ceiling {gate.max:g} "
            f"(run {latest.run}, {len(values)} row(s))",
            current=current,
        )
    if gate.min is not None and current < gate.min:
        return GateFinding(
            gate,
            "ceiling",
            f"{current:.4g} is under the absolute floor {gate.min:g} "
            f"(run {latest.run}, {len(values)} row(s))",
            current=current,
        )

    if gate.tolerance is None:
        return GateFinding(
            gate, "ok", f"{current:.4g} within absolute bounds", current=current
        )

    baseline_run = ledger.baseline_for(latest)
    if baseline_run is None:
        return GateFinding(
            gate,
            "ok" if gate.max is not None or gate.min is not None else "skipped",
            f"{current:.4g}; no comparable clean baseline for run {latest.run} "
            "(relative check skipped)",
            current=current,
        )
    base_values = gate.matched_values(ledger, baseline_run.run)
    if not base_values:
        return GateFinding(
            gate,
            "skipped",
            f"baseline run {baseline_run.run} has no rows matching {gate.rows}",
            current=current,
        )
    base = gate.combine(base_values)
    if base == 0:
        return GateFinding(
            gate, "skipped", f"baseline run {baseline_run.run} aggregate is 0", current
        )

    if gate.direction == "higher":
        floor = base * (1.0 - gate.tolerance)
        regressed, bound = current < floor, floor
    else:
        ceiling = base * (1.0 + gate.tolerance)
        regressed, bound = current > ceiling, ceiling
    context = (
        f"{current:.4g} vs baseline {base:.4g} "
        f"(run {latest.run} vs run {baseline_run.run}, "
        f"tolerance {gate.tolerance:.0%} → bound {bound:.4g})"
    )
    if regressed:
        return GateFinding(
            gate, "regression", f"REGRESSION: {context}", current=current, baseline=base
        )
    return GateFinding(gate, "ok", context, current=current, baseline=base)


def run_gates(
    registry: Optional[Registry] = None,
    gates: Optional[Sequence[Gate]] = None,
    path: Optional[Union[str, Path]] = None,
    suites: Optional[Sequence[str]] = None,
) -> GateReport:
    """Evaluate every gate (optionally restricted to ``suites``)."""
    registry = registry or Registry()
    if gates is None:
        gates = load_gates(Path(path) if path else None)
    ledgers: Dict[str, Ledger] = {}
    report = GateReport()
    for gate in gates:
        if suites and gate.suite not in suites:
            continue
        if gate.suite not in ledgers:
            ledgers[gate.suite] = registry.load(gate.suite)
        report.findings.append(_check_gate(gate, ledgers[gate.suite]))
    return report
