"""Paper-style markdown trend reports over the run registry.

``repro bench report`` renders, per suite, the run index (tag, scale,
git sha, host) and one trend table per tracked metric: rows are the
suite's benchmark configurations, columns the recorded runs — but only
runs from the *same comparability group* (host key + scale) share a
table, so a laptop run never masquerades as a regression against a CI
container run.  A final section reports incremental speedup **binned by
|CHANGED|** across the paper suites, because incremental cost is a
claim about change size, not a single geomean.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.tables import geometric_mean, markdown_table
from .registry import Ledger, Registry, RunRecord, host_key
from .suites import SUITES, TrendSpec

#: |CHANGED| bins for the speedup-vs-change-size table (upper bounds).
CHANGED_BINS: Sequence[Tuple[float, str]] = (
    (1, "1"),
    (10, "2–10"),
    (100, "11–100"),
    (1000, "101–1000"),
    (float("inf"), ">1000"),
)


def _bin_label(changed: float) -> str:
    for bound, label in CHANGED_BINS:
        if changed <= bound:
            return label
    return CHANGED_BINS[-1][1]


def _or_dash(value: Any) -> Any:
    """A missing field renders as ``-``, like a missing run."""
    return "-" if value is None else value


def _host_label(host: Dict[str, Any]) -> str:
    python = str(host.get("python") or "?")
    cpus = _or_dash(host.get("available_cpus", host.get("cpus")))
    return f"{host.get('machine', '?')} / {cpus} cpu / py{python}"


def _run_header(record: RunRecord) -> str:
    return f"run {record.run}" + (f" ({record.tag})" if record.tag else "")


def _git_label(record: RunRecord) -> str:
    sha = record.host.get("git_sha") or "-"
    if record.host.get("git_dirty"):
        sha += "+dirty"
    return sha


def run_index_table(ledger: Ledger) -> str:
    headers = ["run", "tag", "scale", "recorded", "git", "host", "rows"]
    rows = []
    for record in sorted(ledger.runs, key=lambda r: r.run):
        rows.append(
            [
                record.run,
                record.tag or ("(migrated)" if record.migrated else "-"),
                record.scale or "-",
                (record.recorded_at or "-")[:10],
                _git_label(record),
                _host_label(record.host),
                len(ledger.rows(record.run)),
            ]
        )
    return markdown_table(headers, rows)


def _comparability_groups(ledger: Ledger) -> "OrderedDict[tuple, List[RunRecord]]":
    """Runs grouped by (host key, scale), newest group first."""
    groups: Dict[tuple, List[RunRecord]] = {}
    for record in sorted(ledger.runs, key=lambda r: r.run):
        groups.setdefault((host_key(record.host), record.scale), []).append(record)
    ordered = sorted(groups.items(), key=lambda item: -item[1][-1].run)
    return OrderedDict(ordered)


def trend_table(
    ledger: Ledger, spec: TrendSpec, runs: Sequence[RunRecord]
) -> Optional[str]:
    """One metric's trajectory across ``runs`` (a comparability group)."""
    by_run = {record.run: ledger.rows(record.run) for record in runs}
    keys: List[tuple] = []
    cells: Dict[tuple, Dict[int, Any]] = {}
    for record in runs:
        for row in by_run[record.run]:
            if spec.metric not in row or row[spec.metric] is None:
                continue
            key = tuple(_or_dash(row.get(k)) for k in spec.key)
            if key not in cells:
                keys.append(key)
                cells[key] = {}
            cells[key][record.run] = row[spec.metric]
    if not keys:
        return None
    shown = [r for r in runs if any(r.run in cells[k] for k in keys)]
    if not shown:
        return None
    headers = list(spec.key) + [_run_header(r) for r in shown]
    arrow = "↑" if spec.direction == "higher" else "↓"
    rows = [list(key) + [cells[key].get(r.run, "-") for r in shown] for key in keys]
    title = f"**`{spec.metric}`** ({arrow} better)"
    return title + "\n\n" + markdown_table(headers, rows)


def changed_bins_table(ledgers: Sequence[Ledger]) -> Optional[str]:
    """Geomean incremental speedup per |CHANGED| bin, latest run per suite.

    Only rows that carry both a ``changed`` count and a
    ``speedup_vs_batch`` metric participate (fig6 rows are unit updates,
    fig7 rows span the |ΔG| sweep, table1 sits at 4%).
    """
    rows = []
    for ledger in ledgers:
        latest = ledger.latest
        if latest is None:
            continue
        bins: Dict[str, List[float]] = {}
        for row in ledger.rows(latest.run):
            changed, speedup = row.get("changed"), row.get("speedup_vs_batch")
            if changed is None or speedup is None:
                continue
            bins.setdefault(_bin_label(changed), []).append(speedup)
        for _bound, label in CHANGED_BINS:
            if label in bins:
                values = bins[label]
                rows.append(
                    [
                        ledger.suite,
                        _run_header(latest),
                        label,
                        len(values),
                        round(geometric_mean(values), 3),
                        round(min(values), 3),
                        round(max(values), 3),
                    ]
                )
    if not rows:
        return None
    headers = ["suite", "run", "\\|CHANGED\\| bin", "rows", "geomean speedup", "min", "max"]
    return markdown_table(headers, rows)


def render_suite(ledger: Ledger) -> str:
    suite = SUITES.get(ledger.suite)
    parts = [f"## Suite `{ledger.suite}`"]
    if suite is not None:
        parts.append(f"*{suite.description}*")
    if not ledger.runs:
        parts.append("*(no recorded runs)*")
        return "\n\n".join(parts)
    parts.append(run_index_table(ledger))
    trends = suite.trends if suite is not None else ()
    for (key, scale), runs in _comparability_groups(ledger).items():
        rendered = [t for t in (trend_table(ledger, s, runs) for s in trends) if t]
        if not rendered:
            continue
        host = runs[-1].host
        parts.append(
            f"### {_host_label(host)} · scale `{scale or '-'}` "
            f"({len(runs)} run{'s' if len(runs) != 1 else ''})"
        )
        parts.extend(rendered)
    return "\n\n".join(parts)


def generate_report(
    registry: Optional[Registry] = None, suites: Optional[Sequence[str]] = None
) -> str:
    """The full trend report as one markdown document."""
    registry = registry or Registry()
    names = list(suites) if suites else registry.suites()
    ledgers = [registry.load(name) for name in names]
    header = (
        "# RESULTS — recorded benchmark trajectory\n\n"
        "Generated by `repro bench report` from the append-only run\n"
        "registry under `benchmarks/results/` — do not edit by hand.\n"
        "Trend tables only compare runs from the same host comparability\n"
        "group (machine / cpu budget / python) at the same scale; see\n"
        "`docs/evaluation.md` for the schema and `benchmarks/gates.toml`\n"
        "for the regression tolerances CI enforces over these numbers.\n"
    )
    sections = [render_suite(ledger) for ledger in ledgers]
    binned = changed_bins_table(ledgers)
    if binned is not None:
        sections.append(
            "## Incremental speedup vs |CHANGED|\n\n"
            "Speedup of the deduced A_Δ over batch recomputation, binned\n"
            "by the number of unit updates applied — the bounded-cost\n"
            "claim as a function of change size.\n\n" + binned
        )
    return header + "\n" + "\n\n".join(sections) + "\n"


def write_report(
    path: Path,
    registry: Optional[Registry] = None,
    suites: Optional[Sequence[str]] = None,
) -> str:
    text = generate_report(registry, suites)
    Path(path).write_text(text)
    return text
