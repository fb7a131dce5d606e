"""Evaluation hub: the run registry every benchmark feeds and CI consumes.

The paper's core claim — incremental cost proportional to the *change*,
not the graph — is ultimately a claim about measured numbers.  This
package is where those numbers live:

``registry``
    One append-only run store under ``benchmarks/results/``: each suite
    is a JSON ledger of run-tagged rows with per-run host provenance
    (git sha + dirty bit, ``available_cpus``).

``suites``
    The suite catalog — kernels, serve, fig6/fig7/fig8, table1,
    ablation — each runnable at a named scale (``smoke``/``small``/
    ``full``) and returning registry rows with counter blocks
    (|CHANGED|, |AFF|, kernel_stats, ProtocolStats).  It is the only
    producer of benchmark numbers; ``kernels`` and ``serving`` hold the
    engine suites' measurement code.

``report``
    Paper-style markdown trend tables (the rtl-repair
    ``create_tables.py`` idiom): the metric trajectory across runs
    grouped by comparable host, plus speedup binned by |CHANGED|,
    rendered into ``docs/RESULTS.md``.

``gates``
    CI regression gates: compare the latest run against the last
    comparable recorded run under per-metric tolerances declared in
    ``benchmarks/gates.toml``, and enforce absolute ceilings (e.g. the
    one-scatter deletion-window budget).

Everything is surfaced through ``repro bench run|report|gate``.
"""

from .gates import GateFinding, GateReport, load_gates, run_gates
from .registry import (
    RECORD_SCHEMA,
    Ledger,
    Registry,
    RunRecord,
    default_root,
    host_key,
    host_record,
)
from .report import generate_report, write_report
from .suites import SCALES, SUITES, Suite, run_suite

__all__ = [
    "GateFinding",
    "GateReport",
    "Ledger",
    "RECORD_SCHEMA",
    "Registry",
    "RunRecord",
    "SCALES",
    "SUITES",
    "Suite",
    "default_root",
    "generate_report",
    "host_key",
    "host_record",
    "load_gates",
    "run_gates",
    "run_suite",
    "write_report",
]
