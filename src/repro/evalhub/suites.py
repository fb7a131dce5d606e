"""The benchmark suite catalog: every suite the registry can record.

Each :class:`Suite` knows how to execute itself at a named scale
(``smoke``/``small``/``full``) and return flat registry rows.  This is
the only producer of benchmark numbers: the paper-reproduction suites
(fig6/fig7/fig8/table1/ablation) run :mod:`repro.bench.experiments`, and
the engine suites (kernels/serve) run :mod:`repro.evalhub.kernels` and
:mod:`repro.evalhub.serving`.  The scales below are the only settings.

At ``smoke`` scale the kernels and serve suites *first* run their hard
correctness gates (kernel == generic, zero torn reads, scatter budget)
and only then record the timed rows, so a CI smoke run is both a
correctness check and a gated data point.  The paper suites time every
A_Δ / batch / loop / competitor point as the best of :data:`REPEATS`
calls after a warmup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError

#: The named scales every suite understands.
SCALES = ("smoke", "small", "full")

#: Timed calls per measured point (after one warmup), per scale.
REPEATS = {"smoke": 2, "small": 3, "full": 5}


class SuiteError(ReproError):
    """A suite failed its correctness checks; nothing was recorded."""


@dataclass
class TrendSpec:
    """One metric the trend report tracks across runs for a suite.

    ``key`` names the row fields that identify a comparable row across
    runs (e.g. ``("name", "edges")`` — the same benchmark at the same
    size); ``direction`` says which way is better.
    """

    metric: str
    key: Tuple[str, ...] = ("name",)
    direction: str = "higher"


@dataclass
class Suite:
    name: str
    description: str
    runner: Callable[[str], List[Dict[str, Any]]]
    trends: Sequence[TrendSpec] = field(default_factory=tuple)

    def run(self, scale: str) -> List[Dict[str, Any]]:
        if scale not in SCALES:
            raise SuiteError(
                f"unknown scale {scale!r}; expected one of {', '.join(SCALES)}"
            )
        return self.runner(scale)


# ----------------------------------------------------------------------
# Engine suites: repro.evalhub.kernels / repro.evalhub.serving
# ----------------------------------------------------------------------
def _kernels_runner(scale: str) -> List[Dict[str, Any]]:
    from . import kernels

    if scale == "smoke":
        kernels.smoke()
        return kernels.run(edges_sweep=(2_000,), ops=60, repeats=1)
    if scale == "small":
        return kernels.run(edges_sweep=(10_000,), ops=150, repeats=2)
    return kernels.run(edges_sweep=(10_000, 100_000), ops=300, repeats=5)


def _serve_runner(scale: str) -> List[Dict[str, Any]]:
    from . import serving

    if scale == "smoke":
        return serving.smoke(duration=1.5)
    if scale == "small":
        return serving.run((1, 2), duration=2.0, threads=8, edges=1_000)
    return serving.run((1, 2, 4, 8), duration=4.0, threads=8, edges=2_000)


# ----------------------------------------------------------------------
# Paper-reproduction suites: repro.bench experiments
# ----------------------------------------------------------------------
def _records(*experiments: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for records in experiments:
        if not records:
            raise SuiteError("an experiment produced no registry records")
        rows.extend(records)
    return rows


def _fig6_runner(scale: str) -> List[Dict[str, Any]]:
    from ..bench.experiments import exp1_aff, exp1_unit_updates

    params = {
        "smoke": (("SSSP", "CC"), ("LJ",), 0.06, 4, 2),
        "small": (("SSSP", "CC", "Sim", "DFS", "LCC"), ("LJ", "TW"), 0.2, 10, 4),
        "full": (
            ("SSSP", "CC", "Sim", "DFS", "LCC"),
            ("WD", "LJ", "DP", "OKT", "TW", "FS"),
            0.3,
            15,
            8,
        ),
    }[scale]
    classes, datasets, data_scale, n_updates, aff_samples = params
    return _records(
        *(
            exp1_unit_updates(qc, scale=data_scale, n_updates=n_updates, datasets=datasets)
            for qc in classes
        ),
        exp1_aff(scale=data_scale, samples=aff_samples),
    )


#: The Figure-7 sweep per scale: (query class, dataset, |ΔG| fractions)
#: combos for Fig. 7(a-f) at a dataset scale; the temporal replay of
#: Fig. 7(g-i) at the same scale as (months, classes); the |G| sweep of
#: Fig. 7(j-l) as (classes, node counts).
_FIG7 = {
    "smoke": (
        (("SSSP", "FS", (0.02, 0.08)),),
        0.06,
        (2, ("SSSP",)),
        (("SSSP",), (60, 120)),
    ),
    "small": (
        (
            ("SSSP", "FS", (0.02, 0.08, 0.32)),
            ("CC", "OKT", (0.04, 0.16, 0.64)),
        ),
        0.3,
        (3, ("SSSP", "CC", "Sim")),
        (("SSSP", "CC", "Sim"), (250, 500, 1000)),
    ),
    "full": (
        (
            ("SSSP", "FS", (0.02, 0.04, 0.08, 0.16, 0.32)),
            ("SSSP", "TW", (0.02, 0.04, 0.08, 0.16, 0.32)),
            ("CC", "OKT", (0.04, 0.08, 0.16, 0.32, 0.64)),
            ("Sim", "DP", (0.02, 0.04, 0.16, 0.64)),
            ("Sim", "FS", (0.02, 0.04, 0.16, 0.64)),
            ("LCC", "LJ", (0.02, 0.04, 0.08, 0.16, 0.32)),
            ("DFS", "OKT", (0.005, 0.01, 0.02, 0.04, 0.08)),
        ),
        0.5,
        (5, ("SSSP", "CC", "Sim")),
        (("SSSP", "CC", "Sim"), (500, 1000, 2000, 4000)),
    ),
}


def _fig7_runner(scale: str) -> List[Dict[str, Any]]:
    from ..bench.experiments import exp2_temporal, exp2_vary_delta, exp3_scalability

    combos, data_scale, (months, wd_classes), (sweep, nodes) = _FIG7[scale]
    repeats = REPEATS[scale]
    return _records(
        *(
            exp2_vary_delta(qc, ds, pcts, scale=data_scale, repeats=repeats)
            for qc, ds, pcts in combos
        ),
        exp2_temporal(scale=data_scale, months=months, classes=wd_classes, repeats=repeats),
        *(exp3_scalability(qc, node_counts=nodes, repeats=repeats) for qc in sweep),
    )


def _fig8_runner(scale: str) -> List[Dict[str, Any]]:
    from ..bench.experiments import exp4_memory

    return _records(exp4_memory(scale={"smoke": 0.06, "small": 0.2, "full": 0.3}[scale]))


def _table1_runner(scale: str) -> List[Dict[str, Any]]:
    from ..bench.experiments import table1

    data_scale = {"smoke": 0.06, "small": 0.3, "full": 0.5}[scale]
    return _records(table1(scale=data_scale, repeats=REPEATS[scale]))


def _ablation_runner(scale: str) -> List[Dict[str, Any]]:
    from ..bench.experiments import ablation_push, ablation_scope

    data_scale, samples = {"smoke": (0.06, 2), "small": (0.2, 4), "full": (0.3, 6)}[scale]
    return _records(
        ablation_scope(scale=data_scale, samples=samples),
        ablation_push(scale=data_scale, repeats=REPEATS[scale]),
    )


SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            "kernels",
            "generic vs CSR kernel engine (batch + incremental streams)",
            _kernels_runner,
            trends=(
                TrendSpec("speedup", ("name", "edges")),
                TrendSpec("touched_mean", ("name", "edges"), direction="lower"),
            ),
        ),
        Suite(
            "serve",
            "serving tier load mixes over the shard sweep (throughput, latency, protocol)",
            _serve_runner,
            trends=(
                TrendSpec("throughput_ops_s", ("name", "shards")),
                TrendSpec("read_p99_ms", ("name", "shards"), direction="lower"),
                TrendSpec(
                    "scatters_per_deletion_window", ("name", "shards"), direction="lower"
                ),
            ),
        ),
        Suite(
            "fig6",
            "Figure 6: per-unit-update latency, deduced IncX vs fine-tuned competitor;"
            " Exp-1(c) |AFF| share",
            _fig6_runner,
            trends=(
                TrendSpec("inc_ins_ms", ("name",), direction="lower"),
                TrendSpec("inc_del_ms", ("name",), direction="lower"),
                TrendSpec("aff_del_pct", ("name",), direction="lower"),
            ),
        ),
        Suite(
            "fig7",
            "Figure 7: batch updates of growing |ΔG|, temporal months, |G| sweep"
            " — Inc vs batch vs unit loop",
            _fig7_runner,
            trends=(TrendSpec("speedup_vs_batch", ("name", "delta_pct")),),
        ),
        Suite(
            "fig8",
            "Figure 8: memory footprint of Inc state vs batch vs competitor",
            _fig8_runner,
            trends=(TrendSpec("inc_over_batch", ("name",), direction="lower"),),
        ),
        Suite(
            "table1",
            "Table 1: headline batch vs competitor vs deduced A_Δ at |ΔG| = 4%",
            _table1_runner,
            trends=(TrendSpec("speedup_vs_batch", ("name",)),),
        ),
        Suite(
            "ablation",
            "scope-function h vs brute-force PE reset (data accesses);"
            " push vs pull propagation",
            _ablation_runner,
            trends=(
                TrendSpec("access_ratio", ("name",)),
                TrendSpec("pull_over_push", ("name",)),
            ),
        ),
    )
}


def run_suite(name: str, scale: str = "small") -> List[Dict[str, Any]]:
    """Execute a catalog suite and return its registry rows."""
    suite = SUITES.get(name)
    if suite is None:
        raise SuiteError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return suite.run(scale)


def suite_for(name: str) -> Optional[Suite]:
    return SUITES.get(name)
