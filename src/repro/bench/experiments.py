"""The paper's evaluation, experiment by experiment.

Each function regenerates one table or figure of Section 6 and returns
its registry records: flat rows that carry |CHANGED| (``changed``) and,
where the experiment knows it, |AFF|.  The suites of
:mod:`repro.evalhub.suites` run them at named scales and append the rows
to the run registry; EXPERIMENTS.md holds the paper's reference numbers.
Absolute numbers differ from the paper (pure Python on laptop-scale
proxies — see DESIGN.md §2); the *shape* — who wins, by what factor,
where crossovers fall — is the reproduction target.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence

from ..algorithms import CCfp, IncCC
from ..algorithms.cc import NaiveIncCC
from ..algorithms.sssp import SSSPSpec
from ..baselines import UnitLoop
from ..core import run_batch
from ..core.boundedness import verify_relative_boundedness
from ..core.incremental import IncrementalAlgorithm
from ..datasets import load as load_dataset
from ..generators.random_graphs import (
    assign_labels,
    assign_weights,
    barabasi_albert,
    largest_component_root,
)
from ..generators.updates import random_updates
from ..graph.graph import Graph
from ..graph.temporal import TemporalGraph
from ..graph.updates import Batch, updated_copy
from ..metrics.memory import deep_size_bytes
from ..metrics.timers import best_of, time_call
from .runners import ALL_SETUPS, QueryClassSetup, time_batch, undirected_view

Record = Dict[str, Any]

PAPER_DATASETS = ("WD", "LJ", "DP", "OKT", "TW", "FS")


def _dataset_graph(name: str, scale: float) -> Graph:
    data = load_dataset(name, scale)
    if isinstance(data, TemporalGraph):
        first, last = data.time_span
        return data.snapshot((first + last) / 2)
    return data


def _graph_for(setup: QueryClassSetup, name: str, scale: float) -> Graph:
    graph = _dataset_graph(name, scale)
    if setup.undirected_only:
        graph = undirected_view(graph)
    return graph


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


def _ratio(num: float, den: float) -> Optional[float]:
    return round(num / den, 3) if den else None


def _time_updates(
    setup: QueryClassSetup,
    graph: Graph,
    query: Any,
    deltas: Sequence[Batch],
    batch_graphs: Sequence[Graph],
    repeats: int,
    loop: bool = True,
    measure: bool = False,
) -> Record:
    """Min-of-``repeats`` times of every contender applying ``deltas`` in turn.

    Batch recomputes each of ``batch_graphs`` from scratch.  A_Δ, the
    unit loop A_Δn and the competitor each start from fresh copies of
    ``graph`` and its batch fixpoint, built outside the timed region.
    ``measure`` turns on the access counters, for the scope share of h.
    """
    base_state = setup.batch_factory().run(graph.copy(), query)

    def replay(algo, g, s):
        return [algo.apply(g, s, d, query, measure=measure) for d in deltas]

    def fresh(factory):
        return lambda: (factory(), graph.copy(), base_state.copy())

    def built_competitor():
        comp = setup.competitor_factory()
        comp.build(graph.copy(), query)
        return (comp,)

    batch_seconds = sum(time_batch(setup, g, query, repeats) for g in batch_graphs)
    inc = best_of(replay, repeats, fresh(setup.inc_factory))
    comp = best_of(lambda c: [c.apply(d) for d in deltas], repeats, built_competitor)
    affected = [getattr(r, "affected_size", None) for r in inc.result]
    scopes = [getattr(r, "scope", None) for r in inc.result]
    changes = [getattr(r, "changes", None) for r in inc.result]
    row = {
        "changed": sum(d.size for d in deltas),
        "aff": None if None in affected else sum(affected),
        # aff mixes the inherent AFF with how tight H⁰ is; these split it.
        "h_scope": None if None in scopes else sum(map(len, scopes)),
        "changes": None if None in changes else sum(map(len, changes)),
        "repeats": repeats,
        "batch_ms": _ms(batch_seconds),
        "inc_ms": _ms(inc.seconds),
        "inc_spread": round(inc.spread, 3),
        "competitor_ms": _ms(comp.seconds),
        "speedup_vs_batch": _ratio(batch_seconds, inc.seconds),
    }
    if loop:
        unit = best_of(replay, repeats, fresh(lambda: UnitLoop(setup.inc_factory())))
        row["loop_ms"] = _ms(unit.seconds)
        row["speedup_vs_loop"] = _ratio(unit.seconds, inc.seconds)
    if measure:
        row["h_share_pct"] = round(100 * statistics.mean(r.scope_share for r in inc.result), 1)
    return row


# ----------------------------------------------------------------------
# Table 1 — headline comparison at |ΔG| = 4%
# ----------------------------------------------------------------------
def table1(scale: float = 0.5, repeats: int = 3) -> List[Record]:
    """Table 1: batch vs fine-tuned competitor vs deduced A_Δ, 4% updates."""
    records = []
    for name in ("SSSP", "Sim", "LCC"):
        setup = ALL_SETUPS[name]
        graph = _graph_for(setup, "FS", scale)
        query = setup.make_query(graph)
        delta = random_updates(graph, max(1, int(0.04 * graph.size)), seed=11)
        timed = _time_updates(
            setup, graph, query, [delta], [updated_copy(graph, delta)], repeats, loop=False
        )
        records.append({"name": f"table1_{name}", "query_class": name, "dataset": "FS", **timed})
    return records


# ----------------------------------------------------------------------
# Exp-1 — unit updates across the six datasets (Figure 6)
# ----------------------------------------------------------------------
def exp1_unit_updates(
    query_class: str,
    scale: float = 0.3,
    n_updates: int = 30,
    datasets: Sequence[str] = PAPER_DATASETS,
) -> List[Record]:
    """Figure 6: average per-unit-update time, deduced vs competitor."""
    setup = ALL_SETUPS[query_class]
    records = []
    for name in datasets:
        graph = _graph_for(setup, name, scale)
        query = setup.make_query(graph)
        insertions = random_updates(graph, n_updates, insert_fraction=1.0, seed=21)
        # Deletions sampled against the post-insertion graph for consistency.
        after_ins = updated_copy(graph, insertions)
        deletions = random_updates(after_ins, n_updates, insert_fraction=0.0, seed=22)
        units = list(insertions.unit_batches()) + list(deletions.unit_batches())

        aff_sizes: List[int] = []
        work = graph.copy()
        inc = setup.inc_factory()
        state = setup.batch_factory().run(work, query)
        inc_times = []
        for batch in units:
            res, seconds = time_call(inc.apply, work, state, batch, query)
            inc_times.append(seconds)
            aff = getattr(res, "affected_size", None)
            if aff is not None:
                aff_sizes.append(aff)

        comp = setup.competitor_for_unit_updates()
        comp.build(graph.copy(), query)
        comp_times = [time_call(comp.apply, batch)[1] for batch in units]

        inc_ins_ms = 1e3 * statistics.mean(inc_times[:n_updates])
        comp_ins_ms = 1e3 * statistics.mean(comp_times[:n_updates])
        inc_del_ms = 1e3 * statistics.mean(inc_times[n_updates:])
        comp_del_ms = 1e3 * statistics.mean(comp_times[n_updates:])
        records.append(
            {
                "name": f"fig6_{query_class}_{name}",
                "query_class": query_class,
                "dataset": name,
                "n_updates": n_updates,
                "changed": 1,  # unit updates: |ΔG| = 1 per apply
                "aff_mean": round(statistics.mean(aff_sizes), 1) if aff_sizes else None,
                "aff_max": max(aff_sizes, default=None),
                "inc_ins_ms": round(inc_ins_ms, 4),
                "comp_ins_ms": round(comp_ins_ms, 4),
                "inc_del_ms": round(inc_del_ms, 4),
                "comp_del_ms": round(comp_del_ms, 4),
                "ins_speedup": _ratio(comp_ins_ms, inc_ins_ms),
                "del_speedup": _ratio(comp_del_ms, inc_del_ms),
            }
        )
    return records


def exp1_aff(scale: float = 0.3, samples: int = 8) -> List[Record]:
    """Exp-1(c): |AFF| as a share of all status variables (OKT proxy)."""
    records = []
    for name in ("SSSP", "CC", "Sim", "LCC"):  # DFS has no generic FixpointSpec
        setup = ALL_SETUPS[name]
        spec = setup.inc_factory().spec
        graph = _graph_for(setup, "OKT", scale)
        query = setup.make_query(graph)
        shares: Dict[bool, List[float]] = {True: [], False: []}
        aff_sizes, bounded = [], True
        for i in range(samples):
            insert = i % 2 == 0
            delta = random_updates(graph, 1, insert_fraction=float(insert), seed=31 + i)
            report = verify_relative_boundedness(spec, graph, delta, query)
            shares[insert].append(100.0 * report.aff_share)
            aff_sizes.append(report.aff_size)
            bounded = bounded and report.scope_bounded
        records.append(
            {
                "name": f"fig6_aff_{name}",
                "query_class": name,
                "dataset": "OKT",
                "samples": samples,
                "changed": 1,
                "aff_mean": round(statistics.mean(aff_sizes), 1),
                "aff_ins_pct": round(statistics.mean(shares[True]), 6) if shares[True] else None,
                "aff_del_pct": round(statistics.mean(shares[False]), 6) if shares[False] else None,
                "scope_bounded": bounded,
            }
        )
    return records


# ----------------------------------------------------------------------
# Exp-2 — batch updates (Figure 7 a–f + DFS paragraph)
# ----------------------------------------------------------------------
def exp2_vary_delta(
    query_class: str,
    dataset: str,
    percentages: Sequence[float],
    scale: float = 0.5,
    repeats: int = 3,
) -> List[Record]:
    """Figure 7(a)-(f): batch updates of growing |ΔG|."""
    setup = ALL_SETUPS[query_class]
    graph = _graph_for(setup, dataset, scale)
    query = setup.make_query(graph)
    records = []
    for i, pct in enumerate(percentages):
        delta = random_updates(graph, max(1, int(pct * graph.size)), seed=41 + i)
        timed = _time_updates(setup, graph, query, [delta], [updated_copy(graph, delta)], repeats)
        records.append(
            {
                "name": f"fig7_{query_class}_{dataset}",
                "query_class": query_class,
                "dataset": dataset,
                "delta_pct": 100 * pct,
                **timed,
            }
        )
    return records


# ----------------------------------------------------------------------
# Exp-2(2) — real-life temporal updates (Figure 7 g–i)
# ----------------------------------------------------------------------
def exp2_temporal(
    scale: float = 0.5,
    months: int = 5,
    classes: Sequence[str] = ("SSSP", "CC", "Sim"),
    repeats: int = 3,
) -> List[Record]:
    """Figure 7(g)-(i) and Exp-2(2d): monthly Wiki-DE-style update batches,
    total time over all months plus the scope function's share of A_Δ."""
    slices = load_dataset("WD", scale).monthly_batches(months)
    records = []
    for name in classes:
        setup = ALL_SETUPS[name]
        view = undirected_view if setup.undirected_only else (lambda g: g)
        first_graph = view(slices[0][0])
        deltas = [delta for _snapshot, delta in slices]
        month_graphs = [updated_copy(view(snapshot), delta) for snapshot, delta in slices]
        query = setup.make_query(first_graph)
        timed = _time_updates(
            setup, first_graph, query, deltas, month_graphs, repeats, measure=True
        )
        records.append(
            {
                "name": f"fig7_temporal_{name}",
                "query_class": name,
                "dataset": "WD",
                "months": months,
                **timed,
            }
        )
    return records


# ----------------------------------------------------------------------
# Exp-3 — scalability (Figure 7 j–l)
# ----------------------------------------------------------------------
def exp3_scalability(
    query_class: str,
    node_counts: Sequence[int] = (500, 1000, 2000, 4000),
    delta_fraction: float = 0.01,
    repeats: int = 3,
) -> List[Record]:
    """Figure 7(j)-(l): |G| sweep at |ΔG| = 1%·|G| on synthetic graphs."""
    setup = ALL_SETUPS[query_class]
    records = []
    for i, n in enumerate(node_counts):
        graph = barabasi_albert(n, 5, seed=51 + i)
        assign_labels(graph, seed=52 + i)
        assign_weights(graph, seed=53 + i)
        query = setup.make_query(graph)
        delta = random_updates(graph, max(1, int(delta_fraction * graph.size)), seed=54 + i)
        timed = _time_updates(
            setup, graph, query, [delta], [updated_copy(graph, delta)], repeats, loop=False
        )
        records.append(
            {
                "name": f"fig7_scale_{query_class}_{n}",
                "query_class": query_class,
                "graph_size": graph.size,
                "delta_pct": 100 * delta_fraction,
                **timed,
            }
        )
    return records


# ----------------------------------------------------------------------
# Exp-4 — memory (Figure 8)
# ----------------------------------------------------------------------
def exp4_memory(scale: float = 0.3) -> List[Record]:
    """Figure 8: memory footprint after processing |ΔG| = 1% on OKT."""
    records = []
    mb = 1.0 / (1024 * 1024)
    for name, setup in ALL_SETUPS.items():
        graph = _graph_for(setup, "OKT", scale)
        query = setup.make_query(graph)
        delta = random_updates(graph, max(1, int(0.01 * graph.size)), seed=61)

        batch_state = setup.batch_factory().run(updated_copy(graph, delta), query)
        batch_bytes = deep_size_bytes(batch_state.values)

        inc = setup.inc_factory()
        work, state = graph.copy(), setup.batch_factory().run(graph.copy(), query)
        inc.apply(work, state, delta, query)
        inc_bytes = deep_size_bytes(state.values) + deep_size_bytes(state.timestamps)

        comp = setup.competitor_factory()
        comp.build(graph.copy(), query)
        comp.apply(delta)
        comp_bytes = deep_size_bytes(comp) - deep_size_bytes(comp.graph)

        records.append(
            {
                "name": f"fig8_{name}",
                "query_class": name,
                "dataset": "OKT",
                "changed": delta.size,
                "batch_mb": round(batch_bytes * mb, 4),
                "inc_mb": round(inc_bytes * mb, 4),
                "competitor_mb": round(max(0.0, comp_bytes * mb), 4),
                "inc_over_batch": _ratio(inc_bytes, batch_bytes),
            }
        )
    return records


# ----------------------------------------------------------------------
# Ablations (DESIGN.md §5)
# ----------------------------------------------------------------------
def ablation_scope(scale: float = 0.3, samples: int = 6) -> List[Record]:
    """Figure-4 h vs Example-2 PE reset on CC edge deletions."""
    graph = undirected_view(_dataset_graph("OKT", scale))
    records = []
    for i in range(samples):
        delta = random_updates(graph, 1, insert_fraction=0.0, seed=71 + i)
        g1, s1 = graph.copy(), CCfp().run(graph.copy())
        smart = IncCC().apply(g1, s1, delta, measure=True)
        g2, s2 = graph.copy(), CCfp().run(graph.copy())
        naive = NaiveIncCC().apply(g2, s2, delta)
        assert dict(s1.values) == dict(s2.values)
        records.append(
            {
                "name": f"ablation_scope_{i}",
                "dataset": "OKT",
                "update": type(delta[0]).__name__,
                "changed": 1,
                "aff": smart.affected_size,
                "smart_accesses": smart.total_accesses,
                "naive_accesses": naive.total_accesses,
                "access_ratio": round(naive.total_accesses / max(1, smart.total_accesses), 2),
            }
        )
    return records


class PullSSSPSpec(SSSPSpec):
    """SSSP with push propagation disabled (pure pull re-evaluation)."""

    supports_push = False

    def relaxation_pairs(self, delta, graph_new, query):
        return None  # full seed evaluation as well


def ablation_push(scale: float = 0.3, repeats: int = 3) -> List[Record]:
    """Push vs pull step-function propagation in the generic engine.

    The engine's push mode relaxes one dependent per edge instead of
    re-pulling whole input sets — the schedule real Dijkstra/min-label
    implementations use.  Measured on the batch run over G ⊕ ΔG and on
    incremental maintenance (hub re-evaluation is the pull engine's weak
    spot on power-law proxies), FS proxy, |ΔG| = 4%.
    """
    graph = _dataset_graph("FS", scale)
    query = largest_component_root(graph)
    delta = random_updates(graph, max(1, graph.size // 25), seed=7)
    new_graph = updated_copy(graph, delta)
    specs = {"push": SSSPSpec(), "pull": PullSSSPSpec()}

    batch = {
        mode: best_of(lambda: run_batch(spec, new_graph, query, engine="generic"), repeats)
        for mode, spec in specs.items()
    }
    inc = {}
    for mode, spec in specs.items():
        state = run_batch(spec, graph.copy(), query, engine="generic")
        inc[mode] = best_of(
            lambda algo, g, s: algo.apply(g, s, delta, query),
            repeats,
            lambda: (IncrementalAlgorithm(spec, engine="generic"), graph.copy(), state.copy()),
        )
    aff = inc["push"].result.affected_size
    records = []
    for kind, timings, row_aff in (("batch", batch, None), ("inc", inc, aff)):
        push, pull = timings["push"], timings["pull"]
        records.append(
            {
                "name": f"ablation_push_{kind}",
                "dataset": "FS",
                "changed": delta.size,
                "aff": row_aff,
                "repeats": repeats,
                "push_ms": _ms(push.seconds),
                "pull_ms": _ms(pull.seconds),
                "pull_over_push": _ratio(pull.seconds, push.seconds),
            }
        )
    return records
