"""Spec discovery, workload profiles, and the lint entry points.

``builtin_specs`` finds every :class:`FixpointSpec` subclass exported by
:mod:`repro.algorithms`; ``lint_spec`` runs the structural pass (and,
when asked, the contract pass) over one spec; ``lint_specs`` aggregates
everything into a :class:`~repro.lint.report.LintReport`.

Workload profiles encode what each algorithm needs to be *exercised*
rather than trivially skipped — SSSP wants a weighted directed graph and
a reachable source, Sim wants a labeled graph plus a pattern, Coreness
wants deletion-only anchor probes because its insertions are handled by
the custom subcore lift of :class:`~repro.algorithms.coreness.IncCoreness`
rather than the Figure-4 repair loop.  A spec the profiles do not know
gets a generic directed and undirected workload, which is enough for
every rule to run (checks that need missing structure skip themselves).
"""

from __future__ import annotations

import inspect
import random
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from ..core.spec import FixpointSpec
from ..graph.graph import from_edges
from ..graph.updates import Batch, EdgeDeletion, EdgeInsertion
from ..generators import (
    assign_labels,
    assign_weights,
    erdos_renyi,
    random_pattern,
    random_updates,
)
from . import rules
from .ast_checks import check_spec_structure
from .contracts import ContractOptions, Workload, check_spec_contracts
from .kernel_checks import check_frontier_seeding, check_kernel_declaration
from .report import LintFinding, LintReport


def builtin_specs() -> List[FixpointSpec]:
    """One instance of every spec class exported by :mod:`repro.algorithms`."""
    from .. import algorithms

    classes = []
    for name in dir(algorithms):
        obj = getattr(algorithms, name)
        if (
            inspect.isclass(obj)
            and issubclass(obj, FixpointSpec)
            and obj is not FixpointSpec
            and not inspect.isabstract(obj)
        ):
            classes.append(obj)
    classes.sort(key=lambda cls: (cls.name, cls.__name__))
    seen = set()
    specs = []
    for cls in classes:
        if cls not in seen:
            seen.add(cls)
            specs.append(cls())
    return specs


# ----------------------------------------------------------------------
# Workload profiles
# ----------------------------------------------------------------------
def _directed_weighted(seed: int, tag: str) -> Workload:
    graph = assign_weights(erdos_renyi(24, 70, directed=True, seed=seed), seed=seed)
    return Workload(graph, 0, random_updates(graph, 8, seed=seed + 1), tag)


def _tie_heavy(seed: int, tag: str) -> Workload:
    # Integer weights in 1..3, so widths and distances tie across paths:
    # the case <_C's timestamp tie-break must keep bounded (C105).
    rng = random.Random(seed)
    graph = erdos_renyi(24, 70, directed=True, seed=seed)
    for u, v in list(graph.edges()):
        graph.set_weight(u, v, float(rng.randint(1, 3)))
    delta = random_updates(graph, 8, seed=seed + 1, weight_range=(1.0, 3.0))
    delta = Batch([
        EdgeInsertion(op.u, op.v, weight=float(round(op.weight)))
        if isinstance(op, EdgeInsertion) else op
        for op in delta
    ])
    return Workload(graph, 0, delta, tag)


def _undirected(seed: int, tag: str) -> Workload:
    graph = erdos_renyi(22, 50, directed=False, seed=seed)
    return Workload(graph, None, random_updates(graph, 8, seed=seed + 1), tag)


def _restamped_root(tag: str) -> Workload:
    # Pinned counterexample: deleting (1, 5) repairs 5 and then its root
    # 3 back to id 3, so the root is stamped after the node it labels;
    # deleting (3, 5) next must still seed 5 (C104's incremental leg).
    graph = from_edges([(1, 5), (5, 3), (3, 7)])
    return Workload(graph, None, Batch([EdgeDeletion(1, 5), EdgeDeletion(3, 5)]), tag)


def _directed_reciprocal(seed: int, tag: str) -> Workload:
    # Reciprocated pairs, one direction of two deleted: LCC counts each
    # pair as one neighbor, so A_Δ must still match batch (C108).
    rng = random.Random(seed)
    graph = erdos_renyi(22, 50, directed=True, seed=seed)
    one_way = [(u, v) for u, v in sorted(graph.edges()) if u != v and not graph.has_edge(v, u)]
    pairs = rng.sample(one_way, 12)
    for u, v in pairs:
        graph.add_edge(v, u)
    after = graph.copy()
    for u, v in pairs[:2]:
        after.remove_edge(u, v)
    delta = [EdgeDeletion(u, v) for u, v in pairs[:2]]
    delta.extend(random_updates(after, 6, seed=seed + 1))
    return Workload(graph, None, Batch(delta), tag)


def _labeled_with_pattern(seed: int, tag: str) -> Workload:
    graph = assign_labels(
        erdos_renyi(20, 55, directed=True, seed=seed), alphabet=["a", "b", "c"], seed=seed
    )
    pattern = random_pattern(graph, num_nodes=3, num_edges=3, seed=seed)
    return Workload(graph, pattern, random_updates(graph, 6, seed=seed + 1), tag)


def default_workloads(spec: FixpointSpec) -> List[Workload]:
    """Seeded probes shaped for the spec's query/graph requirements."""
    name = spec.name
    if name in ("SSSP", "SSWP", "Reach"):
        return [
            _directed_weighted(3, f"{name}-a"),
            _directed_weighted(11, f"{name}-b"),
            _tie_heavy(5, f"{name}-ties"),
        ]
    if name == "Sim":
        return [_labeled_with_pattern(5, "Sim-a"), _labeled_with_pattern(13, "Sim-b")]
    if name in ("CC", "LCC", "Coreness"):
        probes = [_undirected(7, f"{name}-a"), _undirected(17, f"{name}-b")]
        if name == "LCC":
            probes.append(_directed_reciprocal(19, "LCC-directed"))
        if name == "CC":
            probes.append(_restamped_root("CC-root"))
        return probes
    return [_directed_weighted(3, f"{name}-directed"), _undirected(7, f"{name}-undirected")]


def default_options(spec: FixpointSpec) -> ContractOptions:
    """Per-spec calibration of the contract pass (see module docstring)."""
    if spec.name == "Coreness":
        from ..algorithms.coreness import IncCoreness

        # Insertions bypass the generic scope function (subcore lift), so
        # the generic C105 replay does not apply; anchors repair only the
        # deletion (coreness-lowering) direction.
        return ContractOptions(
            check_scope=False,
            anchor_deletion_only=True,
            incremental_factory=IncCoreness,
        )
    return ContractOptions()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_spec(
    spec: FixpointSpec,
    semantic: bool = False,
    disabled: Iterable[str] = (),
    workloads: Optional[List[Workload]] = None,
    options: Optional[ContractOptions] = None,
) -> List[LintFinding]:
    """All findings for one spec, with suppressions applied (not dropped).

    ``disabled`` takes rule ids or names and suppresses them globally;
    the spec's own :attr:`~repro.core.spec.FixpointSpec.lint_suppress`
    is honored the same way.  Suppressed findings stay in the output,
    marked, so waivers remain visible.
    """
    findings = check_spec_structure(spec)
    findings.extend(check_kernel_declaration(spec))
    findings.extend(check_frontier_seeding(spec))
    if semantic:
        findings.extend(check_spec_contracts(
            spec,
            workloads if workloads is not None else default_workloads(spec),
            options if options is not None else default_options(spec),
        ))
    suppressed_ids = rules.resolve_refs(spec.lint_suppress) | rules.resolve_refs(disabled)
    for finding in findings:
        if finding.rule.id in suppressed_ids:
            finding.suppressed = True
    return findings


def lint_specs(
    specs: Optional[List[FixpointSpec]] = None,
    semantic: bool = False,
    disabled: Iterable[str] = (),
    workloads_by_spec: Optional[Dict[str, List[Workload]]] = None,
    threads: bool = False,
) -> LintReport:
    """Lint many specs (default: every built-in) into one report.

    ``threads=True`` additionally runs the whole-program concurrency
    pass (T-rules) over the library source itself — the findings carry
    module names in the ``spec`` slot since they concern the serving
    tier, not any one spec.
    """
    if specs is None:
        specs = builtin_specs()
    report = LintReport(semantic=semantic, threads=threads)
    for spec in specs:
        workloads = (workloads_by_spec or {}).get(spec.name)
        report.extend(lint_spec(spec, semantic=semantic, disabled=disabled, workloads=workloads))
        report.specs_checked.append(spec.name)
    if threads:
        report.extend(lint_threads(disabled=disabled))
    return report


def lint_threads(
    package_root: Optional[Path] = None,
    model=None,
    disabled: Iterable[str] = (),
) -> List[LintFinding]:
    """Run the T-rule concurrency pass over a package tree.

    Defaults to the installed :mod:`repro` package itself and the
    repository's serve-tier :data:`~repro.lint.concurrency.DEFAULT_MODEL`.
    In-line ``# lint: allow(Txxx): reason`` pragmas and the ``disabled``
    argument both suppress (visibly, like every other suppression).
    """
    from .concurrency import check_concurrency
    from .effects import EffectIndex

    if package_root is None:
        package_root = Path(__file__).resolve().parent.parent
    index = EffectIndex.from_package(Path(package_root), package="repro")
    findings = check_concurrency(index, model)
    suppressed_ids = rules.resolve_refs(disabled)
    for finding in findings:
        if finding.rule.id in suppressed_ids:
            finding.suppressed = True
    return findings
