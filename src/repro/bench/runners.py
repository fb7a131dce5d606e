"""Shared plumbing for the experiment harness.

Wraps the five query classes in a uniform :class:`QueryClassSetup` so the
experiment drivers can iterate over them: how to build the batch/
incremental/competitor algorithms, which datasets the paper pairs them
with, and how to derive the query from a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..algorithms import CCfp, DFSfp, Dijkstra, IncCC, IncDFS, IncLCC, IncSSSP, IncSim, LCCfp, Simfp
from ..baselines import DynCC, DynDFS, DynDij, DynLCC, IncMatch, RRSSSP
from ..generators.patterns import random_pattern
from ..generators.random_graphs import largest_component_root
from ..graph.graph import Graph
from ..metrics.timers import best_of
from .tables import geometric_mean  # noqa: F401  (canonical home; re-exported)


@dataclass
class QueryClassSetup:
    """Everything the harness needs to exercise one query class."""

    name: str
    batch_factory: Callable[[], Any]
    inc_factory: Callable[[], Any]
    competitor_factory: Callable[[], Any]
    unit_competitor_factory: Optional[Callable[[], Any]] = None
    make_query: Callable[[Graph], Any] = lambda graph: None
    undirected_only: bool = False

    def competitor_for_unit_updates(self) -> Any:
        factory = self.unit_competitor_factory or self.competitor_factory
        return factory()


def _sssp_query(graph: Graph) -> Any:
    return largest_component_root(graph)


def _sim_query(graph: Graph) -> Graph:
    return random_pattern(graph, num_nodes=4, num_edges=6, seed=7)


SSSP_SETUP = QueryClassSetup(
    name="SSSP",
    batch_factory=Dijkstra,
    inc_factory=IncSSSP,
    competitor_factory=DynDij,
    unit_competitor_factory=RRSSSP,
    make_query=_sssp_query,
)

CC_SETUP = QueryClassSetup(
    name="CC",
    batch_factory=CCfp,
    inc_factory=IncCC,
    competitor_factory=DynCC,
    make_query=lambda graph: None,
    undirected_only=True,
)

SIM_SETUP = QueryClassSetup(
    name="Sim",
    batch_factory=Simfp,
    inc_factory=IncSim,
    competitor_factory=IncMatch,
    make_query=_sim_query,
)

DFS_SETUP = QueryClassSetup(
    name="DFS",
    batch_factory=DFSfp,
    inc_factory=IncDFS,
    competitor_factory=DynDFS,
    make_query=lambda graph: None,
)

LCC_SETUP = QueryClassSetup(
    name="LCC",
    batch_factory=LCCfp,
    inc_factory=IncLCC,
    competitor_factory=DynLCC,
    make_query=lambda graph: None,
    undirected_only=True,
)

ALL_SETUPS = {
    "SSSP": SSSP_SETUP,
    "CC": CC_SETUP,
    "Sim": SIM_SETUP,
    "DFS": DFS_SETUP,
    "LCC": LCC_SETUP,
}


def undirected_view(graph: Graph) -> Graph:
    """An undirected copy, for CC/LCC on directed datasets."""
    if not graph.directed:
        return graph
    out = Graph(directed=False)
    for v in graph.nodes():
        out.ensure_node(v, label=graph.node_label(v))
    for u, v in graph.edges():
        if not out.has_edge(u, v):
            out.add_edge(u, v, weight=graph.weight(u, v))
    return out


def time_batch(setup: QueryClassSetup, graph: Graph, query: Any, repeats: int = 1) -> float:
    """Best-of-``repeats`` seconds for a from-scratch batch run (what
    recomputation costs)."""
    return best_of(lambda: setup.batch_factory().run(graph, query), repeats).seconds
