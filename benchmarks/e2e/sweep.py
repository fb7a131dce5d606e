"""The paper's A_Δ-vs-batch sweep, in process (Fig. 6/7, Table 1).

Four standing queries (SSSP from node 0, CC, Sim with a seeded 4-node
pattern, LCC) each keep their own graph replica and fixpoint state, as a
session does.  A *catch-up* applies one ΔG to all four through the
deduced ``A_Δ``; its time is the sum over the classes.  Batch recompute
runs ``A`` from scratch on ``G ⊕ ΔG``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import inputs
import reference

CLASSES = ("SSSP", "CC", "Sim", "LCC")
SOURCE = 0


@dataclass
class SweepGraph:
    nodes: int
    edges: List[inputs.Edge]
    labels: Dict[int, str]
    pattern_labels: Dict[str, str]
    pattern_edges: List[Tuple[str, str]]


def sweep_graph(rng: random.Random, n: int = 2500, m: int = 9) -> SweepGraph:
    edges = inputs.preferential_attachment(n, m, rng)
    labels = {v: rng.choice(inputs.LABELS) for v in range(n)}
    pattern_labels, pattern_edges = inputs.sim_pattern(rng)
    return SweepGraph(n, edges, labels, pattern_labels, pattern_edges)


class Standing:
    """One standing query: its algorithm pair, graph replica and state."""

    def __init__(self, name: str, graph, query) -> None:
        from repro.session import ALGORITHM_PAIRS

        batch_factory, inc_factory = ALGORITHM_PAIRS[name]
        self.name = name
        self.batch = batch_factory()
        self.inc = inc_factory()
        self.graph = graph
        self.query = query
        self.state = self.batch.run(graph, query)

    def apply(self, delta) -> float:
        started = time.perf_counter()
        self.inc.apply(self.graph, self.state, delta, self.query)
        return time.perf_counter() - started

    def recompute(self) -> float:
        started = time.perf_counter()
        self.batch.run(self.graph, self.query)
        return time.perf_counter() - started

    def answer(self):
        return self.batch.answer(self.state, self.graph, self.query)


def build(sg: SweepGraph) -> List[Standing]:
    """Load the graph once per class and run ``A``: the set-up step."""
    from repro.graph import Graph

    pattern = Graph(directed=True)
    for u, label in sg.pattern_labels.items():
        pattern.add_node(u, label)
    for a, b in sg.pattern_edges:
        pattern.add_edge(a, b)
    standing = []
    for name in CLASSES:
        graph = Graph(directed=False)
        for v in range(sg.nodes):
            graph.add_node(v, sg.labels[v])
        for u, v, w in sg.edges:
            graph.add_edge(u, v, weight=w)
        query = {"SSSP": SOURCE, "Sim": pattern}.get(name)
        standing.append(Standing(name, graph, query))
    return standing


def to_batch(ops):
    from repro.graph import Batch, EdgeDeletion, EdgeInsertion

    return Batch([
        EdgeInsertion(op[1], op[2], weight=op[3]) if op[0] == "+e" else EdgeDeletion(op[1], op[2])
        for op in ops
    ])


def catch_up(standing: List[Standing], ops) -> Dict[str, float]:
    """Apply one ΔG to every standing query; seconds per class."""
    delta = to_batch(ops)
    return {s.name: s.apply(delta) for s in standing}


def check(standing: List[Standing], sg: SweepGraph, adj: reference.Adj) -> List[str]:
    """Compare every class's answer with the textbook oracle on ``adj``."""
    problems = []
    for s in standing:
        got = s.answer()
        if s.name == "SSSP":
            ok = got == reference.sssp(adj, SOURCE)
        elif s.name == "CC":
            ok = reference.partition_of(got) == reference.components(adj)
        elif s.name == "Sim":
            ok = got == reference.simulation(adj, sg.labels, sg.pattern_labels, sg.pattern_edges)
        else:
            expected = reference.lcc(adj)
            ok = got.keys() == expected.keys() and all(
                abs(got[v] - expected[v]) <= 1e-9 for v in expected
            )
        if not ok:
            problems.append(f"{s.name} answer differs from the oracle")
    return problems
