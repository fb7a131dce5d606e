"""Tests for the initial scope function h (Figure 4), on the paper's examples."""

import math

import pytest

from repro.algorithms.cc import CCSpec
from repro.algorithms.sssp import SSSPSpec
from repro.core import initial_scope, run_batch
from repro.core.incremental import IncrementalAlgorithm
from repro.graph import Batch, EdgeDeletion, EdgeInsertion, apply_updates, from_edges

INF = math.inf


def apply_and_scope(spec, graph, query, state, delta):
    """Apply ΔG to ``graph`` and run ``h`` with the anchor-tested repair
    seeds, taken on the old state and weights as both drivers take them."""
    delta = apply_updates(graph, delta, expand=True)
    seeds = spec.repair_seed_keys(delta, graph, query, state, delta.old_weights)
    return initial_scope(spec, graph, query, state, delta, seeds)


class TestPaperExample4:
    """Example 4: SSSP scope function on the Figure 2(a) graph."""

    def run_h(self, paper_graph):
        spec = SSSPSpec()
        state = run_batch(spec, paper_graph, 0)
        # Old fixpoint: the distances of Figure 3(a), G column.
        assert state.values == {0: 0.0, 1: 5.0, 2: 1.0, 3: 7.0, 4: 6.0, 5: 2.0, 6: 3.0, 7: 4.0}
        delta = Batch([EdgeDeletion(5, 6), EdgeInsertion(5, 3, weight=1.0)])
        scope = apply_and_scope(spec, paper_graph, 0, state, delta)
        return state, scope

    def test_scope_matches_paper(self, paper_graph):
        _state, scope = self.run_h(paper_graph)
        # Example 4: h returns {x_3, x_6, x_7} as H⁰.
        assert scope == {3, 6, 7}

    def test_repaired_status_matches_paper(self, paper_graph):
        state, _scope = self.run_h(paper_graph)
        # D⁰ differs from the fixpoint only in x_6 (∞ vs 3) and x_7 (5 vs 4).
        assert state.values[6] == INF
        assert state.values[7] == 5.0
        assert state.values[3] == 7.0  # feasible, untouched by repair
        assert state.values[1] == 5.0

    def test_new_fixpoint_matches_figure_3a(self, paper_graph):
        from repro.core import run_fixpoint

        spec = SSSPSpec()
        state, scope = self.run_h(paper_graph)
        relax = spec.relaxation_pairs(
            Batch([EdgeInsertion(5, 3, weight=1.0)]), paper_graph, 0
        )
        run_fixpoint(spec, paper_graph, 0, state=state, scope=scope, relaxations=relax)
        # Figure 3(a), G ⊕ ΔG column.
        assert state.values == {0: 0.0, 1: 4.0, 2: 1.0, 3: 3.0, 4: 5.0, 5: 2.0, 6: 9.0, 7: 5.0}


class TestInsertionsNeedNoRepair:
    def test_sssp_insertion_keeps_values_feasible(self):
        g = from_edges([(0, 1), (1, 2)], directed=True, weights=[2.0, 2.0])
        spec = SSSPSpec()
        state = run_batch(spec, g, 0)
        delta = Batch([EdgeInsertion(0, 2, weight=1.0)])
        snapshot = dict(state.values)
        scope = apply_and_scope(spec, g, 0, state, delta)
        # h performs no repair on pure insertions; values untouched.
        assert dict(state.values) == snapshot
        assert scope == {2}


class TestCCScope:
    def test_deletion_repairs_later_timestamped_endpoint(self):
        # Path 0 - 1 - 2: component id 0 everywhere; deleting (0, 1)
        # orphans {1, 2}, whose values must be raised to node ids.
        g = from_edges([(0, 1), (1, 2)])
        spec = CCSpec()
        state = run_batch(spec, g, None)
        assert state.values == {0: 0, 1: 0, 2: 0}
        delta = Batch([EdgeDeletion(0, 1)])
        scope = apply_and_scope(spec, g, None, state, delta)
        assert state.values[0] == 0
        assert state.values[1] == 1
        assert state.values[2] in (1, 2)  # repaired upward, feasible
        assert 1 in scope

    def test_deletion_inside_cycle_stops_early(self):
        # Cycle 0-1-2-3: deleting one edge keeps the component connected;
        # the repair must not flood it (Example 5's improvement).
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        spec = CCSpec()
        state = run_batch(spec, g, None)
        delta = Batch([EdgeDeletion(0, 1)])
        scope = apply_and_scope(spec, g, None, state, delta)
        # At most the two endpoints plus one cascade step enter H⁰.
        assert scope <= {0, 1, 2, 3}
        assert len(scope) <= 3


class TestRepairSkipForDependencyFreeSpecs:
    def test_lcc_scope_is_seed_only(self):
        from repro.algorithms.lcc import LCCSpec

        g = from_edges([(0, 1), (1, 2), (0, 2)])
        spec = LCCSpec()
        state = run_batch(spec, g, None)
        before = dict(state.values)
        delta = Batch([EdgeDeletion(0, 1)])
        scope = apply_and_scope(spec, g, None, state, delta)
        # No repair: values unchanged until the step function runs.
        assert dict(state.values) == before
        assert ("d", 0) in scope and ("d", 1) in scope
        assert ("λ", 2) in scope


class TestAnchorTestedSeeds:
    """Pinned cases for the per-class repair-seed tests (Figure 4, C1):
    each runs on the generic engine and, where the class has one, on the
    kernel engine, and must still reach the batch fixpoint."""

    ENGINES = ("generic", "kernel")

    @staticmethod
    def seeds(spec, graph, state, delta, query=None):
        graph_new = graph.copy()
        delta = apply_updates(graph_new, delta, expand=True)
        return set(spec.repair_seed_keys(delta, graph_new, query, state, delta.old_weights))

    def test_cc_root_stamped_after_head_still_seeds_it(self):
        from repro.algorithms.cc import CCfp, IncCC

        base = from_edges([(1, 5), (5, 3), (3, 7)])
        for engine in self.ENGINES:
            g, state = base.copy(), CCfp(engine="generic").run(base.copy())
            IncCC(engine="generic").apply(g, state, Batch([EdgeDeletion(1, 5)]))
            # Root 3 was repaired back to its own id after 5 took label 3.
            assert state.values[5] == state.values[3] == 3
            assert state.timestamp(3) > state.timestamp(5)
            delta = Batch([EdgeDeletion(3, 5)])
            assert 5 in self.seeds(CCSpec(), g, state, delta)
            IncCC(engine=engine).apply(g, state, delta)
            assert state.values == CCfp(engine="generic").run(g.copy()).values
            assert state.values[5] == 5

    def test_sssp_non_tight_deletion_head_is_not_seeded(self):
        from repro.algorithms.sssp import Dijkstra, IncSSSP

        base = from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3)], directed=True, weights=[1.0, 1.0, 5.0, 1.0]
        )
        delta = Batch([EdgeDeletion(0, 2)])  # 0 + 5 > 2 = d(2): not an anchor
        for engine in self.ENGINES:
            g, state = base.copy(), Dijkstra(engine="generic").run(base.copy(), 0)
            assert self.seeds(SSSPSpec(), g, state, delta, 0) == set()
            result = IncSSSP(engine=engine).apply(g, state, delta, 0)
            assert state.values == Dijkstra(engine="generic").run(g.copy(), 0).values
            assert result.changes == {}

    def test_sim_insertion_resurrects_false_label_matched_pair(self):
        from repro.algorithms.sim import IncSim, SimSpec, Simfp
        from repro.graph import Graph

        g, pattern = Graph(directed=True), Graph(directed=True)
        for node, label in (("a", "A"), ("b", "B"), ("c", "C"), ("d", "A")):
            g.add_node(node, label=label)
        pattern.add_node("x", label="A")
        pattern.add_node("y", label="B")
        pattern.add_edge("x", "y")
        state = Simfp().run(g.copy(), pattern)
        assert state.values[("a", "x")] is False
        delta = Batch([EdgeInsertion("a", "b"), EdgeInsertion("d", "c")])
        # (d, c) has no pattern edge into C, and (b, y) is no A-pair.
        assert self.seeds(SimSpec(), g, state, delta, pattern) == {("a", "x")}
        result = IncSim().apply(g, state, delta, pattern)
        assert state.values == Simfp().run(g.copy(), pattern).values
        assert result.changes[("a", "x")] == (False, True)

    def test_sim_vertex_reinserted_with_new_label_is_resurrected(self):
        from repro.algorithms.sim import IncSim, Simfp
        from repro.graph import Graph, VertexDeletion, VertexInsertion

        g, pattern = Graph(directed=True), Graph(directed=True)
        for node, label in ((0, "A"), (1, "B"), (2, "C")):
            g.add_node(node, label=label)
        g.add_edge(0, 1)
        g.add_edge(2, 1)
        for node, label in (("x", "A"), ("y", "B"), ("z", "C")):
            pattern.add_node(node, label=label)
        pattern.add_edge("x", "y")
        state = Simfp().run(g.copy(), pattern)
        # Node 0 keeps its live pairs through the churn but now reads C.
        delta = Batch([VertexDeletion(0), VertexInsertion(0, label="C")])
        result = IncSim().apply(g, state, delta, pattern)
        assert state.values == Simfp().run(g.copy(), pattern).values
        assert result.changes[(0, "x")] == (True, False)
        assert result.changes[(0, "z")] == (False, True)


class TestFlappedTightEdge:
    """A ΔG that deletes a tight edge and re-inserts it at its old weight
    lost no anchor: no repair seed, no write, an empty ΔO.  A re-insert at
    another weight still seeds the head."""

    @staticmethod
    def case(name):
        from repro.algorithms.cc import CCSpec
        from repro.algorithms.reach import ReachSpec
        from repro.algorithms.sswp import SSWPSpec

        path = [(0, 1), (1, 2), (0, 2), (2, 3)]
        if name == "SSSP":  # (1, 2) is tight: 1 + 1 == d(2) == 2
            return SSSPSpec(), from_edges(path, directed=True, weights=[1.0, 1.0, 5.0, 1.0]), 0
        if name == "SSWP":  # (1, 2) is tight: min(5, 4) == w(2) == 4
            return SSWPSpec(), from_edges(path, directed=True, weights=[5.0, 4.0, 1.0, 3.0]), 0
        if name == "CC":  # 1 fed label 0 to 2
            return CCSpec(), from_edges([(0, 1), (1, 2), (2, 3)]), None
        return ReachSpec(), from_edges([(0, 1), (1, 2), (2, 3)], directed=True), 0

    @pytest.mark.parametrize("engine", ["generic", "kernel"])
    @pytest.mark.parametrize("name", ["SSSP", "SSWP", "CC", "Reach"])
    def test_flap_at_old_weight_seeds_nothing(self, name, engine):
        spec, base, query = self.case(name)
        old = base.weight(1, 2)
        for weight, seeded in ((old, set()), (old + 1.0 if name != "SSWP" else 2.0, {2})):
            delta = Batch([EdgeDeletion(1, 2), EdgeInsertion(1, 2, weight=weight)])
            g = base.copy()
            state = run_batch(spec, g, query, engine="generic")
            assert TestAnchorTestedSeeds.seeds(spec, g, state, delta, query) == seeded
            clock = state.clock
            result = IncrementalAlgorithm(spec, engine=engine).apply(g, state, delta, query)
            assert (result.kernel_stats is not None) == (engine == "kernel")
            assert state.values == run_batch(spec, g.copy(), query, engine="generic").values
            if not seeded:
                assert result.changes == {}
                assert state.clock == clock
