"""Tests for LCC: LCC_fp and the deducible IncLCC."""

import os
import random

import pytest

from oracles import (
    oracle_lcc,
    oracle_triangles,
    random_edge_batch,
    random_graph,
    random_mixed_batch,
)
from repro import IncLCC, LCCfp, lcc
from repro.algorithms.lcc import LCCSpec, _triangles_at
from repro.core.incremental import IncrementalAlgorithm
from repro.core.spec import FixpointSpec
from repro.graph import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    VertexDeletion,
    VertexInsertion,
    from_edges,
    updated_copy,
)

#: Trials of the differential sweeps (undirected and directed); CI runs 600.
SWEEP_TRIALS = int(os.environ.get("REPRO_LCC_SWEEP_TRIALS", "60"))


class TestBatch:
    def test_triangle_is_a_clique(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)])
        assert lcc(g) == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_star_has_zero_coefficients(self):
        g = from_edges([(0, 1), (0, 2), (0, 3)])
        assert lcc(g) == {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}

    def test_four_clique(self):
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        g = from_edges(edges)
        assert all(v == 1.0 for v in lcc(g).values())

    def test_triangle_with_tail(self):
        g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        result = lcc(g)
        assert result[0] == result[1] == 1.0
        assert result[2] == pytest.approx(1 / 3)
        assert result[3] == 0.0

    def test_degree_below_two_is_zero(self):
        g = from_edges([(0, 1)])
        g.add_node(9)
        result = lcc(g)
        assert result[0] == result[1] == result[9] == 0.0

    def test_self_loops_ignored(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)])
        g.add_edge(0, 0)
        assert lcc(g)[0] == 1.0

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 20), rng.randint(0, 50), directed=False)
            assert lcc(g) == oracle_lcc(g)


class TestIncremental:
    def setup_pair(self, graph):
        batch = LCCfp()
        state = batch.run(graph)
        return batch, IncLCC(), state

    def answer(self, batch, state, graph):
        return batch.answer(state, graph, None)

    def test_insertion_creates_triangle(self):
        g = from_edges([(0, 1), (1, 2)])
        batch, inc, state = self.setup_pair(g)
        inc.apply(g, state, Batch([EdgeInsertion(0, 2)]))
        assert self.answer(batch, state, g) == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_deletion_destroys_triangle(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)])
        batch, inc, state = self.setup_pair(g)
        inc.apply(g, state, Batch([EdgeDeletion(0, 2)]))
        assert self.answer(batch, state, g) == {0: 0.0, 1: 0.0, 2: 0.0}

    def test_scope_is_tight_for_local_update(self):
        # A long path plus one triangle at the start: updating the far end
        # must not touch the triangle's variables.
        edges = [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(2, 30)]
        g = from_edges(edges)
        batch, inc, state = self.setup_pair(g)
        result = inc.apply(g, state, Batch([EdgeDeletion(28, 29)]), measure=True)
        assert ("λ", 0) not in result.scope
        assert ("d", 29) in result.scope
        assert len(result.scope) <= 6

    def test_third_vertex_lambda_updates(self):
        g = from_edges([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
        batch, inc, state = self.setup_pair(g)
        # Inserting (0, 3) creates triangles {0,1,3} and {0,2,3}; node 1
        # then sits on {0,1,2}, {0,1,3}, {1,2,3}.
        inc.apply(g, state, Batch([EdgeInsertion(0, 3)]))
        assert self.answer(batch, state, g) == oracle_lcc(g)
        assert state.values[("λ", 1)] == 3

    def test_vertex_updates(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)])
        batch, inc, state = self.setup_pair(g)
        vi = VertexInsertion(9, edges=(EdgeInsertion(0, 9), EdgeInsertion(1, 9)))
        inc.apply(g, state, Batch([vi]))
        assert self.answer(batch, state, g) == oracle_lcc(g)
        inc.apply(g, state, Batch([VertexDeletion(0)]))
        assert self.answer(batch, state, g) == oracle_lcc(g)
        assert ("d", 0) not in state.values

    def test_mixed_batches_match_oracle(self):
        # Undirected graphs with self-loops, vertex churn and a self-loop
        # toggled per batch: IncLCC's derivative against the recount and
        # the oracle, values and per-apply ΔO.
        rng = random.Random(43)
        for trial in range(SWEEP_TRIALS):
            g = random_graph(rng, rng.randint(3, 18), rng.randint(2, 40), directed=False)
            _with_loops_and_reciprocals(rng, g)
            batch, inc, state = self.setup_pair(g.copy())
            work = g.copy()
            recount_graph, recount_state = g.copy(), state.copy()
            recount = IncrementalAlgorithm(_RecountLCC())
            for _step in range(4):
                delta = random_mixed_batch(rng, work, rng.randint(1, 5))
                after = updated_copy(work, delta)
                if after.num_nodes:
                    v = rng.choice(sorted(after.nodes()))
                    delta.append(EdgeDeletion(v, v) if after.has_edge(v, v) else EdgeInsertion(v, v))
                got = inc.apply(work, state, delta)
                want = recount.apply(recount_graph, recount_state, delta)
                assert self.answer(batch, state, work) == oracle_lcc(work), f"trial {trial}"
                assert state.values == recount_state.values, f"trial {trial}"
                assert got.changes == want.changes, f"trial {trial}"


def _with_loops_and_reciprocals(rng, graph):
    """Add a few self-loops and, if directed, reverse copies of edges."""
    nodes = list(graph.nodes())
    for v in rng.sample(nodes, min(len(nodes), rng.randint(0, 3))):
        graph.add_edge(v, v)
    if graph.directed:
        for u, v in sorted(graph.edges()):
            if u != v and rng.random() < 0.3 and not graph.has_edge(v, u):
                graph.add_edge(v, u)
    return graph


class TestTriangleCount:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_textbook_double_loop(self, directed):
        rng = random.Random(97 + directed)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 16), rng.randint(0, 60), directed=directed)
            _with_loops_and_reciprocals(rng, g)
            for v in g.nodes():
                assert _triangles_at(g, v) == oracle_triangles(g, v), (sorted(g.edges()), v)


class _RecountLCC(LCCSpec):
    """LCC without its derivative: the incremental apply recounts every PE variable."""

    derivative = FixpointSpec.derivative


def derive_and_recount(graph, *batches):
    """Apply ``batches`` with IncLCC and with the recount path; values,
    per-apply ΔO and the oracle must agree after each.  Returns the
    derived run's graph, state and per-apply results."""
    derived_graph, recount_graph = graph.copy(), graph.copy()
    derived, recount = IncLCC(), IncrementalAlgorithm(_RecountLCC())
    derived_state = LCCfp().run(derived_graph)
    recount_state = LCCfp().run(recount_graph)
    results = []
    for delta in batches:
        got = derived.apply(derived_graph, derived_state, delta)
        want = recount.apply(recount_graph, recount_state, delta)
        assert derived_state.values == recount_state.values
        assert got.changes == want.changes
        assert LCCfp().answer(derived_state, derived_graph, None) == oracle_lcc(derived_graph)
        results.append(got)
    return derived_graph, derived_state, results


class TestDerivative:
    """IncLCC's per-op increments against the recount and the oracle."""

    def test_triangles_closed_by_two_and_three_new_edges(self):
        g = from_edges([(0, 1)])
        for v in (2, 3, 4, 5):
            g.add_node(v)
        delta = Batch([
            EdgeInsertion(1, 2), EdgeInsertion(3, 4), EdgeInsertion(0, 2),
            EdgeInsertion(4, 5), EdgeInsertion(3, 5),
        ])
        _g, state, _ = derive_and_recount(g, delta)
        assert all(state.values[("λ", v)] == 1 for v in range(6))

    def test_unnormalized_churn_on_one_edge(self):
        g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        insert_then_delete = Batch([EdgeInsertion(0, 3), EdgeInsertion(1, 3), EdgeDeletion(0, 3)])
        delete_then_insert = Batch([EdgeDeletion(0, 1), EdgeInsertion(0, 1)])
        _g, state, (first, second) = derive_and_recount(g, insert_then_delete, delete_then_insert)
        assert state.values[("λ", 3)] == 1
        assert ("d", 0) not in first.changes and ("λ", 0) not in first.changes
        assert second.changes == {}

    def test_reciprocated_arcs_change_no_adjacency(self):
        g = from_edges([(0, 1), (1, 0), (0, 2), (1, 2)], directed=True)
        _g, state, results = derive_and_recount(
            g,
            Batch([EdgeDeletion(1, 0)]),    # one arc of a pair: still adjacent
            Batch([EdgeInsertion(2, 0)]),   # reciprocates 0 -> 2
            Batch([EdgeDeletion(0, 1)]),    # the last arc: the triangle goes
        )
        assert results[0].changes == {} and results[1].changes == {}
        assert state.values[("λ", 2)] == 0

    @pytest.mark.parametrize("directed", [False, True])
    def test_self_loops_change_nothing(self, directed):
        g = from_edges([(0, 1), (1, 2), (0, 2)], directed=directed)
        _g, _state, results = derive_and_recount(
            g,
            Batch([EdgeInsertion(0, 0), EdgeInsertion(1, 1)]),
            Batch([EdgeDeletion(0, 0)]),
        )
        assert all(result.changes == {} for result in results)

    def test_vertex_insertion_and_deletion(self):
        g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)])
        vi = VertexInsertion(9, edges=(EdgeInsertion(0, 9), EdgeInsertion(1, 9)))
        _g, state, (inserted, deleted) = derive_and_recount(
            g, Batch([vi]), Batch([VertexDeletion(0)])
        )
        assert ("λ", 9) in inserted.scope and ("λ", 9) in inserted.changes
        assert deleted.changes[("λ", 0)] == (3, None)
        assert ("d", 0) not in state.values


class TestDirected:
    """LCC on a directed graph is LCC on its underlying simple graph."""

    def test_reciprocated_pair_counts_once(self):
        g = from_edges([(0, 1), (1, 0), (0, 2), (1, 2)], directed=True)
        assert lcc(g) == oracle_lcc(g) == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_batch_and_incremental_match_oracle(self):
        rng = random.Random(53)
        for trial in range(SWEEP_TRIALS):
            g = random_graph(rng, rng.randint(3, 16), rng.randint(2, 45), directed=True)
            _with_loops_and_reciprocals(rng, g)
            batch = LCCfp()
            state = batch.run(g)
            assert batch.answer(state, g, None) == oracle_lcc(g), f"trial {trial}"
            inc = IncLCC()
            recount_graph, recount_state = g.copy(), state.copy()
            recount = IncrementalAlgorithm(_RecountLCC())
            for _step in range(3):
                delta = random_edge_batch(rng, g, 4)
                # Delete one direction of a reciprocated pair, when there is one.
                pairs = sorted((u, v) for u, v in g.edges() if u != v and g.has_edge(v, u))
                if pairs:
                    u, v = rng.choice(pairs)
                    delta = Batch([op for op in delta if {op.u, op.v} != {u, v}])
                    delta.append(EdgeDeletion(u, v))
                got = inc.apply(g, state, delta)
                want = recount.apply(recount_graph, recount_state, delta)
                assert batch.answer(state, g, None) == oracle_lcc(g), f"trial {trial}"
                assert state.values == recount_state.values, f"trial {trial}"
                assert got.changes == want.changes, f"trial {trial}"
