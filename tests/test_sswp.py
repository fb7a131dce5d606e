"""Tests for single-source widest paths (SSWP) — extension of Φ."""

import math
import random

import pytest

from oracles import random_edge_batch, random_graph
from repro import IncSSWP, WidestPath, sswp
from repro.graph import Batch, EdgeDeletion, EdgeInsertion, from_edges

INF = math.inf


def oracle_sswp(graph, source):
    import heapq

    width = {v: 0.0 for v in graph.nodes()}
    if graph.has_node(source):
        width[source] = INF
    heap = [(-INF, source)]
    done = set()
    while heap:
        negw, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u, capacity in graph.out_items(v):
            candidate = min(-negw, capacity)
            if candidate > width[u]:
                width[u] = candidate
                heapq.heappush(heap, (-candidate, u))
    return width


class TestBatch:
    def test_bottleneck_on_path(self):
        g = from_edges([(0, 1), (1, 2)], directed=True, weights=[5.0, 2.0])
        assert sswp(g, 0) == {0: INF, 1: 5.0, 2: 2.0}

    def test_picks_wider_route(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)], directed=True, weights=[5.0, 4.0, 3.0])
        assert sswp(g, 0)[2] == 4.0

    def test_unreachable_is_zero(self):
        g = from_edges([(0, 1)], directed=True, weights=[1.0])
        g.add_node(9)
        assert sswp(g, 0)[9] == 0.0

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(83)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 25), rng.randint(0, 55), rng.random() < 0.5, weighted=True)
            assert sswp(g, 0) == oracle_sswp(g, 0)


class TestIncremental:
    def test_insertion_widens(self):
        g = from_edges([(0, 1), (1, 2)], directed=True, weights=[5.0, 2.0])
        batch, inc = WidestPath(), IncSSWP()
        state = batch.run(g, 0)
        result = inc.apply(g, state, Batch([EdgeInsertion(0, 2, weight=4.0)]), 0)
        assert state.values[2] == 4.0
        assert result.changes == {2: (2.0, 4.0)}

    def test_deletion_narrows(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)], directed=True, weights=[5.0, 4.0, 3.0])
        batch, inc = WidestPath(), IncSSWP()
        state = batch.run(g, 0)
        inc.apply(g, state, Batch([EdgeDeletion(1, 2)]), 0)
        assert state.values[2] == 3.0

    def test_deletion_disconnects(self):
        g = from_edges([(0, 1), (1, 2)], directed=True, weights=[5.0, 2.0])
        batch, inc = WidestPath(), IncSSWP()
        state = batch.run(g, 0)
        inc.apply(g, state, Batch([EdgeDeletion(0, 1)]), 0)
        assert state.values == {0: INF, 1: 0.0, 2: 0.0}

    def test_scope_semi_bounded_by_aff_and_ties(self):
        # Width ties and min-saturation make SSWP anchors ambiguous, so
        # H⁰ may exceed AFF — but only along anchor-cascade chains rooted
        # in AFF (semi-boundedness; see the module docstring): every
        # spurious scope entry has an in-neighbor that is also in scope.
        from repro.algorithms.sswp import SSWPSpec
        from repro.core import compute_aff, run_batch
        from repro.core.incremental import IncrementalAlgorithm

        rng = random.Random(89)
        for trial in range(12):
            g = random_graph(rng, rng.randint(4, 15), rng.randint(3, 30), True, weighted=True)
            delta = random_edge_batch(rng, g, 2, weighted=True)
            spec = SSWPSpec()
            aff = compute_aff(spec, g, delta, 0)
            state = run_batch(spec, g, 0)
            old_values = dict(state.values)
            work = g.copy()
            result = IncrementalAlgorithm(spec).apply(work, state, delta, 0)
            for key in result.scope:
                if key in aff:
                    continue
                pushers = set(g.in_neighbors(key))
                if not g.directed:
                    pushers |= set(g.neighbors(key))
                assert pushers & result.scope, (
                    f"trial {trial}: {key} outside AFF with no scope in-neighbor"
                )

    def test_mixed_batches_match_oracle(self):
        rng = random.Random(97)
        for trial in range(30):
            directed = rng.random() < 0.5
            g = random_graph(rng, rng.randint(3, 22), rng.randint(2, 45), directed, weighted=True)
            batch, inc = WidestPath(), IncSSWP()
            state = batch.run(g.copy(), 0)
            work = g.copy()
            for _step in range(5):
                delta = random_edge_batch(rng, work, rng.randint(1, 5), weighted=True)
                inc.apply(work, state, delta, 0)
                assert dict(state.values) == oracle_sswp(work, 0), f"trial {trial}"


# (engine, drain) for the generic engine and each kernel drain tier.
ENGINE_TIERS = [("generic", None), ("kernel", "scalar"), ("kernel", "sparse"), ("kernel", "dense")]


class TestTieBrokenOrder:
    """Figure 4's <_C breaks width ties by old timestamp (docs/theory.md)."""

    @pytest.mark.parametrize("batch_engine", ["generic", "kernel"])
    @pytest.mark.parametrize("engine,drain", ENGINE_TIERS)
    def test_kept_tie_never_relies_on_a_repaired_input(self, batch_engine, engine, drain):
        # Trusting every processed input (instead of comparing its current
        # key) lets a kept node lean on a tied input repaired earlier in the
        # same pass, whose fresh timestamp is later than its own.  The
        # second deletion then closes that unfounded cycle and leaves
        # {1, 13, 16, 18, 19} at width 1.
        edges = [(0, 14, 3), (16, 18, 1), (1, 19, 2), (1, 18, 1), (1, 14, 3), (13, 19, 2), (13, 18, 3)]
        g = from_edges([(u, v) for u, v, _c in edges], directed=False, weights=[float(c) for *_e, c in edges])
        state = WidestPath(engine=batch_engine).run(g.copy(), 0)
        inc = IncSSWP(engine=engine)
        for u, v in [(13, 18), (1, 14)]:
            inc.apply(g, state, Batch([EdgeDeletion(u, v)]), 0, drain=drain)
            assert dict(state.values) == oracle_sswp(g, 0)
        assert all(state.values[v] == 0.0 for v in (1, 13, 16, 18, 19))

    @pytest.mark.parametrize("batch_engine", ["generic", "kernel"])
    @pytest.mark.parametrize("engine,drain", ENGINE_TIERS)
    def test_deleted_hub_edge_does_not_reset_the_plateau(self, batch_engine, engine, drain):
        # Two hubs at width 3 feed a 200-node plateau at width 3; hub 1 is
        # also reachable through hub 2.  Deleting 0→1 changes no width, so
        # the repair must stay O(|ΔG|): hub 1 only, never the plateau.
        plateau = range(10, 210)
        edges = [(0, 1), (0, 2), (2, 1)] + [(h, p) for p in plateau for h in (1, 2)]
        g = from_edges(edges, directed=True, weights=[3.0] * len(edges))
        state = WidestPath(engine=batch_engine).run(g.copy(), 0)
        result = IncSSWP(engine=engine).apply(g, state, Batch([EdgeDeletion(0, 1)]), 0, drain=drain)
        assert dict(state.values) == oracle_sswp(g, 0)
        assert result.changes == {}
        assert result.scope == {1}
        if engine == "kernel":
            assert result.kernel_stats["touched"] <= 2
