"""Unit tests for the dense CSR kernel engine (`repro.kernels`)."""

import math

import pytest

from repro.algorithms.cc import CCSpec, IncCC
from repro.algorithms.reach import ReachSpec
from repro.algorithms.sssp import IncSSSP, SSSPSpec
from repro.algorithms.sswp import SSWPSpec
from repro.core import run_batch
from repro.errors import EdgeNotFoundError, FixpointError, IncrementalizationError
from repro.graph import Batch, EdgeDeletion, EdgeInsertion, CSRGraph, from_edges
from repro.graph.csr import CSROverlay
from repro.kernels.engine import build_node_decode, unsupported_reason
from repro.kernels.spec import (
    ADD,
    BOOL,
    COPY,
    FLOAT,
    MAXNEG,
    NODE,
    TIMESTAMP,
    VALUE,
    KernelSpec,
    candidate,
    decode_value,
    encode_value,
)

INF = math.inf


class TestKernelSpecValidation:
    def test_unknown_combine_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(combine="mul", domain=FLOAT, prioritized=True, anchor=VALUE)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(combine=ADD, domain="str", prioritized=True, anchor=VALUE)

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(combine=ADD, domain=FLOAT, prioritized=True, anchor="rank")

    def test_arithmetic_combines_require_float_domain(self):
        with pytest.raises(ValueError):
            KernelSpec(combine=ADD, domain=NODE, prioritized=True, anchor=VALUE)
        with pytest.raises(ValueError):
            KernelSpec(combine=MAXNEG, domain=BOOL, prioritized=True, anchor=VALUE)


class TestEncoding:
    sssp = KernelSpec(combine=ADD, domain=FLOAT, prioritized=True, anchor=VALUE)
    sswp = KernelSpec(combine=MAXNEG, domain=FLOAT, prioritized=True, anchor=VALUE)
    cc = KernelSpec(combine=COPY, domain=NODE, prioritized=False, anchor=TIMESTAMP)
    reach = KernelSpec(combine=COPY, domain=BOOL, prioritized=False, anchor=TIMESTAMP)

    def test_float_identity_roundtrip(self):
        assert encode_value(self.sssp, 3.5) == 3.5
        assert decode_value(self.sssp, 3.5) == 3.5
        assert encode_value(self.sssp, INF) == INF

    def test_maxneg_negates_and_normalizes_negative_zero(self):
        assert encode_value(self.sswp, 4.0) == -4.0
        decoded = decode_value(self.sswp, -0.0)
        assert decoded == 0.0 and math.copysign(1.0, decoded) == 1.0

    def test_bool_roundtrip(self):
        assert encode_value(self.reach, True) == -1.0
        assert encode_value(self.reach, False) == 0.0
        assert decode_value(self.reach, -1.0) is True
        assert decode_value(self.reach, 0.0) is False

    def test_node_roundtrip_via_decode_map(self):
        decode = build_node_decode(self.cc, [0, 1, 7])
        assert decode_value(self.cc, encode_value(self.cc, 7), decode) == 7

    def test_node_decode_rejects_collisions(self):
        # 2**53 and 2**53 + 1 share a float64 image.
        assert build_node_decode(self.cc, [2**53, 2**53 + 1]) is None

    def test_node_decode_rejects_non_numeric_ids(self):
        assert build_node_decode(self.cc, ["a", "b"]) is None

    def test_candidate_matches_combine_definitions(self):
        assert candidate(ADD, 2.0, 3.0) == 5.0
        assert candidate(MAXNEG, -2.0, 5.0) == -2.0  # max(-2, -5)
        assert candidate(MAXNEG, -2.0, 1.0) == -1.0  # max(-2, -1)
        assert candidate(COPY, 2.0, 99.0) == 2.0

    def test_encoding_is_monotone(self):
        # Wider path ⇒ smaller encoded value; reachable ⇒ smaller encoded.
        assert encode_value(self.sswp, 9.0) < encode_value(self.sswp, 1.0)
        assert encode_value(self.reach, True) < encode_value(self.reach, False)


class TestCSROverlay:
    def base(self):
        g = from_edges([(0, 1), (1, 2)], directed=True, weights=[1.0, 2.0])
        return CSRGraph.from_graph(g)

    def test_clean_nodes_read_base_arrays(self):
        ov = CSROverlay(self.base())
        assert ov.indptr is ov.base.indptr  # aliased, not copied
        assert ov.out_edges(0) == [(1, 1.0)]
        assert ov.in_edges(2) == [(1, 2.0)]

    def test_insert_edge_merges_into_rows(self):
        ov = CSROverlay(self.base())
        ov.insert_edge(0, 2, 5.0)
        assert sorted(ov.out_edges(0)) == [(1, 1.0), (2, 5.0)]
        assert sorted(ov.in_edges(2)) == [(0, 5.0), (1, 2.0)]
        assert 0 in ov.dirty_out and 2 in ov.dirty_in

    def test_delete_base_edge_tombstones(self):
        ov = CSROverlay(self.base())
        ov.delete_edge(0, 1)
        assert ov.out_edges(0) == []
        assert ov.in_edges(1) == []
        assert ov.delta_nnz == 1  # one tombstone

    def test_delete_then_reinsert_uses_new_weight(self):
        ov = CSROverlay(self.base())
        ov.delete_edge(0, 1)
        ov.insert_edge(0, 1, 9.0)
        assert ov.out_edges(0) == [(1, 9.0)]  # stale base weight cannot leak
        assert ov.in_edges(1) == [(0, 9.0)]

    def test_delete_missing_edge_raises(self):
        ov = CSROverlay(self.base())
        with pytest.raises(EdgeNotFoundError):
            ov.delete_edge(2, 0)

    def test_appended_node_lives_in_extras(self):
        ov = CSROverlay(self.base())
        i = ov.add_node()
        assert i == 3
        assert ov.out_edges(i) == []
        ov.insert_edge(2, i, 4.0)
        assert ov.out_edges(2) == [(i, 4.0)]
        assert ov.in_edges(i) == [(2, 4.0)]

    def test_undirected_base_mirrors_mutations(self):
        g = from_edges([(0, 1)], weights=[1.0])
        ov = CSROverlay(CSRGraph.from_graph(g))
        ov.insert_edge(0, 2, 3.0)  # node 2 exists in the base graph? no — append
        assert (2, 3.0) in ov.out_edges(0)
        assert (0, 3.0) in ov.out_edges(2)
        ov.delete_edge(0, 1)
        assert ov.out_edges(0) == [(2, 3.0)]
        assert ov.out_edges(1) == []

    def test_row_cache_invalidated_by_mutation(self):
        ov = CSROverlay(self.base())
        assert ov.out_edges(0) == [(1, 1.0)]
        ov.insert_edge(0, 2, 5.0)
        assert sorted(ov.out_edges(0)) == [(1, 1.0), (2, 5.0)]

    def test_delta_ops_counts_mutations(self):
        ov = CSROverlay(self.base())
        before = ov.delta_ops
        ov.insert_edge(0, 2, 1.0)
        ov.delete_edge(0, 1)
        assert ov.delta_ops > before


def small_graphs():
    directed = from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)],
        directed=True,
        weights=[1.0, 2.0, 5.0, 1.0, 7.0],
    )
    undirected = from_edges([(0, 1), (1, 2), (3, 4)], weights=[1.0, 1.0, 1.0])
    return directed, undirected


class TestForcedKernelBatch:
    def test_kernel_matches_generic_all_specs(self):
        directed, undirected = small_graphs()
        cases = [
            (SSSPSpec(), directed, 0),
            (SSWPSpec(), directed, 0),
            (ReachSpec(), directed, 0),
            (CCSpec(), undirected, None),
        ]
        for spec, g, query in cases:
            got = run_batch(spec, g, query, engine="kernel")
            want = run_batch(spec, g, query, engine="generic")
            assert got.values == want.values, spec.name

    def test_forced_kernel_raises_on_directed_cc(self):
        directed, _ = small_graphs()
        with pytest.raises(FixpointError, match="undirected"):
            run_batch(CCSpec(), directed, None, engine="kernel")

    def test_forced_kernel_raises_on_missing_source(self):
        directed, _ = small_graphs()
        with pytest.raises(FixpointError, match="source"):
            run_batch(SSSPSpec(), directed, 99, engine="kernel")

    def test_forced_kernel_raises_on_unencodable_node_ids(self):
        g = from_edges([("a", "b")], weights=[1.0])
        with pytest.raises(FixpointError, match="float encoding"):
            run_batch(CCSpec(), g, None, engine="kernel")

    def test_forced_kernel_raises_without_declared_kernel(self):
        class NoKernel(SSSPSpec):
            def kernel(self):
                return None

        directed, _ = small_graphs()
        with pytest.raises(FixpointError, match="declares no kernel"):
            run_batch(NoKernel(), directed, 0, engine="kernel")

    def test_forced_kernel_rejects_instrumented_runs(self):
        from repro.metrics import AccessCounter

        directed, _ = small_graphs()
        with pytest.raises(FixpointError, match="instrumented"):
            run_batch(SSSPSpec(), directed, 0, counter=AccessCounter(), engine="kernel")

    def test_counter_forces_generic_under_auto(self):
        from repro.metrics import AccessCounter

        directed, _ = small_graphs()
        counter = AccessCounter()
        state = run_batch(SSSPSpec(), directed, 0, counter=counter, engine="auto")
        assert counter.evals > 0  # kernels emit no per-access events
        assert state.values == run_batch(SSSPSpec(), directed, 0).values

    def test_unsupported_reason_is_none_for_supported_runs(self):
        directed, _ = small_graphs()
        assert unsupported_reason(SSSPSpec(), directed, 0) is None


class TestKernelIncremental:
    def test_forced_kernel_apply_matches_generic(self):
        directed, _ = small_graphs()
        ops = [
            EdgeInsertion(3, 0, weight=1.0),
            EdgeDeletion(0, 1),
            EdgeInsertion(0, 1, weight=0.5),
            EdgeDeletion(1, 3),
        ]
        for engine in ("generic", "kernel"):
            g = directed.copy()
            state = run_batch(SSSPSpec(), g, 0, engine="generic")
            algo = IncSSSP(engine=engine)
            changes = [algo.apply(g, state, Batch([op]), 0).changes for op in ops]
            if engine == "generic":
                want_values, want_changes = dict(state.values), changes
            else:
                assert dict(state.values) == want_values
                assert changes == want_changes  # identical ΔO per step

    def test_forced_kernel_incremental_rejects_measure(self):
        directed, _ = small_graphs()
        g = directed.copy()
        state = run_batch(SSSPSpec(), g, 0, engine="generic")
        algo = IncSSSP(engine="kernel")
        with pytest.raises(IncrementalizationError):
            algo.apply(g, state, Batch([EdgeDeletion(0, 2)]), 0, measure=True)

    def test_forced_kernel_incremental_rejects_step_budget(self):
        directed, _ = small_graphs()
        g = directed.copy()
        state = run_batch(SSSPSpec(), g, 0, engine="generic")
        algo = IncSSSP(engine="kernel")
        with pytest.raises(IncrementalizationError, match="max_evals") as budget:
            algo.apply(g, state, Batch([EdgeDeletion(0, 2)]), 0, max_evals=100)
        assert "measure/trace" not in str(budget.value)
        with pytest.raises(IncrementalizationError, match="measure/trace") as counted:
            algo.apply(g, state, Batch([EdgeDeletion(0, 2)]), 0, trace=True, max_evals=100)
        assert "max_evals" not in str(counted.value)
        assert g.has_edge(0, 2)  # both rejections left the graph untouched

    def test_unknown_engine_rejected(self):
        with pytest.raises(FixpointError, match="unknown engine 'kernal'"):
            IncSSSP(engine="kernal")
        directed, _ = small_graphs()
        g = directed.copy()
        state = run_batch(SSSPSpec(), g, 0, engine="generic")
        with pytest.raises(FixpointError, match="unknown engine 'kernal'"):
            IncSSSP().apply(g, state, Batch([EdgeDeletion(0, 2)]), 0, engine="kernal")
        assert g.has_edge(0, 2)

    def test_forced_kernel_incremental_raises_when_unsupported(self):
        directed, _ = small_graphs()
        g = directed.copy()
        state = run_batch(CCSpec(), from_edges([(0, 1)]), None, engine="generic")
        algo = IncCC(engine="kernel")
        gg = from_edges([(0, 1)])
        state = run_batch(CCSpec(), gg, None, engine="generic")
        gg.directed = True  # now unsupported: CC kernel needs undirected
        with pytest.raises((FixpointError, IncrementalizationError)):
            algo.apply(gg, state, Batch([EdgeInsertion(1, 2, weight=1.0)]), None)

    def test_overlay_outgrowth_triggers_rebuild(self):
        # A single apply whose batch exceeds the rebuild threshold must
        # signal a context rebuild (ctx dropped) and still be correct.
        edges = [(i, i + 1) for i in range(200)]
        g = from_edges(edges, directed=True, weights=[1.0] * len(edges))
        state = run_batch(SSSPSpec(), g, 0, engine="generic")
        algo = IncSSSP(engine="kernel")
        algo.apply(g, state, Batch([EdgeInsertion(0, 5, weight=0.5)]), 0)
        assert algo._kernel_ctx is not None  # warm mirror after a small apply

        big = Batch(
            [EdgeInsertion(i, i + 2, weight=0.25) for i in range(0, 130)]
        )
        algo.apply(g, state, big, 0)
        assert algo._kernel_ctx is None  # overlay outgrew the snapshot

        algo.apply(g, state, Batch([EdgeDeletion(0, 5)]), 0)
        assert algo._kernel_ctx is not None  # rebuilt on the next apply

        g2 = from_edges(edges, directed=True, weights=[1.0] * len(edges))
        want = run_batch(SSSPSpec(), g2, 0, engine="generic")
        for op in [EdgeInsertion(0, 5, weight=0.5), *big.updates, EdgeDeletion(0, 5)]:
            IncSSSP(engine="generic").apply(g2, want, Batch([op]), 0)
        assert dict(state.values) == dict(want.values)


class TestPerApplyStats:
    """``kernel_stats`` counters are born fresh for every apply — a big
    window must never inflate the next small apply's numbers (the serve
    layer's per-window stats aggregation depends on this)."""

    def test_counters_reset_between_applies(self):
        edges = [(i, i + 1) for i in range(100)]
        g = from_edges(edges, directed=True, weights=[1.0] * len(edges))
        state = run_batch(SSSPSpec(), g, 0, engine="generic")
        algo = IncSSSP(engine="kernel")

        # A heavy apply: shortening the chain head cascades to the tail.
        big = algo.apply(g, state, Batch([EdgeInsertion(0, 50, weight=0.5)]), 0)
        assert big.kernel_stats is not None
        assert big.kernel_stats["touched"] > 10

        # A tiny apply right after: its counters must reflect only
        # itself, not accumulate the heavy apply's totals.
        small = algo.apply(
            g, state, Batch([EdgeInsertion(0, 2, weight=5.0)]), 0
        )
        assert small.kernel_stats is not None
        assert small.kernel_stats["touched"] <= 3
        assert small.kernel_stats["writes"] <= small.kernel_stats["touched"]
        assert small.affected_size == small.kernel_stats["touched"]

    def test_stream_totals_sum_per_apply_stats(self):
        from repro.kernels.scheduler import StreamResult

        edges = [(i, i + 1) for i in range(50)]
        g = from_edges(edges, directed=True, weights=[1.0] * len(edges))
        state = run_batch(SSSPSpec(), g, 0, engine="generic")
        algo = IncSSSP()
        stream = [
            Batch([EdgeInsertion(0, 10, weight=0.5)]),
            Batch([EdgeDeletion(0, 10)]),
            Batch([EdgeInsertion(0, 25, weight=0.25)]),
        ]
        result = algo.apply_stream(g, state, stream, 0)
        assert isinstance(result, StreamResult)
        totals = result.kernel_totals()
        assert totals["applies"] == result.applies
        assert totals["applies"] == totals["kernel_applies"] + totals["generic_applies"]
        # The sum equals the per-apply numbers, not a running global.
        per_apply = sum(entry.get("realized", 0) for entry in result.stats)
        assert totals["touched"] == per_apply
        assert totals["touched"] > 0


class TestFlapStream:
    """The ``kernels`` suite's flap stream: unit deletions/re-insertions of
    the heaviest shortest-path-tree edges, whose repair cascades reach a
    few hundred nodes on a 500-node graph (seed 6: the largest of seeds
    1-11)."""

    def test_kernel_matches_generic_per_op(self):
        from repro.evalhub.kernels import flap_stream, sssp_graph

        graph = sssp_graph(10_000, seed=6)
        assert graph.num_nodes == 500
        stream = flap_stream(graph, 0, 40)
        runs = {}
        for engine in ("generic", "kernel"):
            work = graph.copy()
            state = run_batch(SSSPSpec(), work, 0, engine="generic")
            algo = IncSSSP(engine=engine)
            results = [algo.apply(work, state, Batch([op]), 0) for op in stream]
            runs[engine] = (dict(state.values), [dict(r.changes) for r in results], results)
        assert runs["kernel"][0] == runs["generic"][0]
        assert runs["kernel"][1] == runs["generic"][1]
        touched = [r.kernel_stats["touched"] for r in runs["kernel"][2]]
        assert max(touched) > 96
