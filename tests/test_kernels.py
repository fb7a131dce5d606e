"""Unit tests for the dense CSR kernel engine (`repro.kernels`)."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.algorithms.cc import CCSpec, IncCC
from repro.algorithms.reach import IncReach, ReachSpec
from repro.algorithms.sssp import IncSSSP, SSSPSpec
from repro.algorithms.sswp import IncSSWP, SSWPSpec
from repro.core import run_batch
from repro.errors import FixpointError, IncrementalizationError
from repro.generators import barabasi_albert, erdos_renyi, grid_2d
from repro.graph import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    VertexDeletion,
    VertexInsertion,
    from_edges,
)
from repro.kernels import engine as kernel_engine
from repro.kernels import incremental as kernel_incremental
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
from repro.resilience.faults import InjectedFault, injected

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

    def test_float_ids_equal_to_dense_ids_are_remapped(self):
        # 0.0, 1.0, 2.0 compare equal to 0, 1, 2 but cannot index arrays.
        g = from_edges([(0.0, 1.0), (1.0, 2.0)], directed=True, weights=[1.0, 2.0])
        want = run_batch(SSSPSpec(), g, 0.0, engine="generic").values
        for engine in ("kernel", "auto"):
            assert run_batch(SSSPSpec(), g, 0.0, engine=engine).values == want

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

    def test_mid_drain_fault_drops_the_mirror(self):
        # Only a one-shot kernel apply reaches ``kernel.mid-drain``.
        directed, _ = small_graphs()
        g = directed.copy()
        state = run_batch(SSSPSpec(), g, 0, engine="generic")
        algo = IncSSSP(engine="kernel")
        algo.apply(g, state, Batch([EdgeInsertion(3, 0, weight=1.0)]), 0)
        assert algo._kernel_ctx is not None
        with pytest.raises(InjectedFault):
            with injected("kernel.mid-drain"):
                algo.apply(g, state, Batch([EdgeDeletion(0, 1)]), 0)
        assert algo._kernel_ctx is None

        # ΔG reached the graph but not the state: rebuild it by batch.
        state = run_batch(SSSPSpec(), g, 0, engine="generic")
        want_g = g.copy()
        want = run_batch(SSSPSpec(), want_g, 0, engine="generic")
        op = Batch([EdgeInsertion(0, 1, weight=0.5)])
        got = algo.apply(g, state, op, 0)
        assert got.kernel_stats is not None
        expected = IncSSSP(engine="generic").apply(want_g, want, op, 0)
        assert dict(state.values) == dict(want.values)
        assert got.changes == expected.changes

    def test_node_id_collision_falls_back_before_mutating(self):
        # The CC kernel encodes node ids as floats; 2**53 + 1 shares
        # 2**53's float image.  The pre-check scans the raw batch for the
        # nodes it creates, as a vertex insertion or as an edge endpoint,
        # so the fallback leaves graph and state untouched.
        from repro.kernels.incremental import kernel_apply

        big = 2**53
        base = from_edges([(0, 1), (1, 2)])
        base.ensure_node(big)
        for op in (VertexInsertion(big + 1), EdgeInsertion(2, big + 1)):
            g = base.copy()
            state = run_batch(CCSpec(), g, None, engine="generic")
            assert state.values[big] == big  # a live label with that float image
            before = (dict(state.values), dict(state.timestamps), state.clock)
            got = kernel_apply(CCSpec(), g, state, Batch([op]), None, None)
            assert got == (None, None)
            assert g == base and g.num_edges == base.num_edges
            assert (dict(state.values), dict(state.timestamps), state.clock) == before
            IncCC(engine="generic").apply(g, state, Batch([op]), None)
            assert dict(state.values) == run_batch(CCSpec(), g, None, engine="generic").values
            assert state.values[big + 1] == (0 if isinstance(op, EdgeInsertion) else big + 1)



def tie_weighted(graph, seed):
    """``graph`` with integer weights in 1..4, so equal values abound."""
    rng = random.Random(seed)
    for u, v in list(graph.edges()):
        graph.set_weight(u, v, float(rng.randint(1, 4)))
    return graph


def weighted_path(n, directed):
    return from_edges(
        [(i, i + 1) for i in range(n - 1)],
        directed=directed,
        weights=[1.0 + (7 * i) % 10 for i in range(n - 1)],
    )


class TestHighDiameterTail:
    """Every batch kernel run is one pass of the shared drain, seeded at
    the source (or at every node for CC), so every batch state is a
    "tail" state; these graphs give it long write chains."""

    SOURCED = ((SSSPSpec, 0), (SSWPSpec, 0), (ReachSpec, 0))
    ALL = SOURCED + ((CCSpec, None),)

    @pytest.mark.parametrize(
        "graph, cases",
        [
            (weighted_path(300, directed=True), SOURCED),
            (weighted_path(300, directed=False), ALL),
            (grid_2d(40, 40, seed=3), ALL),
        ],
        ids=["directed-path", "undirected-path", "grid"],
    )
    def test_tail_matches_generic(self, graph, cases, monkeypatch):
        from repro.kernels import engine

        calls = []
        drain = engine.drain

        def counting_drain(*args):
            calls.append(args[0])
            return drain(*args)

        monkeypatch.setattr(engine, "drain", counting_drain)
        for spec_cls, query in cases:
            spec = spec_cls()
            del calls[:]
            got = run_batch(spec, graph, query, engine="kernel")
            assert len(calls) == 1, f"{spec.name}: the tail did not run"
            assert got.values == run_batch(spec, graph, query, engine="generic").values

    @pytest.mark.parametrize(
        "spec_cls, inc_cls, query",
        [
            (SSSPSpec, IncSSSP, 0),
            (CCSpec, IncCC, None),
            (ReachSpec, IncReach, 0),
            (SSWPSpec, IncSSWP, 0),
        ],
        ids=["SSSP", "CC", "Reach", "SSWP"],
    )
    @pytest.mark.parametrize(
        "graph",
        [
            weighted_path(300, directed=False),
            grid_2d(40, 40, seed=3),
            tie_weighted(erdos_renyi(400, 2000, seed=4), seed=4),
        ],
        ids=["undirected-path", "grid", "erdos-renyi"],
    )
    def test_deletion_resumes_from_the_tail_state(self, graph, spec_cls, inc_cls, query):
        # The incremental kernel reads the tail's values and its write
        # order (CC's <_C) back; a deletion batch must land on the fixpoint.
        edges = list(graph.edges())
        delta = Batch([EdgeDeletion(u, v) for u, v in edges[len(edges) // 3 :: 97]])
        for engine in ("generic", "kernel"):
            g = graph.copy()
            state = run_batch(spec_cls(), g, query, engine="kernel")
            inc_cls(engine=engine).apply(g, state, delta, query)
            assert state.values == run_batch(spec_cls(), g, query, engine="generic").values


def unsupported_values(spec, graph, query, state):
    """Variables breaking invariant (I), weak form (docs/theory.md).

    Every variable away from its initial value needs an input ``y``
    whose candidate equals that value and that either sits at its own
    initial value or has a strictly smaller ``κ(y) = (order_key, ts)``.
    """
    values, ts = state.values, state.timestamps

    def kappa(key):
        return (spec.order_key(key, values[key], ts[key]), ts[key])

    bad = []
    for x, vx in values.items():
        if vx == spec.initial_value(x, graph, query):
            continue
        if not any(
            spec.edge_candidate(x, y, values[y], graph, query) == vx
            and (values[y] == spec.initial_value(y, graph, query) or kappa(y) < kappa(x))
            for y in spec.input_keys(x, graph, query)
        ):
            bad.append(x)
    return bad


class TestBatchSupportInvariant:
    """Batch states satisfy invariant (I), the premise of the repair
    pass's soundness, whichever engine wrote their timestamps."""

    SPECS = (SSSPSpec, 0), (SSWPSpec, 0), (ReachSpec, 0), (CCSpec, None)

    @pytest.mark.parametrize("engine", ["kernel", "generic"])
    @pytest.mark.parametrize(
        "graph",
        [
            weighted_path(300, directed=False),
            grid_2d(40, 40, seed=3),
            tie_weighted(erdos_renyi(400, 2000, seed=5), seed=5),
            tie_weighted(barabasi_albert(400, 3, seed=5), seed=5),
        ],
        ids=["path", "grid", "erdos-renyi", "pref-attach"],
    )
    def test_every_changed_value_has_an_earlier_support(self, graph, engine):
        for spec_cls, query in self.SPECS:
            spec = spec_cls()
            state = run_batch(spec, graph, query, engine=engine)
            assert unsupported_values(spec, graph, query, state) == [], spec.name

    def test_check_flags_a_support_stamped_later(self):
        # Path 0 - 1 - 2: stamping 1 after 2 leaves 2's label unsupported.
        g = from_edges([(0, 1), (1, 2)])
        spec = CCSpec()
        state = run_batch(spec, g, None, engine="kernel")
        assert unsupported_values(spec, g, None, state) == []
        state.timestamps[1] = state.timestamps[2] + 1
        assert unsupported_values(spec, g, None, state) == [2]


_STDLIB_ONLY = """
import sys
from importlib.abc import MetaPathFinder

class StdlibOnly(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "repro" and top not in sys.stdlib_module_names:
            raise ModuleNotFoundError(f"{name} is not a standard-library module", name=name)
        return None

sys.meta_path.insert(0, StdlibOnly())
from repro.algorithms.cc import CCSpec
from repro.algorithms.reach import ReachSpec
from repro.algorithms.sssp import IncSSSP, SSSPSpec
from repro.algorithms.sswp import SSWPSpec
from repro.core import run_batch
from repro.generators import assign_weights, erdos_renyi
from repro.graph import Batch, EdgeDeletion

graph = assign_weights(erdos_renyi(200, 800, seed=2), seed=2)
for spec, query in ((SSSPSpec(), 0), (SSWPSpec(), 0), (ReachSpec(), 0), (CCSpec(), None)):
    got = run_batch(spec, graph, query, engine="kernel")
    assert got.values == run_batch(spec, graph, query, engine="generic").values, spec.name
delta = Batch([EdgeDeletion(u, v) for u, v in list(graph.edges())[::9]])
states = {}
for engine in ("kernel", "generic"):
    g = graph.copy()
    state = run_batch(SSSPSpec(), g, 0, engine="generic")
    IncSSSP(engine=engine).apply(g, state, delta, 0)
    states[engine] = state.values
assert states["kernel"] == states["generic"]
print("ok")
"""


@pytest.mark.skipif(sys.version_info < (3, 10), reason="needs sys.stdlib_module_names")
def test_kernel_engines_need_only_the_standard_library():
    # The package has no runtime dependencies: both kernel engines must
    # run in an interpreter that can import nothing outside the stdlib.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_ONLY], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def run_mirrored(spec_cls, inc_cls, graph, query, batches):
    """Apply ``batches`` on the generic and the kernel engine from one
    start; assert equal values and equal ΔO per apply, and values equal
    to a batch run at the end.  On the kernel side ``dense_rows`` must
    never run and every drain must read the graph's own row dicts.
    Returns the kernel side's algorithm (holding its context) and graph."""
    runs = {}
    for engine in ("generic", "kernel"):
        g = graph.copy()
        state = run_batch(spec_cls(), g, query, engine="generic")
        algo = inc_cls(engine=engine)
        no_copy = AssertionError("dense_rows on the incremental path")
        with mock.patch.object(kernel_engine, "dense_rows", side_effect=no_copy), \
                mock.patch.object(kernel_incremental, "drain", wraps=kernel_incremental.drain) as spy:
            changes = [dict(algo.apply(g, state, batch, query).changes) for batch in batches]
        if engine == "kernel":
            assert spy.call_count == len(batches)
            assert all(call.args[1] is g._succ for call in spy.call_args_list)
        runs[engine] = (dict(state.values), changes, algo, g)
    assert runs["kernel"][0] == runs["generic"][0]
    assert runs["kernel"][1] == runs["generic"][1]
    kernel_graph = runs["kernel"][3]
    assert runs["kernel"][0] == run_batch(spec_cls(), kernel_graph.copy(), query, engine="generic").values
    return runs["kernel"][2], kernel_graph


def assert_context_mirrors(ctx, graph):
    """The context is keyed by the graph's nodes and holds the state's
    values, encoded."""
    assert ctx.graph is graph
    assert ctx.val.keys() == ctx.init.keys() == set(graph.nodes())
    decoded = {v: decode_value(ctx.kspec, x, ctx.decode_map) for v, x in ctx.val.items()}
    assert decoded == ctx.state.values


class TestDenseRows:
    """The kernel reads the graph's own row dicts through every edge and
    vertex op, so a warm context keeps matching the generic engine."""

    def weighted(self, directed):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 2)]
        return from_edges(edges, directed=directed, weights=[1.0, 2.0, 5.0, 1.0, 1.0, 3.0])

    @pytest.mark.parametrize("directed", [True, False])
    def test_reinsert_with_new_weight_in_one_batch(self, directed):
        batch = Batch(
            [
                EdgeDeletion(0, 1),
                EdgeInsertion(0, 1, weight=4.0),
                EdgeDeletion(2, 2),
                EdgeInsertion(2, 2, weight=0.5),
                EdgeDeletion(2, 3),
                EdgeInsertion(2, 3, weight=0.25),
            ]
        )
        algo, g = run_mirrored(SSSPSpec, IncSSSP, self.weighted(directed), 0, [batch])
        assert_context_mirrors(algo._kernel_ctx, g)

    @pytest.mark.parametrize("directed", [True, False])
    def test_reinsert_with_new_weight_across_applies(self, directed):
        batches = [
            Batch([EdgeDeletion(0, 1), EdgeDeletion(2, 2)]),
            Batch([EdgeInsertion(0, 1, weight=4.0), EdgeInsertion(2, 2, weight=0.5)]),
            Batch([EdgeDeletion(0, 1)]),
            Batch([EdgeInsertion(0, 1, weight=0.5)]),
        ]
        algo, g = run_mirrored(SSSPSpec, IncSSSP, self.weighted(directed), 0, batches)
        assert_context_mirrors(algo._kernel_ctx, g)

    @pytest.mark.parametrize("directed", [True, False])
    def test_ids_that_are_not_dense_are_remapped(self, directed):
        # Ids 3, 13, 23, ... are no dense ids: the context keys by them.
        g = from_edges(
            [(10 * u + 3, 10 * v + 3) for u, v in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 2)]],
            directed=directed,
            weights=[1.0, 2.0, 5.0, 1.0, 1.0, 3.0],
        )
        batches = [
            Batch([EdgeDeletion(3, 13), EdgeInsertion(3, 13, weight=4.0), EdgeDeletion(23, 23)]),
            Batch([EdgeInsertion(43, 99, weight=1.0), EdgeDeletion(23, 33)]),
            Batch([EdgeInsertion(99, 13, weight=0.5)]),
        ]
        algo, g = run_mirrored(SSSPSpec, IncSSSP, g, 3, batches)
        assert algo._kernel_ctx.val[13] == 4.0
        assert_context_mirrors(algo._kernel_ctx, g)

    def test_cc_reinsert_and_self_loop(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (4, 5), (3, 3)])
        batches = [
            Batch([EdgeDeletion(1, 2), EdgeInsertion(1, 2, weight=2.0), EdgeDeletion(3, 3)]),
            Batch([EdgeDeletion(1, 2)]),  # splits {0, 1} from {2, 3}
            Batch([EdgeInsertion(3, 3, weight=1.0), EdgeInsertion(1, 2, weight=3.0)]),
            Batch([EdgeDeletion(2, 3), EdgeInsertion(3, 4, weight=1.0)]),
        ]
        algo, g = run_mirrored(CCSpec, IncCC, g, None, batches)
        assert_context_mirrors(algo._kernel_ctx, g)

    @pytest.mark.parametrize("directed", [True, False])
    def test_edges_to_a_vertex_appended_earlier(self, directed):
        batches = [
            Batch([EdgeInsertion(4, 9, weight=1.0)]),  # creates node 9
            Batch([EdgeInsertion(9, 1, weight=0.5), EdgeInsertion(0, 9, weight=1.0)]),
            Batch([EdgeDeletion(4, 9), EdgeInsertion(9, 3, weight=0.25)]),
            Batch([EdgeDeletion(0, 9)]),
        ]
        work = self.weighted(directed)
        state = run_batch(SSSPSpec(), work, 0, engine="generic")
        algo = IncSSSP(engine="kernel")
        algo.apply(work, state, batches[0], 0)
        ctx = algo._kernel_ctx
        for batch in batches[1:]:
            algo.apply(work, state, batch, 0)
        assert algo._kernel_ctx is ctx  # node 9 joined the context, no rebuild
        assert_context_mirrors(ctx, work)
        run_mirrored(SSSPSpec, IncSSSP, self.weighted(directed), 0, batches)

    def test_cc_edges_to_a_vertex_appended_earlier(self):
        g = from_edges([(1, 2), (3, 4)])
        batches = [
            Batch([EdgeInsertion(4, 0, weight=1.0)]),  # creates node 0, a new minimum
            Batch([EdgeInsertion(0, 2, weight=1.0)]),
            Batch([EdgeDeletion(4, 0)]),
        ]
        algo, g = run_mirrored(CCSpec, IncCC, g, None, batches)
        assert_context_mirrors(algo._kernel_ctx, g)

    def test_one_context_outlives_many_edge_ops(self):
        # 200 chain edges and 197 edge ops after the first apply: the
        # same context object absorbs them all.
        edges = [(i, i + 1) for i in range(200)]
        g = from_edges(edges, directed=True, weights=[1.0] * len(edges))
        shortcuts = [EdgeInsertion(i, i + 2, weight=0.25) for i in range(0, 130)]
        batches = [
            Batch([EdgeInsertion(0, 5, weight=0.5)]),
            Batch(shortcuts),
            Batch([op.inverted() for op in shortcuts[::2]]),
            Batch([EdgeDeletion(0, 5), EdgeDeletion(3, 4)]),
        ]
        work = g.copy()
        state = run_batch(SSSPSpec(), work, 0, engine="generic")
        algo = IncSSSP(engine="kernel")
        algo.apply(work, state, batches[0], 0)
        ctx = algo._kernel_ctx
        for batch in batches[1:]:
            algo.apply(work, state, batch, 0)
            assert algo._kernel_ctx is ctx
        assert_context_mirrors(ctx, work)
        run_mirrored(SSSPSpec, IncSSSP, g, 0, batches)

    def test_vertex_churn_keeps_one_context(self):
        # Each delete/re-insert of a vertex drops and re-creates its key;
        # the context follows the churn without a rebuild.
        g = from_edges([(0, 1), (1, 2), (2, 3)])
        churn = []
        for _ in range(5):
            churn.append(Batch([VertexDeletion(3)]))
            churn.append(Batch([VertexInsertion(3, edges=(EdgeInsertion(3, 0, weight=1.0),))]))
        tail = Batch([EdgeDeletion(1, 2), EdgeInsertion(3, 1, weight=1.0)])
        algo, work = run_mirrored(CCSpec, IncCC, g, None, churn + [tail])
        assert_context_mirrors(algo._kernel_ctx, work)

        work = g.copy()
        state = run_batch(CCSpec(), work, None, engine="generic")
        algo = IncCC(engine="kernel")
        contexts = set()
        for batch in churn:
            assert algo.apply(work, state, batch, None).kernel_stats is not None
            contexts.add(id(algo._kernel_ctx))
            assert (3 in algo._kernel_ctx.val) == work.has_node(3)
        assert len(contexts) == 1


class TestNodeKeyedContext:
    """The context keys values by node id on every graph: string ids,
    sparse int ids, a vertex deleted and re-inserted in one batch, and a
    brand-new vertex all run on the graph's own rows."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_sssp_on_string_ids(self, directed):
        g = from_edges(
            [("s", "a"), ("a", "b"), ("s", "b"), ("b", "c"), ("c", "d")],
            directed=directed,
            weights=[1.0, 1.0, 3.0, 2.0, 1.0],
        )
        batches = [
            Batch([EdgeDeletion("s", "a"), EdgeInsertion("s", "c", weight=1.5)]),
            # "b" leaves and comes back in one batch, keeping its key.
            Batch([VertexDeletion("b"), VertexInsertion("b", edges=(EdgeInsertion("a", "b", weight=0.5),))]),
            Batch([EdgeInsertion("d", "new", weight=1.0), EdgeInsertion("s", "a", weight=2.0)]),
            Batch([EdgeDeletion("s", "c")]),
        ]
        algo, work = run_mirrored(SSSPSpec, IncSSSP, g, "s", batches)
        ctx = algo._kernel_ctx
        assert_context_mirrors(ctx, work)
        assert ctx.state.values["new"] == ctx.state.values["d"] + 1.0

    def test_sssp_on_mixed_id_types(self):
        # Ints and strings are not mutually ordered: equal distances must
        # never make the drain's heap compare two node ids.
        g = from_edges(
            [(0, "a"), (0, 1), ("a", "b"), (1, "b"), (1, 2), ("a", 3), (2, "c"), (3, "c")],
            directed=True,
            weights=[1.0] * 8,
        )
        batches = [
            Batch([EdgeDeletion(0, "a"), EdgeInsertion(0, "a", weight=0.5), EdgeInsertion(0, "c", weight=2.0)]),
            Batch([EdgeDeletion(0, 1), EdgeInsertion("b", "d", weight=1.0), EdgeInsertion(2, "d", weight=1.0)]),
        ]
        algo, work = run_mirrored(SSSPSpec, IncSSSP, g, 0, batches)
        assert_context_mirrors(algo._kernel_ctx, work)

    def test_cc_on_sparse_int_ids(self):
        g = from_edges([(10, 70), (70, 30), (30, 90), (500, 600)])
        batches = [
            Batch([EdgeDeletion(70, 30), EdgeInsertion(90, 500, weight=1.0)]),
            Batch([VertexDeletion(30), VertexInsertion(30, edges=(EdgeInsertion(30, 10, weight=1.0),))]),
            Batch([EdgeInsertion(600, 5, weight=1.0)]),  # 5: a new minimum label
            Batch([EdgeDeletion(90, 500), EdgeDeletion(600, 5)]),
        ]
        algo, work = run_mirrored(CCSpec, IncCC, g, None, batches)
        assert_context_mirrors(algo._kernel_ctx, work)
        assert algo._kernel_ctx.state.values[5] == 5


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
        """A stream is one apply: its result is that apply's, stats too."""
        edges = [(i, i + 1) for i in range(50)]
        g = from_edges(edges, directed=True, weights=[1.0] * len(edges))
        state = run_batch(SSSPSpec(), g, 0, engine="generic")
        algo = IncSSSP()
        per_apply = []
        apply = algo.apply

        def recording_apply(*args, **kwargs):
            result = apply(*args, **kwargs)
            per_apply.append(result)
            return result

        algo.apply = recording_apply
        stream = [
            Batch([EdgeInsertion(0, 10, weight=0.5)]),
            Batch([EdgeDeletion(0, 10)]),
            Batch([EdgeInsertion(0, 25, weight=0.25)]),
        ]
        result = algo.apply_stream(g, state, stream, 0)
        assert per_apply == [result]
        assert result.affected_size == len(set(result.changes) | result.scope) > 0
        assert algo.apply_stream(g, state, [], 0).changes == {}
        assert len(per_apply) == 1  # an empty stream applies nothing


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
