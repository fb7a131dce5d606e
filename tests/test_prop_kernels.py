"""Differential property tests: dense kernel engine vs generic interpreter.

For every kernelized spec (SSSP, SSWP, CC, Reach) and arbitrary graphs
and update sequences, the kernel and generic engines must produce

* identical batch fixpoints (`FixpointState.values`), and
* identical per-step ``ΔO`` (`IncrementalResult.changes`) and states
  along any incremental update stream.

Timestamps and reported scopes are *not* compared: the kernel's
round-synchronous sweeps and repair tie-breaking produce a different —
equally valid — ``<_C`` linearization.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_edge_batch, random_graph
from repro.algorithms.cc import CCSpec, IncCC
from repro.algorithms.reach import IncReach, ReachSpec
from repro.algorithms.sssp import IncSSSP, SSSPSpec
from repro.algorithms.sswp import IncSSWP, SSWPSpec
from repro.core import run_batch
from repro.kernels.engine import unsupported_reason

settings.register_profile("repro-kernels", deadline=None, max_examples=30)
settings.load_profile("repro-kernels")

scenario = st.tuples(
    st.integers(min_value=2, max_value=16),  # nodes
    st.integers(min_value=0, max_value=36),  # edge attempts
    st.booleans(),  # directed
    st.integers(),  # seed
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),  # batch sizes
)

# (spec factory, incremental factory, needs directed?, weighted?, query)
CASES = [
    (SSSPSpec, IncSSSP, None, True, 0),
    (SSWPSpec, IncSSWP, None, True, 0),
    (ReachSpec, IncReach, None, False, 0),
    (CCSpec, IncCC, False, False, None),
]


@given(scenario)
def test_kernel_batch_equals_generic(params):
    n, m, directed, seed, _ = params
    rng = random.Random(seed)
    for spec_cls, _inc_cls, force_directed, weighted, query in CASES:
        use_directed = directed if force_directed is None else force_directed
        g = random_graph(rng, n, m, use_directed, weighted=weighted)
        spec = spec_cls()
        assert unsupported_reason(spec, g, query) is None, spec.name
        kernel = run_batch(spec, g, query, engine="kernel")
        generic = run_batch(spec, g, query, engine="generic")
        assert kernel.values == generic.values, spec.name


@given(scenario)
def test_kernel_incremental_equals_generic(params):
    n, m, directed, seed, batch_sizes = params
    for spec_cls, inc_cls, force_directed, weighted, query in CASES:
        rng = random.Random(seed)
        use_directed = directed if force_directed is None else force_directed
        g = random_graph(rng, n, m, use_directed, weighted=weighted)

        runs = {}
        for engine in ("generic", "kernel"):
            rng_e = random.Random(seed + 1)
            work = g.copy()
            state = run_batch(spec_cls(), work, query, engine="generic")
            algo = inc_cls(engine=engine)
            steps = []
            for size in batch_sizes:
                delta = random_edge_batch(rng_e, work, size, weighted=weighted)
                result = algo.apply(work, state, delta, query)
                steps.append(dict(result.changes))
            runs[engine] = (dict(state.values), steps)

        name = spec_cls.__name__
        assert runs["kernel"][0] == runs["generic"][0], name
        assert runs["kernel"][1] == runs["generic"][1], name


@given(scenario)
def test_kernel_mixed_stream_equals_generic(params):
    """Kernel == generic, per step, for all four kernel specs — on
    streams that also grow/shrink the node set."""
    n, m, directed, seed, batch_sizes = params
    from oracles import random_mixed_batch

    for spec_cls, inc_cls, force_directed, weighted, query in CASES:
        use_directed = directed if force_directed is None else force_directed
        base = random_graph(random.Random(seed), n, m, use_directed, weighted=weighted)

        runs = {}
        for engine in ("generic", "kernel"):
            rng_e = random.Random(seed + 7)
            work = base.copy()
            state = run_batch(spec_cls(), work, query, engine="generic")
            algo = inc_cls(engine=engine)
            steps = []
            protect = () if query is None else (query,)
            for size in batch_sizes:
                delta = random_mixed_batch(
                    rng_e, work, size, weighted=weighted, protect=protect
                )
                result = algo.apply(work, state, delta, query)
                steps.append(dict(result.changes))
                assert (result.kernel_stats is not None) == (engine == "kernel")
            runs[engine] = (dict(state.values), steps)

        name = spec_cls.__name__
        assert runs["kernel"][0] == runs["generic"][0], name
        assert runs["kernel"][1] == runs["generic"][1], name


@given(scenario)
def test_scheduler_stream_equals_generic(params):
    """apply_stream (the stream as one apply) reaches the same graph and
    state as op-by-op generic applies, with their composed ΔO."""
    n, m, directed, seed, batch_sizes = params
    from oracles import random_mixed_batch

    for spec_cls, inc_cls, force_directed, weighted, query in CASES:
        use_directed = directed if force_directed is None else force_directed
        base = random_graph(random.Random(seed), n, m, use_directed, weighted=weighted)
        protect = () if query is None else (query,)

        # One deterministic stream of unit batches against the evolving graph.
        rng_e = random.Random(seed + 13)
        scratch = base.copy()
        stream = []
        from repro.graph.updates import apply_updates as _apply

        for size in batch_sizes:
            for _ in range(size):
                b = random_mixed_batch(rng_e, scratch, 1, weighted=weighted, protect=protect)
                if b.updates:
                    _apply(scratch, b)
                    stream.append(b)

        work_s = base.copy()
        state_s = run_batch(spec_cls(), work_s, query, engine="generic")
        v0 = dict(state_s.values)
        sched = inc_cls().apply_stream(work_s, state_s, stream, query)

        work_g = base.copy()
        state_g = run_batch(spec_cls(), work_g, query, engine="generic")
        algo_g = inc_cls(engine="generic")
        for b in stream:
            algo_g.apply(work_g, state_g, b, query)

        name = spec_cls.__name__
        assert work_s == work_g, name
        assert dict(state_s.values) == dict(state_g.values), name
        # One apply's ΔO maps every variable whose value differs between
        # the pre-stream and final fixpoints, and only those, from its old
        # value (None for a created one) to its new one.
        v1 = dict(state_s.values)
        expected = {k: (v0.get(k), v1.get(k)) for k in set(v0) | set(v1)}
        assert sched.changes == {k: d for k, d in expected.items() if d[0] != d[1]}, name


def test_stream_is_one_apply():
    """A stream with an insert-then-delete of one edge, a flapped tight
    edge and a vertex insertion between edge ops on its endpoints takes
    one apply, which reaches the graph, values and composed ΔO of
    op-by-op generic applies, with None as the created vertex's old side."""
    from repro.core.incremental import compose_changes
    from repro.graph import Batch, EdgeDeletion, EdgeInsertion, from_edges
    from repro.graph.updates import VertexInsertion

    n = 8
    path = [(i, i + 1) for i in range(n - 1)]
    ops = [
        EdgeInsertion(0, 2, weight=1.0),
        EdgeDeletion(0, 2),  # cancels the insertion
        EdgeDeletion(2, 3),  # tight: 3 and its descendants hang on it
        EdgeInsertion(2, 3, weight=5.0),
        EdgeInsertion(0, 4, weight=1.0),
        VertexInsertion(n, edges=(EdgeInsertion(0, n, weight=2.0),)),
        EdgeInsertion(n, 5, weight=1.0),
        EdgeInsertion(3, n, weight=1.0),
    ]
    for spec_cls, inc_cls, directed, query in (
        (SSSPSpec, IncSSSP, True, 0),
        (CCSpec, IncCC, False, None),
    ):
        base = from_edges(path, directed=directed, weights=[5.0] * len(path))
        work_s = base.copy()
        state_s = run_batch(spec_cls(), work_s, query, engine="generic")
        inc = inc_cls()
        applies = []
        apply = inc.apply

        def counting_apply(*args, **kwargs):
            applies.append(args[2])
            return apply(*args, **kwargs)

        inc.apply = counting_apply
        result = inc.apply_stream(work_s, state_s, [Batch([op]) for op in ops], query)
        assert [batch.updates for batch in applies] == [ops]

        work_g = base.copy()
        state_g = run_batch(spec_cls(), work_g, query, engine="generic")
        algo_g = inc_cls(engine="generic")
        composed = {}
        for op in ops:
            compose_changes(composed, algo_g.apply(work_g, state_g, Batch([op]), query).changes)

        name = spec_cls.__name__
        assert work_s == work_g, name
        assert dict(state_s.values) == dict(state_g.values), name
        assert result.changes == composed, name
        assert result.changes[n] == (None, state_s.values[n]), name
