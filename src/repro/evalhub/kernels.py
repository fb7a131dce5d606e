"""The ``kernels`` suite: generic engine vs the dense kernel engine.

:func:`smoke` is the correctness gate.  For every kernelized spec it
checks that the dense kernel path is selectable (no silent fallback)
and that forced kernel runs, batch and incremental, produce exactly the
generic engine's values and per-op ``ΔO``.  On a small random unit
stream it also checks that ``apply_stream`` (the stream as one apply)
reaches the generic fixpoint, and on a 129-node weighted path that the batch
kernel does too.  A path is the deepest drain a graph of its size can
take: every node's value hangs on a chain of writes as long as the
graph, so a dropped push or a wrong write order shows there first.
Any failure raises :class:`SuiteError`.

:func:`run` is the timed comparison:

* batch SSSP and CC (Erdős–Rényi, average degree ~20 — social-network
  density), best of ``repeats`` after a warmup;
* batch SSSP and CC on a 2-D grid (``tail_*_grid``): road-network
  diameter, where the drain's frontier is a thin wavefront crossing
  the grid.  The names date from a round-sweep schedule that handed
  such graphs to a scalar tail; they are kept so the registry's history
  stays comparable, and sit outside ``batch_*`` so the gated batch
  geomean keeps its row set;
* incremental SSSP unit-update streams in two shapes: a *random* stream
  (tiny affected sets: the paper's locality claim, where the generic
  engine is already near-optimal) and a *flap* stream alternately
  deleting/re-inserting the heaviest shortest-path-tree edges (large
  repair cascades, where the dense arrays pay off).  Each stream is
  timed op by op under the generic engine and the kernel engine, and
  once more as one apply through ``apply_stream``; per-op
  touched-node counters from ``kernel_stats`` are recorded so
  |AFF|-proportionality is auditable next to the wall-clock numbers;
* incremental SSSP and CC by |ΔG| (``inc_sssp_level``/``inc_cc_level``):
  one mixed batch at 1%, 4% and 16% of |E| and the batch undoing it,
  applied as warm round trips on each engine, interleaved — the median
  apply per engine shows where the kernel wins and where it loses.

Every timed configuration also asserts value equality between the
engines, so the recorded speedups are for identical answers.
"""

from __future__ import annotations

from collections import defaultdict
from math import isqrt
from statistics import median

from ..algorithms.cc import CCSpec, IncCC
from ..algorithms.reach import IncReach, ReachSpec
from ..algorithms.sssp import IncSSSP, SSSPSpec
from ..algorithms.sswp import IncSSWP, SSWPSpec
from ..core import run_batch
from ..generators import assign_weights, erdos_renyi, grid_2d, random_updates
from ..graph import Batch, EdgeDeletion, EdgeInsertion, apply_updates, from_edges
from ..kernels.engine import unsupported_reason
from ..metrics.timers import best_of, time_call
from .suites import SuiteError

INF = float("inf")


def sssp_graph(edges: int, seed: int = 7):
    n = max(edges // 20, 4)
    return assign_weights(erdos_renyi(n, edges, directed=True, seed=seed), seed=seed)


def cc_graph(edges: int, seed: int = 7):
    n = max(edges // 20, 4)
    return erdos_renyi(n, edges, directed=False, seed=seed)


# ----------------------------------------------------------------------
# Update streams
# ----------------------------------------------------------------------
def random_stream(graph, ops: int, seed: int = 3):
    """Unit updates sampled uniformly — the paper's locality regime."""
    return list(random_updates(graph, ops, seed=seed))


def flap_stream(graph, query, ops: int):
    """Alternately delete/re-insert the heaviest shortest-path-tree edges.

    "Heaviest" by subtree size: these are the unit updates with the
    largest affected sets (`AFF`), the adversarial end of the unit-update
    spectrum.
    """
    state = run_batch(SSSPSpec(), graph, query)
    values = state.values
    parent = {}
    for v in graph.nodes():
        dv = values[v]
        if dv == INF or v == query:
            continue
        for u, w in graph.in_items(v):
            if values[u] + w == dv:
                parent[v] = (u, w)
                break
    children = defaultdict(list)
    for v, (u, _w) in parent.items():
        children[u].append(v)
    sizes = {}
    stack = [(query, False)]
    while stack:
        v, done = stack.pop()
        if done:
            sizes[v] = 1 + sum(sizes[c] for c in children.get(v, []))
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in children.get(v, []))
    top = sorted(((sizes.get(v, 1), v) for v in parent), reverse=True)[:10]
    flap = [(parent[v][0], v, parent[v][1]) for _, v in top]
    stream = []
    for i in range(ops // 2):
        u, v, w = flap[i % len(flap)]
        stream.append(EdgeDeletion(u, v))
        stream.append(EdgeInsertion(u, v, weight=w))
    return stream


def run_stream(graph, query, stream, engine: str):
    """Apply ``stream`` as unit batches.

    Returns ``(seconds, final values, per-op touched counts)`` — the
    touched counts come from ``kernel_stats`` (kernel engine) or the
    change/scope sets (generic), i.e. :attr:`IncrementalResult.affected_size`.
    """
    work = graph.copy()
    state = run_batch(SSSPSpec(), work, query, engine="generic")
    algo = IncSSSP(engine=engine)
    touched, seconds = time_call(
        lambda: [algo.apply(work, state, Batch([op]), query).affected_size for op in stream]
    )
    return seconds, dict(state.values), touched


def run_scheduled(graph, query, stream):
    """Drive the same stream through ``apply_stream``: one apply.

    Returns ``(seconds, final values)``.
    """
    work = graph.copy()
    state = run_batch(SSSPSpec(), work, query, engine="generic")
    _, seconds = time_call(
        IncSSSP().apply_stream, work, state, [Batch([op]) for op in stream], query
    )
    return seconds, dict(state.values)


# ----------------------------------------------------------------------
# Timed rows
# ----------------------------------------------------------------------
def bench_batch(results, edges: int, repeats: int):
    # A grid side of at least 40 puts the far corner 78 hops out.
    side = max(isqrt(edges // 2), 40)
    grid = grid_2d(side, side, seed=7)
    for name, spec, graph, query in (
        ("batch_sssp", SSSPSpec(), sssp_graph(edges), 0),
        ("batch_cc", CCSpec(), cc_graph(edges), None),
        ("tail_sssp_grid", SSSPSpec(), grid, 0),
        ("tail_cc_grid", CCSpec(), grid, None),
    ):
        generic = best_of(lambda: run_batch(spec, graph, query, engine="generic"), repeats)
        kernel = best_of(lambda: run_batch(spec, graph, query, engine="kernel"), repeats)
        assert kernel.result.values == generic.result.values, f"{name}@{edges}: values diverge"
        results.append(
            {
                "name": name,
                "edges": edges,
                "nodes": graph.num_nodes,
                "repeats": repeats,
                "generic_ms": round(generic.seconds * 1e3, 2),
                "kernel_ms": round(kernel.seconds * 1e3, 2),
                "speedup": round(generic.seconds / kernel.seconds, 2),
            }
        )


def bench_incremental(results, edges: int, ops: int):
    graph = sssp_graph(edges)
    for shape, stream in (
        ("random", random_stream(graph, ops)),
        ("flap", flap_stream(graph, 0, ops)),
    ):
        generic_s, generic_values, generic_touched = run_stream(graph, 0, stream, "generic")
        kernel_s, kernel_values, kernel_touched = run_stream(graph, 0, stream, "kernel")
        assert kernel_values == generic_values, f"inc {shape}@{edges} [kernel]: values diverge"
        sched_s, sched_values = run_scheduled(graph, 0, stream)
        assert sched_values == generic_values, f"inc {shape}@{edges} [sched]: values diverge"

        results.append(
            {
                "name": f"inc_sssp_unit_{shape}",
                "edges": edges,
                "nodes": graph.num_nodes,
                "ops": len(stream),
                "generic_ms": round(generic_s * 1e3, 2),
                "kernel_ms": round(kernel_s * 1e3, 2),
                "sched_ms": round(sched_s * 1e3, 2),
                # Headline: generic per-op baseline vs the stream as one
                # apply (what a session runs), the intended deployment.
                "speedup": round(generic_s / sched_s, 2),
                "kernel_speedup": round(generic_s / kernel_s, 2),
                # |AFF|-proportionality audit: mean/max nodes touched per op
                # by the kernel path, next to the generic scope and n.
                "touched_mean": round(sum(kernel_touched) / max(len(kernel_touched), 1), 1),
                "touched_max": max(kernel_touched, default=0),
                "generic_aff_mean": round(
                    sum(generic_touched) / max(len(generic_touched), 1), 1
                ),
            }
        )


#: The |ΔG| levels of the ``inc_*_level`` rows, as shares of |E|.
LEVELS = (0.01, 0.04, 0.16)


def undo_batch(graph, batch: Batch) -> Batch:
    """The batch returning ``graph ⊕ batch`` to ``graph`` (deleted edges
    come back with their weights)."""
    work = graph.copy()
    undo = []
    for op in batch.updates:
        if isinstance(op, EdgeDeletion):
            undo.append(EdgeInsertion(op.u, op.v, weight=work.weight(op.u, op.v)))
        else:
            undo.append(EdgeDeletion(op.u, op.v))
        apply_updates(work, [op])
    return Batch(undo[::-1])


def bench_levels(results, edges: int, round_trips: int):
    for name, spec, inc_cls, graph, query in (
        ("inc_sssp_level", SSSPSpec(), IncSSSP, sssp_graph(edges), 0),
        ("inc_cc_level", CCSpec(), IncCC, cc_graph(edges), None),
    ):
        for level in LEVELS:
            forward = random_updates(graph, int(level * graph.num_edges), seed=11)
            trip = (forward, undo_batch(graph, forward))
            sides = {}
            for engine in ("generic", "kernel"):
                work = graph.copy()
                state = run_batch(spec, work, query, engine="generic")
                algo = inc_cls(engine=engine)
                for batch in trip:  # warm: the kernel side builds its mirror
                    algo.apply(work, state, batch, query)
                sides[engine] = (work, state, algo, [], [])
            for r in range(round_trips):
                # Alternate which engine goes first, so drift hits both.
                for engine in ("generic", "kernel") if r % 2 else ("kernel", "generic"):
                    work, state, algo, seconds, outcomes = sides[engine]
                    for batch in trip:
                        result, s = time_call(algo.apply, work, state, batch, query)
                        seconds.append(s)
                        outcomes.append((dict(result.changes), result.affected_size))
            _, g_state, _, g_seconds, g_outcomes = sides["generic"]
            _, k_state, _, k_seconds, k_outcomes = sides["kernel"]
            assert k_state.values == g_state.values, f"{name}@{level:.0%}: values diverge"
            assert [c for c, _ in k_outcomes] == [c for c, _ in g_outcomes], (
                f"{name}@{level:.0%}: ΔO diverges"
            )
            generic_ms, kernel_ms = median(g_seconds) * 1e3, median(k_seconds) * 1e3
            results.append(
                {
                    "name": name,
                    "edges": edges,
                    "nodes": graph.num_nodes,
                    "delta_pct": round(level * 100, 2),
                    "ops": forward.size,
                    "applies": len(k_seconds),
                    "generic_ms": round(generic_ms, 2),
                    "kernel_ms": round(kernel_ms, 2),
                    "kernel_speedup": round(generic_ms / kernel_ms, 2),
                    "changed_mean": round(
                        sum(len(c) for c, _ in k_outcomes) / len(k_outcomes), 1
                    ),
                    "aff_mean": round(sum(a for _, a in k_outcomes) / len(k_outcomes), 1),
                }
            )


def run(edges_sweep, ops: int, repeats: int):
    """The timed suite at the given sweep; returns registry rows."""
    results = []
    for edges in edges_sweep:
        bench_batch(results, edges, repeats)
        bench_incremental(results, edges, ops=ops)
        bench_levels(results, edges, round_trips=5 * repeats)
    return results


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
SMOKE_CASES = (
    (SSSPSpec, IncSSSP, True, 0),
    (SSWPSpec, IncSSWP, True, 0),
    (ReachSpec, IncReach, True, 0),
    (CCSpec, IncCC, False, None),
)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SuiteError(f"kernels smoke: {message}")


def smoke() -> None:
    for spec_cls, inc_cls, directed, query in SMOKE_CASES:
        spec = spec_cls()
        # High-diameter gate: a chain of writes as long as the path.
        n = 129
        path = from_edges(
            [(i, i + 1) for i in range(n - 1)],
            directed=directed,
            weights=[1.0 + i % 7 for i in range(n - 1)],
        )
        kernel = run_batch(spec, path, query, engine="kernel")
        generic = run_batch(spec, path, query, engine="generic")
        _require(kernel.values == generic.values, f"{spec.name} batch kernel tail diverges")

        graph = assign_weights(erdos_renyi(60, 240, directed=directed, seed=5), seed=5)
        reason = unsupported_reason(spec, graph, query)
        _require(reason is None, f"{spec.name} kernel not selectable: {reason}")
        kernel = run_batch(spec, graph, query, engine="kernel")
        generic = run_batch(spec, graph, query, engine="generic")
        _require(kernel.values == generic.values, f"{spec.name} batch kernel diverges")

        stream = list(random_updates(graph, 12, seed=9))
        outcomes = {}
        for engine in ("generic", "kernel"):
            work = graph.copy()
            state = run_batch(spec, work, query, engine="generic")
            algo = inc_cls(engine=engine)
            changes = [
                dict(algo.apply(work, state, Batch([op]), query).changes)
                for op in stream
            ]
            outcomes[engine] = (dict(state.values), changes)
        _require(
            outcomes["kernel"] == outcomes["generic"],
            f"{spec.name} incremental kernel diverges",
        )

        # Stream gate: the stream as one apply reaches the same fixpoint
        # as the op-by-op applies above.
        work = graph.copy()
        state = run_batch(spec, work, query, engine="generic")
        inc_cls().apply_stream(work, state, [Batch([op]) for op in stream], query)
        _require(
            dict(state.values) == outcomes["generic"][0],
            f"{spec.name} stream apply diverges",
        )
