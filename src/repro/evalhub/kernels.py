"""The ``kernels`` suite: generic engine vs the CSR kernel engine.

:func:`smoke` is the correctness gate.  For every kernelized spec it
checks that the dense kernel path is selectable (no silent fallback)
and that forced kernel runs, batch and incremental, produce exactly the
generic engine's values and per-op ``ΔO``.  On a small random unit
stream it also checks that the stream scheduler reaches the generic
fixpoint.  Any failure raises :class:`SuiteError`.

:func:`run` is the timed comparison:

* batch SSSP and CC (Erdős–Rényi, average degree ~20 — social-network
  density), best of ``repeats`` after a warmup;
* incremental SSSP unit-update streams in two shapes: a *random* stream
  (tiny affected sets: the paper's locality claim, where the generic
  engine is already near-optimal) and a *flap* stream alternately
  deleting/re-inserting the heaviest shortest-path-tree edges (large
  repair cascades, where the dense arrays pay off).  Each stream is
  timed under the generic engine, the kernel engine, and once more
  through the coalescing stream scheduler (``apply_stream``); per-op
  touched-node counters from ``kernel_stats`` are recorded so
  |AFF|-proportionality is auditable next to the wall-clock numbers.

Every timed configuration also asserts value equality between the
engines, so the recorded speedups are for identical answers.
"""

from __future__ import annotations

from collections import defaultdict

from ..algorithms.cc import CCSpec, IncCC
from ..algorithms.reach import IncReach, ReachSpec
from ..algorithms.sssp import IncSSSP, SSSPSpec
from ..algorithms.sswp import IncSSWP, SSWPSpec
from ..core import run_batch
from ..generators import assign_weights, erdos_renyi, random_updates
from ..graph import Batch, EdgeDeletion, EdgeInsertion
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
    """Drive the same stream through the coalescing scheduler.

    Returns ``(seconds, final values, StreamResult)``.
    """
    work = graph.copy()
    state = run_batch(SSSPSpec(), work, query, engine="generic")
    sched, seconds = time_call(
        IncSSSP().apply_stream, work, state, [Batch([op]) for op in stream], query
    )
    return seconds, dict(state.values), sched


# ----------------------------------------------------------------------
# Timed rows
# ----------------------------------------------------------------------
def bench_batch(results, edges: int, repeats: int):
    for name, spec, graph, query in (
        ("batch_sssp", SSSPSpec(), sssp_graph(edges), 0),
        ("batch_cc", CCSpec(), cc_graph(edges), None),
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
        sched_s, sched_values, sched = run_scheduled(graph, 0, stream)
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
                # Headline: generic per-op baseline vs the scheduler-driven
                # pipeline (coalescing + AFF routing), the intended deployment.
                "speedup": round(generic_s / sched_s, 2),
                "kernel_speedup": round(generic_s / kernel_s, 2),
                "applies": sched.applies,
                "coalesced_away": sched.coalesced_away,
                # |AFF|-proportionality audit: mean/max nodes touched per op
                # by the kernel path, next to the generic scope and n.
                "touched_mean": round(sum(kernel_touched) / max(len(kernel_touched), 1), 1),
                "touched_max": max(kernel_touched, default=0),
                "generic_aff_mean": round(
                    sum(generic_touched) / max(len(generic_touched), 1), 1
                ),
            }
        )


def run(edges_sweep, ops: int, repeats: int):
    """The timed suite at the given sweep; returns registry rows."""
    results = []
    for edges in edges_sweep:
        bench_batch(results, edges, repeats)
        bench_incremental(results, edges, ops=ops)
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

        # Scheduler gate: coalescing + AFF routing reaches the same
        # fixpoint as the op-by-op applies above.
        work = graph.copy()
        state = run_batch(spec, work, query, engine="generic")
        inc_cls().apply_stream(work, state, [Batch([op]) for op in stream], query)
        _require(
            dict(state.values) == outcomes["generic"][0],
            f"{spec.name} scheduler stream diverges",
        )
