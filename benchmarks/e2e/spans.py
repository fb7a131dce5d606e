"""Spans around the program's layer entry points, installed from outside.

:func:`install` replaces each traced function *where its callers look it
up* (``repro.core.incremental.run_fixpoint``, not the engine's own name)
with a wrapper that records a span: name, start, end, parent (a
per-thread stack), thread, request id and a small info dict.  Spans stay
in memory until :meth:`Recorder.dump`.  Nothing under ``src/`` changes.

A span keeps wall-clock and thread-CPU start/end.  :func:`layer_table`
turns spans into per-layer self time: a span's duration minus the
durations of its direct children.  Wall self time includes waiting
(queue waits, scatters, the GIL); CPU self time is the layer's own work.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# Span record layout: a list while the span is open, a tuple once kept.
SID, NAME, START, END, CPU0, CPU1, PARENT, THREAD, RID, INFO = range(10)

#: Root span names: a writer window and an in-process A_Δ apply.
ROOTS = ("serve.window", "inc.apply")


class Recorder:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn: Callable, info: Optional[Callable] = None,
             new_request: bool = False) -> Callable:
        """``fn`` recording a span per call.  ``name`` is a string or a
        function of the call's arguments; ``info(args, kwargs, result)``
        adds fields to the span; ``new_request`` starts a request id."""
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if new_request or parent is None:
                rid = next(recorder._rids) if new_request else None
            else:
                rid = parent[RID]
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [next(recorder._ids), label, perf_counter(), 0.0, thread_time(), 0.0,
                    parent[SID] if parent else None, threading.get_ident(), rid, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[CPU1] = thread_time()
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            # A tuple of atoms drops out of the cyclic GC's tracking, so
            # thousands of kept spans do not slow the collections that
            # run inside the spans being timed.
            recorder.spans.append(tuple(span))
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)


def load(path) -> List[tuple]:
    with open(path) as f:
        return json.load(f)["spans"]


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _request_kind(args, _kwargs) -> str:
    line = args[1]
    return "serve.request_update" if '"update"' in line else "serve.request_query"


def _seq_info(_args, _kwargs, seq) -> Dict[str, Any]:
    return {"seq": seq}


def _window_info(args, _kwargs, _result) -> Dict[str, Any]:
    seqs = [op.seq for op in args[1] if op.seq is not None]
    return {"ops": len(args[1]), "seqs": [min(seqs), max(seqs)] if seqs else None}


def _apply_info(_args, _kwargs, result) -> Dict[str, Any]:
    return {
        "kernel": result.kernel_stats is not None,
        "touched": result.affected_size,
        "changed": len(result.changes),
    }


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap the public entry points of every layer (see the README map);
    returns a function that puts the originals back."""
    from repro.core import incremental as core_inc
    from repro.core.incremental import BatchAlgorithm, IncrementalAlgorithm
    from repro.graph.graph import Graph
    from repro.graph.updates import Batch
    from repro.kernels import incremental as kern_inc
    from repro.parallel import router
    from repro.parallel.router import ShardedSession
    from repro.resilience.transactions import SessionTransaction
    from repro import session as session_mod
    from repro.serve import protocol, server
    from repro.serve.service import QueryService
    from repro.serve.state import SnapshotStore
    from repro.session import DynamicGraphSession

    w = recorder.wrap
    saved = []

    def patch(owner, attr: str, name, **kw) -> None:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, w(name, getattr(owner, attr), **kw))

    # serve
    patch(server, "handle_line", _request_kind, new_request=True)
    patch(protocol, "snapshot_response", "serve.read_encode")
    patch(QueryService, "update", "serve.update_wait", info=_seq_info)
    patch(QueryService, "_run_window", "serve.window", info=_window_info)
    patch(SnapshotStore, "publish", "serve.publish")
    patch(DynamicGraphSession, "answer", "session.answer")
    # session / resilience
    patch(DynamicGraphSession, "update_stream", "session.update_stream")
    patch(session_mod, "validate_batch", "session.validate")
    saved.append((SessionTransaction, "begin", SessionTransaction.__dict__["begin"]))
    SessionTransaction.begin = staticmethod(w("resilience.txn_begin", SessionTransaction.begin))
    patch(Graph, "copy", "graph.copy")
    for module in (session_mod, core_inc, kern_inc, router):
        patch(module, "apply_updates", "graph.apply_updates")
    # kernels / core
    patch(IncrementalAlgorithm, "apply_stream", "inc.apply_stream")
    patch(Batch, "normalized", "graph.normalized")
    patch(IncrementalAlgorithm, "apply", "inc.apply", info=_apply_info)
    patch(kern_inc, "kernel_apply", "kernels.kernel_apply")
    patch(core_inc, "initial_scope", "core.scope_h")
    patch(core_inc, "run_fixpoint", "core.run_fixpoint")
    # algorithms (batch)
    patch(BatchAlgorithm, "run", "batch.run")
    # parallel (router side; worker internals show as scatter waiting)
    patch(ShardedSession, "update_stream", "parallel.update_stream")
    patch(ShardedSession, "_scatter", "parallel.scatter")
    patch(router, "validate_batch", "session.validate")
    patch(router, "run_fixpoint", "parallel.settle")

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: Iterable[tuple], begin: int = START, end: int = END) -> Dict[int, float]:
    """Span id -> self time (duration minus direct children's); pass
    ``CPU0, CPU1`` for thread-CPU self time."""
    spans = list(spans)
    out = {s[SID]: s[end] - s[begin] for s in spans}
    for s in spans:
        if s[PARENT] in out:
            out[s[PARENT]] -= s[end] - s[begin]
    return out


def check_nesting(spans: List[tuple], tolerance: float = 0.10) -> List[str]:
    """Every child lies inside its parent on the parent's thread, no self
    time is negative, and within every root span (a writer window, an
    in-process ``A_Δ`` apply) the layers' CPU self times sum to the root's
    CPU time within ``tolerance``.  CPU time, because wall time would also
    charge a layer for the GIL held by other threads."""
    by_id = {s[SID]: s for s in spans}
    wall = self_times(spans)
    cpu = self_times(spans, CPU0, CPU1)
    problems = []
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is not None and (
            s[START] < parent[START] or s[END] > parent[END] or s[THREAD] != parent[THREAD]
        ):
            problems.append(f"span {s[NAME]} escapes its parent {parent[NAME]}")
        if wall[s[SID]] < -1e-9 or cpu[s[SID]] < -1e-6:
            problems.append(f"span {s[NAME]} has negative self time")
    for root, covered in root_cover(spans).items():
        total = by_id[root][CPU1] - by_id[root][CPU0]
        if abs(covered - total) > tolerance * total + 1e-6:
            problems.append(f"layers cover {covered / total:.0%} of root {by_id[root][NAME]}")
    return problems[:10]


def root_cover(spans: List[tuple]) -> Dict[int, float]:
    """Root span id -> the CPU self times of its whole subtree, summed,
    for the :data:`ROOTS` spans that have no parent."""
    by_id = {s[SID]: s for s in spans}
    cpu = self_times(spans, CPU0, CPU1)
    root_of: Dict[int, Optional[int]] = {}

    def find(sid):
        if sid not in root_of:
            s = by_id[sid]
            if s[PARENT] is None:
                root_of[sid] = sid if s[NAME] in ROOTS else None
            else:
                root_of[sid] = find(s[PARENT]) if s[PARENT] in by_id else None
        return root_of[sid]

    cover: Dict[int, float] = {}
    for s in spans:
        root = find(s[SID])
        if root is not None:
            cover[root] = cover.get(root, 0.0) + cpu[s[SID]]
    return cover


def layer_table(spans: List[tuple], start: float, end: float) -> Dict[str, Tuple[int, float, float]]:
    """Span name -> (calls, self wall s, self CPU s) over the spans
    starting in [start, end)."""
    wall = self_times(spans)
    cpu = self_times(spans, CPU0, CPU1)
    table: Dict[str, Tuple[int, float, float]] = {}
    for s in spans:
        if start <= s[START] < end:
            calls, w, c = table.get(s[NAME], (0, 0.0, 0.0))
            table[s[NAME]] = (calls + 1, w + wall[s[SID]], c + cpu[s[SID]])
    return table


def apply_counts(spans: List[tuple], start: float, end: float) -> Dict[str, float]:
    """Kernel share, mean |AFF| and useful ratio |ΔO| / |AFF| of the
    ``inc.apply`` spans in [start, end)."""
    infos = [s[INFO] for s in spans if s[NAME] == "inc.apply" and start <= s[START] < end and s[INFO]]
    applies = len(infos)
    touched = sum(i["touched"] for i in infos)
    return {
        "inc.kernel_share": sum(i["kernel"] for i in infos) / applies if applies else 0.0,
        "inc.touched": touched / applies if applies else 0.0,
        "inc.useful_ratio": sum(i["changed"] for i in infos) / touched if touched else 0.0,
    }
