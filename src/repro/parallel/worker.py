"""The shard worker: one fragment, one session, one command loop.

A :class:`ShardWorker` wraps a full
:class:`~repro.session.DynamicGraphSession` over its fragment — WAL and
checkpoints apply *per shard* — and keeps it a replica of the router's
writer session on the fragment's nodes.  It answers the small command
vocabulary the router (:mod:`repro.parallel.router`) speaks:

========================  ============================================
``register``              apply the optional seq-consuming prelude
                          (materializes a query source), then register
                          a query on the fragment
``apply``                 apply a window of sub-batches (one per global
                          batch, possibly empty, so every shard's WAL
                          seq advances in lockstep with the global seq)
                          to the fragment graphs, then pin the writer's
                          values; no ``A_Δ`` runs
``pin``                   pin the writer's values (registration and
                          recovery)
``export_fragment``       the fragment graph (recovery reassembly)
``unregister`` ``close``  bookkeeping
``info``                  seq + registered queries (recovery handshake)
========================  ============================================

Both ``apply`` and ``pin`` are one call to
:meth:`~repro.session.DynamicGraphSession.replicate` (``pin`` with an
empty stream), which keeps the replica contract: after every command,
each query's value on every fragment node equals the writer's, and no
query holds a value for a node outside the fragment.  By Theorems 1 and
3 the writer's one ``A_Δ`` run on the global graph already yields those
values, so the shard never re-runs it: ``apply`` ships pins for the keys
the writer's ``ΔO`` touched and the nodes newly materialized on this
fragment, and every other key keeps its (already equal) value.

The worker runs either in-process (tests, recovery, ``shards=1``
plumbing checks) or as a child process speaking pickled request/response
dicts over a :mod:`multiprocessing` pipe (:func:`shard_main`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import ReproError
from ..graph.graph import Graph
from ..resilience import SessionConfig
from ..session import DynamicGraphSession


class ShardWorker:
    """Command executor for one shard (usable in- or out-of-process)."""

    def __init__(
        self, index: int, fragment: Graph, config: Optional[SessionConfig] = None
    ) -> None:
        self.index = index
        self.session = DynamicGraphSession(fragment, config)

    @classmethod
    def recover(
        cls, index: int, directory: Path, config: Optional[SessionConfig] = None
    ) -> "ShardWorker":
        """Rebuild a shard worker from its durable per-shard directory."""
        worker = cls.__new__(cls)
        worker.index = index
        worker.session = DynamicGraphSession.recover(directory, config)
        return worker

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one command; never raises (errors travel in-band)."""
        try:
            handler = getattr(self, f"_cmd_{request['cmd']}")
        except (KeyError, AttributeError):
            return {"ok": False, "error": ReproError(f"unknown shard command {request!r}")}
        try:
            return {"ok": True, "result": handler(request)}
        except BaseException as exc:  # includes InjectedFault crash drills
            return {"ok": False, "error": exc}

    # ------------------------------------------------------------------
    def _cmd_register(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if request["prelude"]:
            self.session.update_stream(request["prelude"])
        self.session.register(request["name"], request["algorithm"], query=request["query"])
        return {"seq": self.session.seq}

    def _cmd_unregister(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.session.unregister(request["name"])
        return {"seq": self.session.seq}

    def _cmd_apply(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.session.replicate(request["batches"], request["pins"])
        return {"seq": self.session.seq}

    def _cmd_pin(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.session.replicate([], request["pins"])
        return {"seq": self.session.seq}

    def _cmd_export_fragment(self, request: Dict[str, Any]) -> Graph:
        return self.session.graph

    def _cmd_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self.session
        return {
            "index": self.index,
            "seq": session.seq,
            "batches_applied": session.batches_applied,
            "queries": {
                name: {"algorithm": registered.algorithm, "query": registered.query}
                for name, registered in session._queries.items()
            },
        }

    def _cmd_close(self, request: Dict[str, Any]) -> None:
        self.session.close()


def shard_main(conn, index: int, payload: Dict[str, Any]) -> None:
    """Child-process entry: build (or recover) the worker, serve the pipe.

    ``payload`` carries either ``fragment`` + ``config`` (fresh start) or
    ``directory`` + ``config`` (recovery).  A failure during construction
    is reported as the response to the *first* request rather than a
    silent death, so the router raises a typed error instead of hanging.
    """
    worker = None
    boot_error: Optional[BaseException] = None
    try:
        if "directory" in payload:
            worker = ShardWorker.recover(index, payload["directory"], payload.get("config"))
        else:
            worker = ShardWorker(index, payload["fragment"], payload.get("config"))
    except BaseException as exc:
        boot_error = exc
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                break
            if worker is None:
                conn.send({"ok": False, "error": boot_error})
                continue
            response = worker.handle(request)
            try:
                conn.send(response)
            except Exception:
                # An unpicklable result/error: degrade to a string error.
                detail = response.get("error") or response.get("result")
                conn.send({"ok": False, "error": ReproError(f"unpicklable shard response: {detail!r}")})
            if request.get("cmd") == "close":
                break
    finally:
        conn.close()
