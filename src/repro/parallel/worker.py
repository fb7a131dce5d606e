"""The shard worker: one fragment, one durable log, one command loop.

A :class:`ShardWorker` wraps a :class:`~repro.session.DynamicGraphSession`
over its fragment that never registers a query: it exists to keep the
fragment's WAL and checkpoints.  By Theorems 1 and 3 the router's writer
already computes every answer from one ``A_Δ`` run on the global graph,
so a shard holds no query state at all.  The worker answers the small
command vocabulary the router (:mod:`repro.parallel.router`) speaks:

=====================  ===============================================
``apply``              apply a window of sub-batches (one per global
                       batch, possibly empty, so every shard's WAL seq
                       advances in lockstep with the global seq) to the
                       fragment: one ``update_stream`` call
``export_fragment``    the fragment graph (recovery reassembly)
``info``               seq + batches applied (recovery handshake)
``close``              checkpoint (when durable) and stop
=====================  ===============================================

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
    def _cmd_apply(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.session.update_stream(request["batches"])
        return {"seq": self.session.seq}

    def _cmd_export_fragment(self, request: Dict[str, Any]) -> Graph:
        return self.session.graph

    def _cmd_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"seq": self.session.seq, "batches_applied": self.session.batches_applied}

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
