"""The JSON-lines wire protocol of the query service.

One request per line, one response per line, both JSON objects.  The
five verbs mirror :class:`~repro.serve.service.QueryService`'s public
API:

====================  =================================================
request               fields
====================  =================================================
``register``          ``name``, ``algorithm``, ``query`` (encoded),
                      optional ``deadline`` (seconds)
``query``             ``name``
``update``            ``ops`` (list of encoded unit updates, the WAL
                      encoding), optional ``deadline``
``watch``             ``name``, ``after_version``, optional ``timeout``
``stats``             optional ``reset`` (default true)
``ping``              —
====================  =================================================

Responses carry ``{"ok": true, ...}`` on success and
``{"ok": false, "error": {"type", "message"}}`` on failure, where
``type`` is the exception class name (``Overloaded``, ``Deadline``,
``UnknownNodeError``, ...) so clients re-raise typed errors without
parsing messages.

Update encoding reuses the WAL record format
(:func:`repro.resilience.wal.encode_update`), and scalar values the
persistence encoder — the same ``{"f": "inf"}`` non-finite handling the
checkpoints use — so anything a durable session can log, a client can
send.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Union

from ..core.persistence import _decode, _encode
from ..errors import ReproError
from ..graph.updates import Batch
from ..resilience.checkpoint import graph_from_doc, graph_to_doc
from ..resilience.wal import decode_update, encode_update
from .state import AnswerSnapshot

PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Answer encoding (JSON-safe views of extracted Q(G))
# ----------------------------------------------------------------------
def jsonable(answer: Any) -> Any:
    """A JSON-safe rendering of any built-in algorithm's answer.

    Dict keys become strings, sets become sorted lists, ``inf`` becomes
    the string ``"inf"`` (matching the CLI's output conventions), and
    DFS results render as their three component maps.
    """
    if isinstance(answer, dict):
        return {str(k): jsonable(v) for k, v in answer.items()}
    if isinstance(answer, (set, frozenset)):
        return sorted([jsonable(v) for v in answer], key=str)
    if isinstance(answer, tuple):
        return [jsonable(v) for v in answer]
    if isinstance(answer, float) and answer == float("inf"):
        return "inf"
    if hasattr(answer, "first") and hasattr(answer, "parent"):  # DFSResult
        return {
            "first": jsonable(answer.first),
            "last": jsonable(answer.last),
            "parent": jsonable(answer.parent),
        }
    return answer


def encode_query(query: Any) -> Dict[str, Any]:
    """Encode a query object: a hashable key or a pattern graph (Sim)."""
    if hasattr(query, "nodes") and hasattr(query, "edges"):  # a Graph
        return {"graph": graph_to_doc(query)}
    return {"key": _encode(query)}


def decode_query(doc: Optional[Dict[str, Any]]) -> Any:
    if doc is None:
        return None
    if "graph" in doc:
        return graph_from_doc(doc["graph"])
    return _decode(doc.get("key"))


def snapshot_response(snapshot: AnswerSnapshot) -> Dict[str, Any]:
    return {
        "ok": True,
        "name": snapshot.name,
        "algorithm": snapshot.algorithm,
        "seq": snapshot.seq,
        "version": snapshot.version,
        "changed": snapshot.changed,
        "answer": jsonable(snapshot.answer),
    }


def snapshot_line(snapshot: AnswerSnapshot) -> str:
    """``json.dumps(snapshot_response(snapshot))``, encoding the answer
    at most once per answer object.

    The answer's JSON text lives in the snapshot's memo, which every
    snapshot sharing the answer shares; a miss encodes it through
    :func:`snapshot_response`.  A hit only encodes the small header.
    """
    memo = snapshot.memo
    text = memo.text
    if text is None:
        text = json.dumps(snapshot_response(snapshot)["answer"])
        memo.text = text
    header = json.dumps({"ok": True, **snapshot.as_dict()})  # snapshot_response's key order
    return header[:-1] + ', "answer": ' + text + "}"


def error_response(exc: BaseException) -> Dict[str, Any]:
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


# ----------------------------------------------------------------------
# Request dispatch (shared by the TCP server and in-process harnesses)
# ----------------------------------------------------------------------
def _dispatch(service, doc: Dict[str, Any]) -> Union[AnswerSnapshot, Dict[str, Any]]:
    """Execute one decoded request; the answer verbs return their snapshot."""
    verb = doc.get("op")
    if verb == "ping":
        return {"ok": True, "protocol": PROTOCOL_VERSION}
    if verb == "register":
        return service.register(
            str(doc["name"]),
            str(doc["algorithm"]),
            query=decode_query(doc.get("query")),
            deadline=doc.get("deadline"),
        )
    if verb == "query":
        return service.read(str(doc["name"]))
    if verb == "update":
        batch = Batch([decode_update(op) for op in doc["ops"]])
        seq = service.update(batch, deadline=doc.get("deadline"))
        return {"ok": True, "seq": seq, "ops": len(batch)}
    if verb == "watch":
        return service.watch(
            str(doc["name"]),
            after_version=int(doc.get("after_version", -1)),
            timeout=doc.get("timeout"),
        )
    if verb == "unregister":
        service.unregister(str(doc["name"]), deadline=doc.get("deadline"))
        return {"ok": True}
    if verb == "stats":
        return {"ok": True, "stats": service.stats(reset_window=bool(doc.get("reset", True)))}
    raise ReproError(f"unknown protocol verb {verb!r}")


def handle_request(service, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one decoded request against a service; never raises.

    Protocol errors (unknown verb, malformed fields) and service errors
    (Overloaded, Deadline, validation failures) all come back as typed
    error responses — a misbehaving client must not kill its connection
    handler, let alone the service.
    """
    try:
        result = _dispatch(service, doc)
        if isinstance(result, AnswerSnapshot):
            return snapshot_response(result)
        return result
    except Exception as exc:  # typed error surface, connection survives
        return error_response(exc)


def handle_line(service, line: str) -> str:
    """One request line in, one response line out (no trailing newline).

    Byte-identical to ``json.dumps(handle_request(service, doc))``, but
    an answer is spliced from its memo (:func:`snapshot_line`).
    """
    try:
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise ValueError("request must be a JSON object")
    except ValueError as exc:
        return json.dumps(error_response(ReproError(f"malformed request: {exc}")))
    try:
        result = _dispatch(service, doc)
        if isinstance(result, AnswerSnapshot):
            return snapshot_line(result)
    except Exception as exc:  # typed error surface, connection survives
        result = error_response(exc)
    return json.dumps(result)
