"""Atomic session checkpoints: graph + every query's fixpoint state.

A checkpoint is one JSON document capturing everything
:meth:`DynamicGraphSession.recover <repro.session.DynamicGraphSession.recover>`
needs to rebuild a session without re-running any batch algorithm:

* the reference graph (nodes, labels, edges, weights, directedness);
* per registered query: its name, algorithm-pair name, query object
  (a node id, ``None``, or a pattern :class:`~repro.graph.graph.Graph`
  for Sim), quarantine flag, and its :class:`FixpointState` — embedded
  via the existing persistence format
  (:func:`repro.core.persistence.dump_state`), so timestamps of the
  weakly deducible algorithms survive;
* the WAL sequence number the checkpoint is consistent with — recovery
  replays only WAL records *after* it.

Writes go to a temp file in the same directory followed by
``os.replace``, so a crash mid-checkpoint (the ``checkpoint.mid-write``
fault site) leaves the previous checkpoint intact and recovery simply
replays a longer WAL tail.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..core.persistence import _decode, _encode, dump_state, load_state
from ..core.state import FixpointState
from ..errors import RecoveryError, ReproError
from ..graph.graph import Graph
from .faults import inject

PathLike = Union[str, Path]

_CHECKPOINT_VERSION = 1

CHECKPOINT_FILE = "checkpoint.json"
WAL_FILE = "wal.jsonl"
#: Manifest marking a *sharded* session directory (see repro.parallel);
#: plain-session recovery refuses directories holding one.
SHARDING_FILE = "sharding.json"


# ----------------------------------------------------------------------
# Graph and query (de)serialization
# ----------------------------------------------------------------------
def graph_to_doc(graph: Graph) -> Dict[str, Any]:
    """A JSON-safe document for a whole graph, labels and weights included."""
    nodes = []
    for v in graph.nodes():
        label = graph.node_label(v)
        nodes.append([_encode(v), _encode(label)])
    edges = []
    for u, v in graph.edges():
        edges.append(
            [
                _encode(u),
                _encode(v),
                _encode(float(graph.weight(u, v))),
                _encode(graph.edge_label(u, v)),
            ]
        )
    return {"directed": graph.directed, "nodes": nodes, "edges": edges}


def graph_from_doc(doc: Dict[str, Any]) -> Graph:
    """Inverse of :func:`graph_to_doc`."""
    graph = Graph(directed=bool(doc["directed"]))
    for raw_node, raw_label in doc["nodes"]:
        graph.ensure_node(_decode(raw_node), label=_decode(raw_label))
    for raw_u, raw_v, raw_w, raw_label in doc["edges"]:
        graph.add_edge(
            _decode(raw_u), _decode(raw_v), weight=_decode(raw_w), label=_decode(raw_label)
        )
    return graph


def query_to_doc(query: Any) -> Dict[str, Any]:
    """Encode a query object: a hashable key or a pattern graph (Sim)."""
    if isinstance(query, Graph):
        return {"graph": graph_to_doc(query)}
    return {"key": _encode(query)}


def query_from_doc(doc: Dict[str, Any]) -> Any:
    if "graph" in doc:
        return graph_from_doc(doc["graph"])
    return _decode(doc["key"])


def _state_to_doc(state: FixpointState) -> Dict[str, Any]:
    buffer = io.StringIO()
    dump_state(state, buffer)
    return json.loads(buffer.getvalue())


def _state_from_doc(doc: Dict[str, Any]) -> FixpointState:
    return load_state(io.StringIO(json.dumps(doc)))


# ----------------------------------------------------------------------
# Checkpoint write / load
# ----------------------------------------------------------------------
def write_checkpoint(directory: PathLike, graph: Graph, queries, seq: int) -> Path:
    """Atomically persist the session snapshot; returns the checkpoint path.

    ``queries`` is an iterable of ``RegisteredQuery``-shaped objects
    (``name`` / ``algorithm`` / ``query`` / ``state`` / ``quarantined``).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": _CHECKPOINT_VERSION,
        "seq": seq,
        "graph": graph_to_doc(graph),
        "queries": [
            {
                "name": registered.name,
                "algorithm": registered.algorithm,
                "query": query_to_doc(registered.query),
                "quarantined": bool(getattr(registered, "quarantined", False)),
                "state": _state_to_doc(registered.state),
            }
            for registered in queries
        ],
    }
    target = directory / CHECKPOINT_FILE
    write_json_atomic(target, doc, site="checkpoint.mid-write")
    return target


def write_json_atomic(target: Path, doc: Any, site: Optional[str] = None) -> None:
    """Replace ``target`` with ``doc`` as JSON, never leaving it torn.

    Writes a temp file in the same directory, fsyncs it, then
    ``os.replace``-s it over ``target``; ``site`` names the fault site
    fired between the fsync and the rename.
    """
    temp = target.with_name(target.name + ".tmp")
    with open(temp, "w") as f:
        json.dump(doc, f)
        f.flush()
        os.fsync(f.fileno())
    if site is not None:
        inject(site)
    os.replace(temp, target)


def load_checkpoint(directory: PathLike) -> Dict[str, Any]:
    """Load and decode a checkpoint document.

    Returns ``{"seq", "graph": Graph, "queries": [...]}`` with each query
    entry carrying a decoded ``query`` object and ``state``.
    """
    directory = Path(directory)
    path = directory / CHECKPOINT_FILE
    if not path.exists():
        raise RecoveryError(
            f"no checkpoint at {path}; a session must be created with a "
            "durable directory before it can be recovered"
        )
    try:
        with open(path) as f:
            doc = json.load(f)
    except ValueError as exc:
        raise RecoveryError(f"corrupt checkpoint {path}: {exc}") from None
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise RecoveryError(
            f"unsupported checkpoint version {doc.get('version')!r}; this "
            f"build reads version {_CHECKPOINT_VERSION}"
        )
    try:
        return {
            "seq": doc["seq"],
            "graph": graph_from_doc(doc["graph"]),
            "queries": [
                {
                    "name": q["name"],
                    "algorithm": q["algorithm"],
                    "query": query_from_doc(q["query"]),
                    "quarantined": bool(q.get("quarantined", False)),
                    "state": _state_from_doc(q["state"]),
                }
                for q in doc["queries"]
            ],
        }
    except (KeyError, TypeError, ReproError) as exc:
        raise RecoveryError(f"malformed checkpoint {path}: {exc!r}") from None
