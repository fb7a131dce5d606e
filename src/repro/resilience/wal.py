"""Write-ahead logging of update batches.

A durable session appends every validated batch to a JSON-lines log
*before* mutating any state, so a crash at any later point loses
nothing: recovery replays the WAL tail onto the last checkpoint
(:mod:`repro.resilience.checkpoint`) and arrives at exactly the fixpoint
a from-scratch batch run on the final graph would produce (Lemma 2 —
the replayed incremental applies converge to the same fixpoints).

Record format — one JSON object per line:

* ``{"v": 1, "seq": n, "ops": [...]}`` — a batch, in apply order;
* ``{"v": 1, "abort": n}`` — batch ``n`` was logged but its window
  failed with the session still alive, so it was never committed;
  recovery must skip it.

Update encoding reuses the persistence module's value encoder, so node
ids and labels may be anything :func:`repro.core.persistence._encode`
accepts (ints, floats incl. non-finite, strings, bools, ``None``,
nested tuples).

Torn tails are expected, not fatal: a crash mid-append leaves a final
line that is not valid JSON (the ``wal.mid-append`` fault site tears a
record deterministically for the tests).  :meth:`WriteAheadLog.replay`
drops a malformed *final* line and reports it; a malformed line in the
middle of the log — silent corruption, not a torn write — raises
:class:`~repro.errors.RecoveryError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from ..core.persistence import _decode, _encode
from ..errors import RecoveryError, ReproError
from ..graph.updates import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from .faults import inject

PathLike = Union[str, Path]

_WAL_VERSION = 1


def encode_update(update: Update) -> Dict[str, Any]:
    """One unit update as a JSON-safe dict."""
    if isinstance(update, EdgeInsertion):
        return {
            "op": "+e",
            "u": _encode(update.u),
            "v": _encode(update.v),
            "w": _encode(float(update.weight)),
            "l": _encode(update.label),
        }
    if isinstance(update, EdgeDeletion):
        return {"op": "-e", "u": _encode(update.u), "v": _encode(update.v)}
    if isinstance(update, VertexInsertion):
        return {
            "op": "+v",
            "v": _encode(update.v),
            "l": _encode(update.label),
            "edges": [encode_update(e) for e in update.edges],
        }
    if isinstance(update, VertexDeletion):
        return {"op": "-v", "v": _encode(update.v)}
    raise ReproError(f"cannot log update of type {type(update).__name__}")


def decode_update(doc: Dict[str, Any]) -> Update:
    """Inverse of :func:`encode_update`."""
    op = doc.get("op")
    if op == "+e":
        return EdgeInsertion(
            _decode(doc["u"]), _decode(doc["v"]), weight=_decode(doc["w"]), label=_decode(doc["l"])
        )
    if op == "-e":
        return EdgeDeletion(_decode(doc["u"]), _decode(doc["v"]))
    if op == "+v":
        return VertexInsertion(
            _decode(doc["v"]),
            label=_decode(doc["l"]),
            edges=tuple(decode_update(e) for e in doc.get("edges", ())),
        )
    if op == "-v":
        return VertexDeletion(_decode(doc["v"]))
    raise RecoveryError(f"unknown WAL op {op!r}")


def encode_batch(delta: Batch) -> List[Dict[str, Any]]:
    return [encode_update(u) for u in delta]


def decode_batch(ops: List[Dict[str, Any]]) -> Batch:
    return Batch([decode_update(doc) for doc in ops])


class WriteAheadLog:
    """Append-only JSON-lines log of update batches."""

    def __init__(self, path: PathLike, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._file: Optional[IO[str]] = open(self.path, "a")

    # ------------------------------------------------------------------
    def _write_record(self, payload: str) -> None:
        if self._file is None:
            raise ReproError(f"WAL {self.path} is closed")
        # The record is written in two halves with a fault site between
        # them, so tests can tear a write exactly where a crash would;
        # the first half is flushed so the tear is visible on disk.
        half = len(payload) // 2
        self._file.write(payload[:half])
        self._file.flush()
        inject("wal.mid-append")
        self._file.write(payload[half:] + "\n")
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())

    def append(self, seq: int, delta: Batch) -> None:
        """Durably record batch ``seq`` before it is applied anywhere."""
        self._write_record(
            json.dumps({"v": _WAL_VERSION, "seq": seq, "ops": encode_batch(delta)})
        )

    def abort(self, seq: int) -> None:
        """Record that batch ``seq`` was rolled back; replay must skip it."""
        self._write_record(json.dumps({"v": _WAL_VERSION, "abort": seq}))

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # ------------------------------------------------------------------
    @classmethod
    def replay(
        cls, path: PathLike, after_seq: int = -1
    ) -> Tuple[List[Tuple[int, Batch]], bool]:
        """Read back the batches with ``seq > after_seq``, in order.

        Returns ``(entries, torn_tail)``: aborted sequence numbers are
        skipped, and a malformed final line — the signature of a crash
        mid-append — is dropped with ``torn_tail = True``.  Malformed
        non-final lines raise :class:`~repro.errors.RecoveryError`.
        """
        path = Path(path)
        if not path.exists():
            return [], False
        raw_lines = path.read_text().split("\n")
        if raw_lines and raw_lines[-1] == "":
            raw_lines.pop()
        records: List[Dict[str, Any]] = []
        torn = False
        for lineno, line in enumerate(raw_lines):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict) or doc.get("v") != _WAL_VERSION:
                    raise ValueError(f"unsupported WAL record version {doc!r}")
            except ValueError as exc:
                if lineno == len(raw_lines) - 1:
                    torn = True
                    break
                raise RecoveryError(
                    f"{path}:{lineno + 1}: corrupt WAL record ({exc})"
                ) from None
            records.append(doc)
        aborted = {doc["abort"] for doc in records if "abort" in doc}
        entries: List[Tuple[int, Batch]] = []
        for doc in records:
            if "abort" in doc:
                continue
            seq = doc.get("seq")
            if not isinstance(seq, int):
                raise RecoveryError(f"{path}: WAL record without a seq: {doc!r}")
            if seq <= after_seq or seq in aborted:
                continue
            entries.append((seq, decode_batch(doc["ops"])))
        entries.sort(key=lambda pair: pair[0])
        return entries, torn

    @classmethod
    def last_seq(cls, path: PathLike) -> int:
        """The highest sequence number recorded (appended or aborted)."""
        path = Path(path)
        if not path.exists():
            return -1
        best = -1
        for line in path.read_text().split("\n"):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn tail
            seq = doc.get("seq", doc.get("abort"))
            if isinstance(seq, int) and seq > best:
                best = seq
        return best

    def __repr__(self) -> str:
        return f"WriteAheadLog({str(self.path)!r})"
