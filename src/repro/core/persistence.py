"""Fixpoint-state persistence.

A production dynamic-graph service computes the batch fixpoint once and
then answers update batches for days; it must survive restarts without
re-running the batch algorithm.  This module serializes a
:class:`~repro.core.state.FixpointState` — values, timestamps, clock —
to JSON.

Keys and values of status variables can be arbitrary Python objects, so
the encoder handles the shapes this library actually produces: ints,
floats (incl. infinities), strings, booleans, ``None``, and (nested)
tuples — which covers node ids, Sim pairs ``(v, u)``, LCC keys
``('d', v)``, DFS intervals, and parent entries.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, IO, Union

from ..errors import ReproError
from .state import FixpointState

PathLike = Union[str, Path]

#: Version 2: timestamps carry correctness weight.  The repair pass
#: breaks ``<_C`` ties by old timestamp and trusts an earlier-stamped
#: tied input, which is sound only for states whose every non-⊥ value has
#: a support strictly earlier in ``(order_key, timestamp)``
#: (docs/theory.md).  Version-1 states predate that invariant.
_FORMAT_VERSION = 2


def _encode(value: Any) -> Any:
    if isinstance(value, tuple):
        return {"t": [_encode(v) for v in value]}
    if isinstance(value, float):
        # Non-finite floats are spelled out as strings: the JSON spec has
        # no NaN/Infinity literals, and json.dumps would otherwise emit
        # the non-standard ``NaN`` token that strict parsers reject.
        if math.isnan(value):
            return {"f": "nan"}
        if math.isinf(value):
            return {"f": "inf" if value > 0 else "-inf"}
        return {"f": value}
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    raise ReproError(f"cannot persist value of type {type(value).__name__}: {value!r}")


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "t" in value:
            return tuple(_decode(v) for v in value["t"])
        if "f" in value:
            raw = value["f"]
            if raw == "inf":
                return math.inf
            if raw == "-inf":
                return -math.inf
            if raw == "nan":
                return math.nan
            return float(raw)
        raise ReproError(f"unknown encoded value {value!r}")
    return value


def dump_state(state: FixpointState, target: Union[PathLike, IO[str]]) -> None:
    """Serialize ``state`` to ``target`` (path or open text file).

    >>> import io
    >>> from repro.core.state import FixpointState
    >>> s = FixpointState(); s.seed('x', 1.5); s.set('x', float('inf'))
    >>> buf = io.StringIO(); dump_state(s, buf)
    >>> _ = buf.seek(0); load_state(buf).values['x']
    inf
    """
    doc = {
        "version": _FORMAT_VERSION,
        "clock": state.clock,
        "rounds": state.rounds,
        "entries": [
            [_encode(key), _encode(value), state.timestamps.get(key, -1)]
            for key, value in state.values.items()
        ],
    }
    if hasattr(target, "write"):
        json.dump(doc, target)
    else:
        with open(target, "w") as f:
            json.dump(doc, f)


def load_state(source: Union[PathLike, IO[str]]) -> FixpointState:
    """Deserialize a state written by :func:`dump_state`."""
    if hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as f:
            doc = json.load(f)
    if doc.get("version") != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported state format version {doc.get('version')!r}; this "
            f"build reads version {_FORMAT_VERSION}.  The file was written "
            "by an incompatible release (version 1 predates the timestamp "
            "tie-break of the repair order) — re-run the batch algorithm "
            "to regenerate the state."
        )
    state = FixpointState()
    for raw_key, raw_value, timestamp in doc["entries"]:
        key = _decode(raw_key)
        state.values[key] = _decode(raw_value)
        state.timestamps[key] = timestamp
    state.clock = doc["clock"]
    state.rounds = doc.get("rounds", 0)
    return state
