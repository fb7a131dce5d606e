"""Declarative scalar kernels for dense fixpoint execution.

The generic engine evaluates ``edge_candidate`` — a Python virtual call —
once per relaxed edge.  For the node-keyed members of Φ that cost is pure
interpreter overhead: each of their candidates is one arithmetic
operation on two floats.  A :class:`KernelSpec` names that operation (and
the value encoding that makes it apply), so the dense engines in
:mod:`repro.kernels.engine` and :mod:`repro.kernels.incremental` can run
the whole propagation loop over dense arrays.

Unified minimizing encoding
---------------------------
Every supported spec is lowered to *minimizing over float64*: values are
encoded so that the spec's partial order ``⪯`` becomes numeric ``≤`` with
the initial value on top, and ``edge_candidate`` becomes one of three
scalar combines:

============  ==========================  ===========================
spec          encoding                    combine (encoded)
============  ==========================  ===========================
SSSP          identity (``∞`` top)        ``ADD``:    ``v + w``
SSWP          negate (``-width``)         ``MAXNEG``: ``max(v, -w)``
CC            ``float(node_id)``          ``COPY``:   ``v``
Reach         ``True → -1.0, False → 0``  ``COPY``:   ``v``
============  ==========================  ===========================

The encoding is monotone (order-preserving), so "candidate improves the
dependent" is uniformly ``candidate < value`` and heap priorities are the
encoded values themselves.  The ``node`` domain additionally needs the
``float`` image of the id space to be collision-free; the engine checks
that when it builds a context and falls back to the generic engine
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Scalar combine operators over the encoded (minimizing) domain.
ADD = "add"        # candidate = value + weight        (min-plus: SSSP)
MAXNEG = "maxneg"  # candidate = max(value, -weight)   (negated max-min: SSWP)
COPY = "copy"      # candidate = value                 (min-label: CC, Reach)
COMBINES = (ADD, MAXNEG, COPY)

#: Value domains, fixing the encode/decode pair.
FLOAT = "float"  # numeric values, encoding decided by the combine
NODE = "node"    # node ids, encoded via float(id) + an exact decode map
BOOL = "bool"    # booleans, True → -1.0 / False → 0.0
DOMAINS = (FLOAT, NODE, BOOL)

#: How the Figure-4 repair queue orders variables (the order ``<_C``).
VALUE = "value"          # deducible: encoded old value (SSSP, SSWP)
TIMESTAMP = "timestamp"  # weakly deducible: old timestamp (CC, Reach)
ANCHORS = (VALUE, TIMESTAMP)


@dataclass(frozen=True)
class KernelSpec:
    """One spec's claim that its ``edge_candidate`` is a scalar combine.

    Attributes
    ----------
    combine:
        The scalar operator (:data:`ADD`, :data:`MAXNEG`, :data:`COPY`)
        that equals ``encode ∘ edge_candidate`` on every edge.
    domain:
        The value domain, fixing the encoding (:data:`FLOAT`,
        :data:`NODE`, :data:`BOOL`).
    prioritized:
        True for heap scheduling by encoded value (Dijkstra-style); false
        for FIFO label propagation.
    anchor:
        How the incremental repair queue derives ``<_C``
        (:data:`VALUE` or :data:`TIMESTAMP`); must match
        ``spec.order_key``.
    has_source:
        True when the query is a source node whose variable is pinned at
        its initial value (SSSP/SSWP/Reach); the engines never relax into
        the source, mirroring the pinned ``edge_candidate`` branch.
    undirected_only:
        True when the spec's dependency structure is the symmetric
        neighborhood (CC): the kernel then requires an undirected graph,
        whose adjacency rows already hold both edge directions.
    """

    combine: str
    domain: str
    prioritized: bool
    anchor: str
    has_source: bool = False
    undirected_only: bool = False

    def __post_init__(self) -> None:
        if self.combine not in COMBINES:
            raise ValueError(f"unknown kernel combine {self.combine!r}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown kernel domain {self.domain!r}")
        if self.anchor not in ANCHORS:
            raise ValueError(f"unknown kernel anchor mode {self.anchor!r}")
        if self.combine in (ADD, MAXNEG) and self.domain is not FLOAT:
            raise ValueError(f"{self.combine} requires the float domain")


def candidate(combine: str, value: float, weight: float) -> float:
    """Evaluate one scalar combine over the encoded domain.

    This is the *entire* per-edge work of the dense engines (they inline
    it in their hot loops); it is exposed as a function so lint rule S008
    can replay it against ``edge_candidate``.
    """
    if combine == ADD:
        return value + weight
    if combine == MAXNEG:
        nw = -weight
        return nw if nw > value else value
    return value


def encode_value(kspec: KernelSpec, value) -> float:
    """Encode one spec-domain value into the minimizing float64 domain.

    ``node``-domain callers must additionally maintain the exact decode
    map (``float(id) → id``); this function only computes the image.
    Raises ``TypeError``/``OverflowError`` on unencodable values — the
    engines catch those and fall back to the generic engine.
    """
    if kspec.domain == BOOL:
        return -1.0 if value else 0.0
    if kspec.domain == NODE:
        return float(value)
    if kspec.combine == MAXNEG:
        return -float(value)
    return float(value)


def decode_value(kspec: KernelSpec, encoded: float, node_decode=None):
    """Invert :func:`encode_value` (``node`` domain needs its decode map)."""
    if kspec.domain == BOOL:
        return encoded != 0.0
    if kspec.domain == NODE:
        return node_decode[encoded]
    if kspec.combine == MAXNEG:
        return -encoded + 0.0  # + 0.0 normalizes -0.0 so decoded dicts compare clean
    return encoded

