"""Scalar kernel engines for hot fixpoint loops.

This package lowers push-capable node-keyed specs onto encoded scalar
values: a :class:`~repro.kernels.spec.KernelSpec` declares the scalar
combine a spec's ``edge_candidate`` reduces to,
:mod:`repro.kernels.engine` runs batch fixpoints on dense row dicts
(:func:`~repro.kernels.engine.dense_rows`), and
:mod:`repro.kernels.incremental` resumes them across update batches on
node-keyed values over the graph's own adjacency dicts.  Both share one
lowering (:func:`~repro.kernels.engine.lower`) and one scalar heap/FIFO
push loop (:func:`~repro.kernels.engine.drain`), which the batch engine
seeds at the source (or at every node) and the incremental engine runs
after each repair.  Selection is
automatic (the ``engine="auto"`` default of the core drivers);
everything here falls back to the generic interpreter rather than guess
— see ``docs/performance.md``.
"""

from .engine import try_run_batch, unsupported_reason
from .incremental import KernelContext, build_context, kernel_apply
from .spec import (
    ADD,
    ANCHORS,
    BOOL,
    COMBINES,
    COPY,
    DOMAINS,
    FLOAT,
    MAXNEG,
    NODE,
    TIMESTAMP,
    VALUE,
    KernelSpec,
    candidate,
    decode_value,
    encode_value,
)

__all__ = [
    "ADD",
    "ANCHORS",
    "BOOL",
    "COMBINES",
    "COPY",
    "DOMAINS",
    "FLOAT",
    "MAXNEG",
    "NODE",
    "TIMESTAMP",
    "VALUE",
    "KernelSpec",
    "KernelContext",
    "build_context",
    "candidate",
    "decode_value",
    "encode_value",
    "kernel_apply",
    "try_run_batch",
    "unsupported_reason",
]
