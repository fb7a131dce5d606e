"""Correctness gate: served answers against textbook oracles.

A read reports the sequence number ``seq`` its answer is consistent
with; its expected answer is the oracle on the initial graph after the
acknowledged writes ``0..seq``.  Write sequence numbers must be unique
and gap-free from 0.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import reference

#: Standing queries of the serve workloads: name -> (algorithm, source).
QUERIES = {"cc": ("CC", None), "d0": ("SSSP", 0), "w0": ("SSWP", 0)}


def register_args() -> List[str]:
    args = []
    for name, (algorithm, source) in QUERIES.items():
        args += ["--register", f"{name}={algorithm}" + ("" if source is None else f":{source}")]
    return args


def _wire(values: Dict[int, float]) -> Dict[str, object]:
    return {str(v): ("inf" if math.isinf(x) else x) for v, x in values.items()}


def expected(adj: reference.Adj, query: str):
    algorithm, source = QUERIES[query]
    if algorithm == "CC":
        return reference.components(adj)
    if algorithm == "SSSP":
        return _wire(reference.sssp(adj, source))
    return _wire(reference.widest(adj, source))


def matches(query: str, answer, want) -> bool:
    if QUERIES[query][0] == "CC":
        return reference.partition_of({int(v): c for v, c in answer.items()}) == want
    return answer == want


def verify_serve(nodes: int, edges, writes: List[Tuple[int, list]],
                 reads: List[Tuple[str, int, object]]) -> List[str]:
    """``writes`` are ``(seq, ops)`` of acknowledged writes; ``reads`` are
    ``(query, seq, wire answer)``.  Returns the problems found (empty
    when every answer is right)."""
    problems = []
    seqs = sorted(seq for seq, _ops in writes)
    if seqs != list(range(len(seqs))):
        dupes = len(seqs) - len(set(seqs))
        problems.append(
            f"write seqs are not unique and gap-free from 0 ({dupes} duplicate(s), "
            f"{len(seqs)} writes, max seq {seqs[-1] if seqs else None})"
        )
        return problems
    by_seq = dict(writes)
    adj = reference.adjacency(range(nodes), edges)
    current = -1
    cache: Dict[Tuple[str, int], object] = {}
    for query, seq, answer in sorted(reads, key=lambda r: r[1]):
        if seq > len(seqs) - 1:
            problems.append(f"read of {query} reports seq {seq} beyond the last write")
            continue
        while current < seq:
            current += 1
            reference.apply_ops(adj, by_seq[current])
        if (query, seq) not in cache:
            cache[query, seq] = expected(adj, query)
        if not matches(query, answer, cache[query, seq]):
            problems.append(f"read of {query} at seq {seq} differs from the oracle")
    return problems[:10]
