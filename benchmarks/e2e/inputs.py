"""Seeded inputs of the end-to-end benchmark.

Everything a workload feeds the program is made here from ``--seed``
with :class:`random.Random`, so the workloads stay fixed even when
``repro.generators`` or ``repro.serve.loadgen`` change.  Graphs are plain
edge lists of ``(u, v, weight)`` with integer node ids and integral
weights (sums of integral floats are exact, so the oracles agree with the
program bit for bit).  Updates are tuples: ``("+e", u, v, w)`` inserts
an edge and ``("-e", u, v)`` deletes one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

Edge = Tuple[int, int, float]
Op = tuple

LABELS = ("a", "b", "c", "d", "e")


def preferential_attachment(n: int, m: int, rng: random.Random) -> List[Edge]:
    """Undirected preferential attachment: a clique on ``m + 1`` seeds,
    then each new node links to ``m`` distinct degree-weighted targets."""
    edges: List[Edge] = []
    ends: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            edges.append((u, v, float(rng.randint(1, 10))))
            ends += (u, v)
    for u in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(ends))
        for v in sorted(targets):
            edges.append((v, u, float(rng.randint(1, 10))))
            ends += (u, v)
    return edges


def edge_key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def write_edge_list(edges: List[Edge], path) -> None:
    with open(path, "w") as f:
        f.write("# undirected\n")
        for u, v, w in edges:
            f.write(f"{u} {v} {w}\n")


def mixed_batch(live: Dict[Tuple[int, int], float], nodes: int, size: int,
                rng: random.Random) -> List[Op]:
    """``size`` edge updates, half deletions of live edges and half
    insertions of absent ones; ``live`` is updated in place so successive
    batches stay consistent with the graph."""
    ops: List[Op] = []
    removed = rng.sample(sorted(live), size // 2)
    for key in removed:
        del live[key]
        ops.append(("-e",) + key)
    removed = set(removed)  # never re-inserted in the same (shuffled) batch
    while len(ops) < size:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        key = edge_key(u, v)
        if u == v or key in live or key in removed:
            continue
        w = float(rng.randint(1, 10))
        live[key] = w
        ops.append(("+e", u, v, w))
    rng.shuffle(ops)
    return ops


def inverse(ops: List[Op], weights: Dict[Tuple[int, int], float]) -> List[Op]:
    """The batch undoing ``ops``; ``weights`` has the deleted edges' weights."""
    return [
        ("+e", op[1], op[2], weights[edge_key(op[1], op[2])]) if op[0] == "-e" else ("-e", op[1], op[2])
        for op in ops
    ]


def sim_pattern(rng: random.Random) -> Tuple[Dict[str, str], List[Tuple[str, str]]]:
    """A connected directed 4-node pattern over :data:`LABELS`: a path
    q0→q1→q2→q3 plus one chord (matches exist on every seed)."""
    labels = {f"q{i}": rng.choice(LABELS) for i in range(4)}
    edges = [("q0", "q1"), ("q1", "q2"), ("q2", "q3")]
    edges.append(rng.choice([("q3", "q0"), ("q0", "q2"), ("q1", "q3"), ("q2", "q0")]))
    return labels, edges


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One scheduled wire request of the open-loop generator."""

    at: float          #: scheduled send time, seconds from the phase start
    conn: int          #: connection index
    kind: str          #: "read" or "write"
    query: str = ""    #: read: query name
    ops: List[Op] = field(default_factory=list)  #: write: the update batch


def hub_nodes(edges: List[Edge], count: int) -> List[int]:
    degree: Dict[int, int] = {}
    for u, v, _w in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return sorted(degree, key=lambda x: (-degree[x], x))[:count]


@dataclass
class ServeGraph:
    """The served graph: a preferential-attachment core plus private
    writer vertices, each linked to a few of the highest-degree hubs."""

    nodes: int
    edges: List[Edge]
    hubs: List[int]
    writers: Dict[int, Dict[int, float]]  #: writer vertex -> {hub: weight}


def serve_graph(rng: random.Random, n: int = 1500, m: int = 7, hubs: int = 32,
                writers: int = 16, links: int = 4, leaves: bool = False) -> ServeGraph:
    """``leaves=True`` attaches the writers to the lowest-degree nodes
    instead of the hubs, so their moves seldom reach other answers."""
    core = preferential_attachment(n, m, rng)
    ranked = hub_nodes(core, n)
    top = ranked[-hubs:] if leaves else ranked[:hubs]
    private = {
        n + k: {h: float(rng.randint(1, 10)) for h in rng.sample(top, links)}
        for k in range(writers)
    }
    extra = [(h, x, w) for x, links_of in private.items() for h, w in links_of.items()]
    return ServeGraph(n + writers, core + extra, top, private)


def serve_schedule(graph: ServeGraph, queries: List[str], rate: float, read_fraction: float,
                   seconds: float, connections: int, rng: random.Random) -> List[Request]:
    """An open-loop schedule of ``rate * seconds`` requests at fixed
    spacing.  A read names a query uniformly at random.  A write moves
    one edge of a writer vertex from one hub to another (a deletion and
    an insertion in one batch), so every write has the same shape and any
    interleaving of writers stays valid.  Writer ``x`` always uses
    connection ``x % connections``, so its own moves commit in order."""
    links = {x: dict(hubs) for x, hubs in graph.writers.items()}
    order = sorted(links)
    schedule: List[Request] = []
    for i in range(int(rate * seconds)):
        at = i / rate
        if rng.random() < read_fraction:
            schedule.append(Request(at, i % connections, "read", query=rng.choice(queries)))
            continue
        x = rng.choice(order)
        old = rng.choice(sorted(links[x]))
        new = rng.choice([h for h in graph.hubs if h not in links[x]])
        w = float(rng.randint(1, 10))
        del links[x][old]
        links[x][new] = w
        ops = [("-e", x, old), ("+e", new, x, w) if rng.random() < 0.5 else ("+e", x, new, w)]
        schedule.append(Request(at, x % connections, "write", ops=ops))
    return schedule
