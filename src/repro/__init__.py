"""repro — reproduction of "Incrementalizing Graph Algorithms" (SIGMOD 2021).

The library deduces incremental graph algorithms from batch *fixpoint*
algorithms, with correctness (Theorem 1) and relative boundedness
(Theorem 3) guarantees.  Quickstart::

    from repro import Graph, Batch, EdgeInsertion, Dijkstra, IncSSSP

    g = Graph(directed=True)
    g.add_edge(0, 1, weight=2.0)
    g.add_edge(1, 2, weight=2.0)

    batch = Dijkstra()
    state = batch.run(g, 0)                # fixpoint of the batch run
    print(batch.answer(state, g, 0))       # {0: 0.0, 1: 2.0, 2: 4.0}

    inc = IncSSSP()
    delta = Batch([EdgeInsertion(0, 2, weight=1.0)])
    result = inc.apply(g, state, delta, 0) # ΔO: only node 2 changed
    print(result.changes)                  # {2: (4.0, 1.0)}

Package map
-----------
* :mod:`repro.core` — the fixpoint model, the generic engine, the scope
  function ``h`` of Figure 4, and boundedness verification.
* :mod:`repro.algorithms` — SSSP, CC, Sim, DFS, LCC (batch + deduced).
* :mod:`repro.baselines` — the competing dynamic algorithms of Section 6.
* :mod:`repro.graph` — graphs, updates ΔG, temporal streams, I/O.
* :mod:`repro.generators` — synthetic graphs, update streams, patterns.
* :mod:`repro.datasets` — laptop-scale proxies of the paper's datasets.
* :mod:`repro.bench` — the paper's experiments, run and recorded by the
  ``repro bench`` suites of :mod:`repro.evalhub`.
"""

from .algorithms import (
    CCfp,
    CorenessFp,
    DFSfp,
    DFSResult,
    Dijkstra,
    IncCC,
    IncCoreness,
    IncDFS,
    IncLCC,
    IncReach,
    IncSSSP,
    IncSSWP,
    IncSim,
    LCCfp,
    Reachability,
    Simfp,
    WidestPath,
    cc,
    coreness,
    dfs,
    lcc,
    reach,
    sim,
    sssp,
    sswp,
)
from .core import (
    BatchAlgorithm,
    BoundednessReport,
    FixpointSpec,
    FixpointState,
    IncrementalAlgorithm,
    IncrementalResult,
    compute_aff,
    incrementalize,
    run_batch,
    run_fixpoint,
    verify_relative_boundedness,
)
from .errors import (
    DatasetError,
    FixpointError,
    GraphError,
    IncrementalizationError,
    ReproError,
    UpdateError,
)
from .graph import (
    Batch,
    EdgeDeletion,
    EdgeEvent,
    EdgeInsertion,
    Graph,
    TemporalGraph,
    VertexDeletion,
    VertexInsertion,
    apply_updates,
    from_edges,
    updated_copy,
)
from .session import DynamicGraphSession

__version__ = "1.0.0"

__all__ = [
    "Batch",
    "BatchAlgorithm",
    "BoundednessReport",
    "CCfp",
    "CorenessFp",
    "DFSResult",
    "DFSfp",
    "DatasetError",
    "Dijkstra",
    "DynamicGraphSession",
    "EdgeDeletion",
    "EdgeEvent",
    "EdgeInsertion",
    "FixpointError",
    "FixpointSpec",
    "FixpointState",
    "Graph",
    "GraphError",
    "IncCC",
    "IncCoreness",
    "IncDFS",
    "IncLCC",
    "IncReach",
    "IncSSSP",
    "IncSSWP",
    "IncSim",
    "IncrementalAlgorithm",
    "IncrementalResult",
    "IncrementalizationError",
    "LCCfp",
    "Reachability",
    "ReproError",
    "Simfp",
    "WidestPath",
    "TemporalGraph",
    "UpdateError",
    "VertexDeletion",
    "VertexInsertion",
    "apply_updates",
    "cc",
    "compute_aff",
    "coreness",
    "dfs",
    "from_edges",
    "incrementalize",
    "lcc",
    "reach",
    "run_batch",
    "run_fixpoint",
    "sim",
    "sssp",
    "sswp",
    "updated_copy",
    "verify_relative_boundedness",
]
