"""The five incrementalized query classes of Sections 3–5.

Each module pairs a batch fixpoint algorithm ``A`` with its deduced
incremental counterpart ``A_Δ``:

=========  ==========================  ====================  ================
Query      Batch ``A``                 Deduced ``A_Δ``        Deducibility
=========  ==========================  ====================  ================
SSSP       :class:`Dijkstra`           :class:`IncSSSP`      deducible
CC         :class:`CCfp`               :class:`IncCC`        weakly deducible
Sim        :class:`Simfp`              :class:`IncSim`       weakly deducible
DFS        :class:`DFSfp`              :class:`IncDFS`       deducible
LCC        :class:`LCCfp`              :class:`IncLCC`       deducible
=========  ==========================  ====================  ================
"""

from .cc import CCfp, CCSpec, IncCC, cc
from .coreness import CorenessFp, CorenessSpec, IncCoreness, coreness, h_index
from .dfs import DFSfp, DFSResult, IncDFS, dfs, has_cycle, topological_order
from .lcc import IncLCC, LCCfp, LCCSpec, lcc
from .reach import IncReach, Reachability, ReachSpec, reach
from .sim import IncSim, SimSpec, Simfp, sim
from .sssp import Dijkstra, IncSSSP, SSSPSpec, sssp
from .sswp import IncSSWP, SSWPSpec, WidestPath, sswp

__all__ = [
    "CCSpec",
    "CCfp",
    "CorenessFp",
    "CorenessSpec",
    "DFSResult",
    "DFSfp",
    "Dijkstra",
    "IncCC",
    "IncCoreness",
    "IncDFS",
    "IncLCC",
    "IncReach",
    "IncSSSP",
    "IncSSWP",
    "IncSim",
    "LCCSpec",
    "LCCfp",
    "Reachability",
    "ReachSpec",
    "SSSPSpec",
    "SSWPSpec",
    "SimSpec",
    "Simfp",
    "WidestPath",
    "cc",
    "coreness",
    "dfs",
    "h_index",
    "has_cycle",
    "lcc",
    "reach",
    "sim",
    "sssp",
    "sswp",
    "topological_order",
]
