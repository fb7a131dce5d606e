"""Experiment harness: the measurements behind every table and figure of
Section 6, each returning flat registry records.

Run them through the evaluation hub, which records the rows in the run
registry and renders them::

    python -m repro bench run fig6 fig7 fig8 table1 ablation --scale small
    python -m repro bench report
"""

from .experiments import (
    ablation_push,
    ablation_scope,
    exp1_aff,
    exp1_unit_updates,
    exp2_temporal,
    exp2_vary_delta,
    exp3_scalability,
    exp4_memory,
    table1,
)
from .runners import ALL_SETUPS, QueryClassSetup, undirected_view

__all__ = [
    "ALL_SETUPS",
    "QueryClassSetup",
    "ablation_push",
    "ablation_scope",
    "exp1_aff",
    "exp1_unit_updates",
    "exp2_temporal",
    "exp2_vary_delta",
    "exp3_scalability",
    "exp4_memory",
    "table1",
    "undirected_view",
]
