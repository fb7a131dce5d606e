"""Smoke tests for the experiment harness (tiny scales, record checks)."""

import pytest

from repro.bench import (
    ALL_SETUPS,
    ablation_push,
    ablation_scope,
    exp1_aff,
    exp1_unit_updates,
    exp2_temporal,
    exp2_vary_delta,
    exp3_scalability,
    exp4_memory,
    table1,
    undirected_view,
)
from repro.bench.tables import markdown_table
from repro.graph import from_edges

TINY = 0.06


class TestTables:
    def test_markdown_table_formats_cells(self):
        text = markdown_table(["a", "bb"], [[1, 2.5], ["xxx", 0.0001], ["n", float("nan")]])
        lines = text.splitlines()
        assert lines[:2] == ["| a | bb |", "|---|---|"]
        assert lines[2:] == ["| 1 | 2.50 |", "| xxx | 0.0001 |", "| n | - |"]


class TestHelpers:
    def test_undirected_view(self):
        g = from_edges([(0, 1), (1, 0), (1, 2)], directed=True)
        u = undirected_view(g)
        assert not u.directed
        assert u.num_edges == 2

    def test_all_setups_cover_five_classes(self):
        assert set(ALL_SETUPS) == {"SSSP", "CC", "Sim", "DFS", "LCC"}
        for setup in ALL_SETUPS.values():
            assert callable(setup.batch_factory)


@pytest.mark.slow
class TestExperimentsSmoke:
    """Each experiment runs at miniature scale and yields plausible records."""

    def test_table1(self):
        records = table1(scale=TINY, repeats=2)
        assert [r["query_class"] for r in records] == ["SSSP", "Sim", "LCC"]
        for r in records:
            assert r["batch_ms"] > 0 and r["repeats"] == 2 and r["inc_spread"] >= 1.0

    def test_exp1_unit_updates(self):
        records = exp1_unit_updates("SSSP", scale=TINY, n_updates=4, datasets=("LJ", "DP"))
        assert [r["dataset"] for r in records] == ["LJ", "DP"]
        assert all(r["changed"] == 1 and r["inc_ins_ms"] > 0 for r in records)

    def test_exp1_aff_reports_boundedness(self):
        records = exp1_aff(scale=TINY, samples=2)
        assert {r["query_class"] for r in records} == {"SSSP", "CC", "Sim", "LCC"}
        assert all(r["scope_bounded"] for r in records)

    def test_exp2_vary_delta(self):
        records = exp2_vary_delta("CC", "OKT", (0.02, 0.08), scale=TINY, repeats=1)
        assert [r["delta_pct"] for r in records] == [2.0, 8.0]
        assert records[0]["changed"] < records[1]["changed"]

    def test_exp2_temporal(self):
        records = exp2_temporal(scale=TINY, months=2, repeats=1)
        assert [r["query_class"] for r in records] == ["SSSP", "CC", "Sim"]
        assert all(0.0 <= r["h_share_pct"] <= 100.0 for r in records)

    def test_exp3_scalability_rows_grow(self):
        records = exp3_scalability("SSSP", node_counts=(60, 120), repeats=1)
        assert records[1]["graph_size"] > records[0]["graph_size"]

    def test_exp4_memory(self):
        records = exp4_memory(scale=TINY)
        assert len(records) == 5
        assert all(r["batch_mb"] > 0 for r in records)

    def test_ablation_scope_shows_flooding(self):
        records = ablation_scope(scale=TINY, samples=2)
        assert all(r["access_ratio"] >= 1.0 for r in records)

    def test_ablation_push_rows(self):
        records = ablation_push(scale=TINY, repeats=1)
        assert [r["name"] for r in records] == ["ablation_push_batch", "ablation_push_inc"]
        assert all(r["push_ms"] > 0 and r["pull_ms"] > 0 for r in records)
