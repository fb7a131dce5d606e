"""Tests for FixpointSpec defaults and the bench runner helpers."""

import pytest

from repro.bench.runners import ALL_SETUPS, geometric_mean, time_batch
from repro.core import FixpointSpec, run_batch
from repro.graph import Batch, from_edges


class MinimalSpec(FixpointSpec):
    """A spec implementing only the required model hooks."""

    def variables(self, graph, query):
        return graph.nodes()

    def initial_value(self, key, graph, query):
        return 0

    def update(self, key, value_of, graph, query):
        return 0

    def dependents(self, key, graph, query):
        return ()


class TestSpecDefaults:
    def test_initial_scope_defaults_to_all_variables(self):
        g = from_edges([(0, 1)])
        assert set(MinimalSpec().initial_scope(g, None)) == {0, 1}

    def test_priority_defaults_to_fifo(self):
        assert MinimalSpec().priority(0, 1.0) is None

    def test_order_key_defaults_to_timestamp(self):
        assert MinimalSpec().order_key("x", 42, 7) == 7

    def test_changed_input_keys_unimplemented(self):
        with pytest.raises(NotImplementedError):
            MinimalSpec().changed_input_keys(Batch(), from_edges([]), None)

    def test_anchor_dependents_unimplemented(self):
        with pytest.raises(NotImplementedError):
            MinimalSpec().anchor_dependents("x", None, None, from_edges([]), None)

    def test_edge_candidate_unimplemented(self):
        with pytest.raises(NotImplementedError):
            MinimalSpec().edge_candidate("a", "b", 0, from_edges([]), None)

    def test_vertex_hooks_default_empty(self):
        spec = MinimalSpec()
        assert list(spec.new_variables(Batch(), from_edges([]), None)) == []
        assert list(spec.removed_variables(Batch(), from_edges([]), None)) == []

    def test_relaxation_pairs_default_none(self):
        assert MinimalSpec().relaxation_pairs(Batch(), from_edges([]), None) is None

    def test_repair_seed_keys_defaults_to_changed_inputs(self):
        class WithChanged(MinimalSpec):
            def changed_input_keys(self, delta, graph_new, query):
                return {"seed"}

        g = from_edges([])
        state = run_batch(WithChanged(), g, None)
        assert set(WithChanged().repair_seed_keys(Batch(), g, None, state, {})) == {"seed"}

    def test_extract_defaults_to_value_map(self):
        assert MinimalSpec().extract({1: 2}, from_edges([]), None) == {1: 2}


class TestRunnerHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)  # zeros dropped

    def test_time_batch_positive(self):
        g = from_edges([(0, 1), (1, 2)], weights=[1.0, 1.0])
        seconds = time_batch(ALL_SETUPS["CC"], g, None)
        assert seconds >= 0.0

    def test_competitor_for_unit_updates_falls_back(self):
        setup = ALL_SETUPS["CC"]  # no dedicated unit competitor
        assert type(setup.competitor_for_unit_updates()).__name__ == "DynCC"
        sssp = ALL_SETUPS["SSSP"]  # RR is the unit-update competitor
        assert type(sssp.competitor_for_unit_updates()).__name__ == "RRSSSP"
