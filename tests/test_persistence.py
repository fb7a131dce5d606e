"""Tests for fixpoint-state persistence."""

import io
import math

import pytest

from repro import CCfp, Dijkstra, IncSSSP, Simfp
from repro.core.persistence import dump_state, load_state
from repro.core.state import FixpointState
from repro.errors import ReproError
from repro.graph import Batch, EdgeInsertion, Graph, from_edges


class TestRoundTrip:
    def test_values_timestamps_clock(self):
        state = FixpointState()
        state.seed("a", 1)
        state.set("a", 2)
        state.set("b", 3)
        buffer = io.StringIO()
        dump_state(state, buffer)
        buffer.seek(0)
        back = load_state(buffer)
        assert back.values == state.values
        assert back.timestamps == state.timestamps
        assert back.clock == state.clock

    def test_file_path_roundtrip(self, tmp_path):
        state = FixpointState()
        state.seed(1, math.inf)
        path = tmp_path / "state.json"
        dump_state(state, path)
        assert load_state(path).values == {1: math.inf}

    def test_infinities_and_negatives(self):
        state = FixpointState()
        state.seed("pos", math.inf)
        state.seed("neg", -math.inf)
        state.seed("num", -2.5)
        buffer = io.StringIO()
        dump_state(state, buffer)
        buffer.seek(0)
        back = load_state(buffer)
        assert back.values == {"pos": math.inf, "neg": -math.inf, "num": -2.5}

    def test_tuple_keys_and_values(self):
        state = FixpointState()
        state.seed(("d", 5), 3)          # LCC-style key
        state.seed((7, "u"), True)       # Sim-style key
        state.seed(9, (0, 15))           # DFS-style interval value
        state.seed(("p", 9), None)       # DFS parent
        buffer = io.StringIO()
        dump_state(state, buffer)
        buffer.seek(0)
        back = load_state(buffer)
        assert back.values == state.values

    def test_unsupported_value_raises(self):
        state = FixpointState()
        state.seed("x", object())
        with pytest.raises(ReproError):
            dump_state(state, io.StringIO())

    def test_bad_version_raises(self):
        buffer = io.StringIO('{"version": 99, "clock": 0, "entries": []}')
        with pytest.raises(ReproError):
            load_state(buffer)


class TestRealStates:
    def test_sssp_state_survives_restart(self, tmp_path):
        g = from_edges([(0, 1), (1, 2)], directed=True, weights=[2.0, 2.0])
        batch = Dijkstra()
        state = batch.run(g, 0)
        path = tmp_path / "sssp.json"
        dump_state(state, path)

        # "Restart": reload and continue applying updates incrementally.
        revived = load_state(path)
        inc = IncSSSP()
        inc.apply(g, revived, Batch([EdgeInsertion(0, 2, weight=1.0)]), 0)
        assert revived.values[2] == 1.0

    def test_cc_timestamps_survive(self, tmp_path):
        # Weakly deducible algorithms need their timestamps back intact.
        g = from_edges([(0, 1), (1, 2)])
        state = CCfp().run(g)
        path = tmp_path / "cc.json"
        dump_state(state, path)
        revived = load_state(path)
        assert revived.timestamps == state.timestamps

    def test_sim_state_roundtrip(self, tmp_path):
        g = Graph(directed=True)
        g.ensure_node(0, label="a")
        g.ensure_node(1, label="b")
        g.add_edge(0, 1)
        q = Graph(directed=True)
        q.add_node("x", label="a")
        q.add_node("y", label="b")
        q.add_edge("x", "y")
        state = Simfp().run(g, q)
        path = tmp_path / "sim.json"
        dump_state(state, path)
        assert load_state(path).values == state.values


class TestHardenedEncoding:
    """ISSUE satellite: NaN, deep nesting, and actionable version errors."""

    def _round_trip(self, state):
        buffer = io.StringIO()
        dump_state(state, buffer)
        buffer.seek(0)
        return load_state(buffer)

    def test_nan_value_round_trips_as_nan(self):
        state = FixpointState()
        state.seed("x", math.nan)
        back = self._round_trip(state)
        assert math.isnan(back.values["x"])  # NaN != NaN: compare via isnan

    def test_nan_emits_strict_json(self):
        # json.dumps would otherwise write a bare NaN token that strict
        # parsers (and our own loader with a strict parse) reject.
        import json

        state = FixpointState()
        state.seed("x", math.nan)
        buffer = io.StringIO()
        dump_state(state, buffer)
        doc = json.loads(buffer.getvalue(), parse_constant=lambda token: pytest.fail(
            f"non-standard JSON constant {token!r} in output"
        ))
        assert doc["entries"][0][1] == {"f": "nan"}

    def test_nan_inside_tuples(self):
        state = FixpointState()
        state.seed(("d", 3), (math.nan, math.inf, -math.inf))
        back = self._round_trip(state)
        value = back.values[("d", 3)]
        assert math.isnan(value[0])
        assert value[1] == math.inf and value[2] == -math.inf

    def test_deeply_nested_tuple_keys(self):
        key = ((("a", 1), ("b", (2, 3))), ("c",))
        state = FixpointState()
        state.seed(key, ((1, (2,)), None))
        back = self._round_trip(state)
        assert back.values == {key: ((1, (2,)), None)}

    def test_version_error_names_both_versions(self):
        buffer = io.StringIO('{"version": 99, "clock": 0, "entries": []}')
        with pytest.raises(ReproError) as info:
            load_state(buffer)
        message = str(info.value)
        assert "99" in message and "version 2" in message
        assert "re-run" in message  # tells the operator how to recover

    def test_version_1_state_is_rejected(self):
        # Version-1 states predate the timestamp tie-break of <_C and may
        # hold a kept value whose only tied support is stamped later;
        # trusting them can close an unfounded cycle (tests/test_sswp.py).
        buffer = io.StringIO('{"version": 1, "clock": 0, "entries": []}')
        with pytest.raises(ReproError, match="re-run the batch algorithm"):
            load_state(buffer)

    def test_unknown_encoded_marker_rejected(self):
        from repro.core.persistence import _decode

        with pytest.raises(ReproError):
            _decode({"z": 1})
