"""Cross-subsystem integration tests.

Each test wires several subsystems together the way a downstream user
would: datasets → sessions → temporal streams → persistence → parallel
evaluation → CLI, verifying end-state consistency against batch runs.
"""

import json

import pytest

from oracles import oracle_cc, oracle_sssp
from repro import Dijkstra, IncSSSP
from repro.bench.runners import undirected_view
from repro.core.invariants import check_fixpoint_invariant
from repro.core.persistence import dump_state, load_state
from repro.datasets import load as load_dataset
from repro.generators import largest_component_root, random_updates
from repro.graph.io import write_edge_list
from repro.session import DynamicGraphSession


@pytest.mark.slow
class TestTemporalSessionPipeline:
    def test_wd_stream_through_a_session(self):
        temporal = load_dataset("WD", scale=0.2)
        months = temporal.monthly_batches(4)
        first_graph, _ = months[0]
        session = DynamicGraphSession(first_graph.copy())
        source = largest_component_root(first_graph)
        session.register("sssp", "SSSP", query=source)
        session.register("cc", "CC")

        for _snapshot, delta in months:
            if delta.size:
                session.update(delta)

        assert session.answer("sssp") == oracle_sssp(session.graph, source)
        assert session.answer("cc") == oracle_cc(session.graph)

    def test_invariants_hold_after_many_rounds(self):
        from repro.algorithms.sssp import SSSPSpec

        graph = undirected_view(load_dataset("OKT", scale=0.15))
        source = largest_component_root(graph)
        batch = Dijkstra()
        state = batch.run(graph, source)
        inc = IncSSSP()
        for round_no in range(5):
            delta = random_updates(graph, 25, seed=200 + round_no)
            inc.apply(graph, state, delta, source)
        assert check_fixpoint_invariant(SSSPSpec(), graph, source, state)


@pytest.mark.slow
class TestPersistenceMidStream:
    def test_save_restore_continue(self, tmp_path):
        graph = undirected_view(load_dataset("LJ", scale=0.15))
        source = largest_component_root(graph)
        batch = Dijkstra()
        state = batch.run(graph, source)
        inc = IncSSSP()

        inc.apply(graph, state, random_updates(graph, 20, seed=301), source)
        dump_state(state, tmp_path / "checkpoint.json")
        write_edge_list(graph, tmp_path / "graph.txt")

        # "Restart": fresh process state from disk.
        from repro.graph.io import read_edge_list

        revived_graph = read_edge_list(tmp_path / "graph.txt")
        revived_state = load_state(tmp_path / "checkpoint.json")
        inc.apply(revived_graph, revived_state, random_updates(revived_graph, 20, seed=302), source)
        assert dict(revived_state.values) == oracle_sssp(revived_graph, source)


@pytest.mark.slow
class TestCliOnGeneratedData:
    def test_full_cli_flow(self, tmp_path, capsys):
        from repro.cli import main

        graph = undirected_view(load_dataset("LJ", scale=0.1))
        graph_path = tmp_path / "g.txt"
        write_edge_list(graph, graph_path)
        delta = random_updates(graph, 10, seed=7)
        lines = []
        for update in delta:
            kind = "+" if hasattr(update, "weight") else "-"
            if kind == "+":
                lines.append(f"+ {update.u} {update.v} {update.weight}")
            else:
                lines.append(f"- {update.u} {update.v}")
        updates_path = tmp_path / "ups.txt"
        updates_path.write_text("\n".join(lines) + "\n")

        code = main(["inc", "cc", str(graph_path), str(updates_path)])
        out = capsys.readouterr().out
        assert code == 0
        document = json.loads(out)
        assert document["updates"] == 10
        from repro.graph.updates import apply_updates

        apply_updates(graph, delta)
        want = {str(k): v for k, v in oracle_cc(graph).items()}
        assert document["answer"] == want
