"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, read_updates
from repro.errors import ReproError
from repro.graph import EdgeDeletion, EdgeInsertion, VertexDeletion, VertexInsertion


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1 2.0\n1 2 1.0\n0 2 9.0\n")
    return str(path)


@pytest.fixture
def updates_file(tmp_path):
    path = tmp_path / "ups.txt"
    path.write_text("# maintenance\n- 0 2\n+ 2 3 1.5\n+v 9\n-v 9\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStats:
    def test_stats_json(self, capsys, graph_file):
        code, out, _err = run_cli(capsys, "stats", graph_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"] == 3 and doc["edges"] == 3

    def test_dataset_reference(self, capsys):
        code, out, _err = run_cli(capsys, "stats", "@LJ")
        assert code == 0
        assert json.loads(out)["nodes"] > 100


class TestRun:
    def test_sssp(self, capsys, graph_file):
        code, out, _err = run_cli(capsys, "run", "sssp", graph_file, "--directed", "--source", "0")
        assert code == 0
        assert json.loads(out) == {"0": 0.0, "1": 2.0, "2": 3.0}

    def test_cc_ignores_directed_flag(self, capsys, graph_file):
        code, out, _err = run_cli(capsys, "run", "cc", graph_file, "--directed")
        assert code == 0
        assert set(json.loads(out).values()) == {0}

    def test_dfs_output_structure(self, capsys, graph_file):
        code, out, _err = run_cli(capsys, "run", "dfs", graph_file, "--directed")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"first", "last", "parent"}

    def test_missing_source_errors(self, capsys, graph_file):
        code, _out, err = run_cli(capsys, "run", "sssp", graph_file)
        assert code == 2
        assert "requires --source" in err

    def test_unknown_algorithm_errors(self, capsys, graph_file):
        code, _out, err = run_cli(capsys, "run", "pagerank", graph_file)
        assert code == 2
        assert "unknown algorithm" in err

    def test_sim_requires_pattern(self, capsys, graph_file):
        code, _out, err = run_cli(capsys, "run", "sim", graph_file, "--directed")
        assert code == 2
        assert "--pattern" in err

    def test_sim_with_pattern(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 a 1 b\n")
        pattern = tmp_path / "q.txt"
        pattern.write_text("x a y b\n")
        code, out, _err = run_cli(
            capsys, "run", "sim", str(graph), "--directed", "--labeled",
            "--pattern", str(pattern),
        )
        assert code == 0
        assert sorted(json.loads(out)) == [[0, "x"], [1, "y"]]


class TestInc:
    def test_incremental_maintenance(self, capsys, graph_file, updates_file):
        code, out, _err = run_cli(
            capsys, "inc", "sssp", graph_file, updates_file, "--directed", "--source", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["updates"] == 4
        assert doc["answer"]["3"] == 4.5


class TestUpdateParsing:
    def test_all_four_forms(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("+ 1 2 3.5\n- 2 3\n+v 9 robot\n-v 9\n")
        batch = read_updates(str(path))
        assert batch.updates == [
            EdgeInsertion(1, 2, weight=3.5),
            EdgeDeletion(2, 3),
            VertexInsertion(9, label="robot"),
            VertexDeletion(9),
        ]

    def test_default_weight(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("+ 1 2\n")
        assert read_updates(str(path))[0].weight == 1.0

    def test_string_node_ids(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("+ alice bob\n")
        assert read_updates(str(path))[0] == EdgeInsertion("alice", "bob", weight=1.0)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("? 1 2\n")
        with pytest.raises(ReproError):
            read_updates(str(path))


class TestLint:
    def test_structural_text_clean(self, capsys):
        code, out, _err = run_cli(capsys, "lint")
        assert code == 0
        assert "checked 7 spec(s)" in out and "[structural]" in out
        assert "0 error(s)" in out

    def test_semantic_single_spec_json(self, capsys):
        code, out, _err = run_cli(
            capsys, "lint", "--spec", "sssp", "--semantic", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["specs"] == ["SSSP"]
        assert doc["semantic"] is True and doc["clean"] is True

    def test_verbose_shows_sswp_clean_unsuppressed(self, capsys):
        code, out, _err = run_cli(
            capsys, "lint", "--spec", "sswp", "--semantic", "--verbose"
        )
        assert code == 0
        assert "0 error(s)" in out and "0 suppressed" in out
        assert "C105" not in out and "[suppressed]" not in out

    def test_disable_rule_by_name(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "--disable", "mutating-update")
        assert code == 0
        assert "checked 7 spec(s)" in out

    def test_unknown_spec_errors(self, capsys):
        code, _out, err = run_cli(capsys, "lint", "--spec", "pagerank")
        assert code == 2
        assert "unknown spec" in err

    def test_unknown_rule_errors(self, capsys):
        code, _out, err = run_cli(capsys, "lint", "--disable", "S999")
        assert code == 2
        assert "unknown lint rule" in err


class TestDatasets:
    def test_lists_all_six(self, capsys):
        code, out, _err = run_cli(capsys, "datasets")
        assert code == 0
        rows = json.loads(out)
        assert [r["name"] for r in rows] == ["LJ", "DP", "OKT", "TW", "FS", "WD"]


class TestOperatorErrors:
    """Operator mistakes exit 2 with one line on stderr — no tracebacks."""

    def test_recover_missing_directory(self, capsys):
        code, out, err = run_cli(capsys, "recover", "/nonexistent/session")
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_audit_missing_directory(self, capsys):
        code, out, err = run_cli(capsys, "audit", "/nonexistent/session")
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_recover_checkpoint_is_a_directory(self, capsys, tmp_path):
        # An OSError-shaped mistake (IsADirectoryError), not a ReproError.
        (tmp_path / "checkpoint.json").mkdir()
        code, out, err = run_cli(capsys, "recover", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_recover_on_plain_file_directory(self, capsys, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("junk")
        code, _out, err = run_cli(capsys, "recover", str(target))
        assert code == 2
        assert err.startswith("error: ")


class TestServeCommand:
    def test_serve_requires_graph_or_recover(self, capsys):
        code, _out, err = run_cli(capsys, "serve")
        assert code == 2
        assert "GRAPH" in err

    def test_bad_register_spec(self, capsys, graph_file):
        code, _out, err = run_cli(capsys, "serve", graph_file, "--register", "nonsense")
        assert code == 2
        assert "NAME=ALGO" in err

    def test_source_algorithms_need_query(self, capsys, graph_file):
        code, _out, err = run_cli(capsys, "serve", graph_file, "--register", "d=SSSP")
        assert code == 2
        assert "SSSP" in err

    def test_undirected_only_vs_directed_flag(self, capsys, graph_file):
        code, _out, err = run_cli(
            capsys, "serve", graph_file, "--directed", "--register", "cc=CC"
        )
        assert code == 2
        assert "undirected" in err

    def test_end_to_end_over_tcp(self, graph_file):
        # Drive the real CLI entrypoint in a subprocess on an ephemeral
        # port, then talk to it with the client.
        import os
        import re
        import signal
        import subprocess
        import sys as _sys

        from repro.graph import EdgeInsertion
        from repro.serve import ServiceClient

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH", "")) + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", graph_file, "--port", "0",
             "--register", "cc=CC", "--register", "d=SSSP:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"serving on ([\d.]+):(\d+)", banner)
            assert match, f"no banner: {banner!r}"
            host, port = match.group(1), int(match.group(2))
            with ServiceClient(host, port) as client:
                assert client.ping() == 1
                assert client.query("cc")["seq"] == -1
                seq = client.update([EdgeInsertion(2, 7, weight=1.0)])
                snap = client.query("d")
                assert snap["seq"] >= seq
                assert snap["answer"]["7"] == 4.0  # 0-2 (3.0) + 1.0
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=15) == 0  # clean shutdown
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)


class TestShardedRecover:
    @pytest.fixture()
    def sharded_dir(self, tmp_path):
        from repro.generators import assign_weights, erdos_renyi
        from repro.graph import Batch, EdgeDeletion
        from repro.parallel import ShardedSession
        from repro.resilience import SessionConfig

        graph = assign_weights(erdos_renyi(12, 24, directed=False, seed=3), seed=3)
        session = ShardedSession(
            graph, 2, config=SessionConfig(directory=tmp_path), processes=False
        )
        session.register("cc", "CC")
        session.register("d", "SSSP", query=0)
        session.update(Batch([EdgeDeletion(*next(iter(graph.edges())))]))
        seq = session.seq
        session.close()
        return tmp_path, seq

    def test_recover_detects_sharded_directory(self, capsys, sharded_dir):
        directory, seq = sharded_dir
        code, out, _err = run_cli(capsys, "recover", str(directory))
        assert code == 0
        document = json.loads(out)
        assert document["sharded"] is True
        assert document["num_shards"] == 2
        assert document["seq"] == seq
        assert set(document["queries"]) == {"cc", "d"}

    def test_audit_flag_rejected_for_sharded(self, capsys, sharded_dir):
        directory, _seq = sharded_dir
        code, _out, err = run_cli(capsys, "recover", str(directory), "--audit")
        assert code == 2
        assert "sharded" in err

    def test_missing_shard_is_typed_error(self, capsys, sharded_dir):
        import shutil

        directory, _seq = sharded_dir
        shutil.rmtree(directory / "shard-01")
        code, _out, err = run_cli(capsys, "recover", str(directory))
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
