"""Tests for the evaluation hub: registry, gates, trend reports, CLI.

The synthetic-regression tests are the contract the CI gate step relies
on: a planted slowdown beyond tolerance must exit 1, host noise within
tolerance must exit 0, and runs from a different host comparability
group (or with a dirty tree) must never be used as baselines.
"""

import json
import subprocess
import threading
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.evalhub import (
    RECORD_SCHEMA,
    SUITES,
    Registry,
    RunRecord,
    generate_report,
    host_key,
    host_record,
    load_gates,
    run_gates,
    run_suite,
)
from repro.evalhub.gates import Gate, GateConfigError
from repro.evalhub.registry import RegistryError, comparable, repo_root

HOST_A = {
    "python": "3.11.4",
    "machine": "x86_64",
    "platform": "test",
    "cpus": 4,
    "available_cpus": 4,
    "git_sha": "aaaa111",
    "git_dirty": False,
}
HOST_B = dict(HOST_A, available_cpus=1, git_sha="bbbb222")


def kernel_rows(speedup):
    return [
        {"name": "batch_sssp", "edges": 1000, "speedup": speedup},
        {"name": "batch_cc", "edges": 1000, "speedup": speedup * 1.1},
        {"name": "inc_sssp", "edges": 1000, "speedup": speedup * 3},
    ]


class TestRegistry:
    def test_append_round_trips_schema_4(self, tmp_path):
        registry = Registry(root=tmp_path)
        record = registry.append(
            "kernels", kernel_rows(2.0), tag="pr10", scale="smoke", host=HOST_A
        )
        assert record.run == 1
        payload = json.loads(registry.path("kernels").read_text())
        assert payload["schema"] == RECORD_SCHEMA
        assert payload["suite"] == "kernels"
        assert payload["runs"][0]["tag"] == "pr10"
        assert payload["runs"][0]["host"]["available_cpus"] == 4
        assert all(row["run"] == 1 for row in payload["results"])
        ledger = registry.load("kernels")
        assert ledger.latest.run == 1
        assert len(ledger.rows(1)) == 3

    def test_append_is_append_only(self, tmp_path):
        registry = Registry(root=tmp_path)
        registry.append("kernels", kernel_rows(2.0), host=HOST_A, scale="smoke")
        registry.append("kernels", kernel_rows(3.0), host=HOST_A, scale="smoke")
        ledger = registry.load("kernels")
        assert [r.run for r in ledger.runs] == [1, 2]
        assert {row["speedup"] for row in ledger.rows(1)} == {2.0, 2.2, 6.0}

    def test_empty_run_refused(self, tmp_path):
        with pytest.raises(RegistryError):
            Registry(root=tmp_path).append("kernels", [])

    def test_duplicate_tag_refused(self, tmp_path):
        registry = Registry(root=tmp_path)
        registry.append("kernels", kernel_rows(2.0), tag="pr10", host=HOST_A)
        with pytest.raises(RegistryError, match="pr10"):
            registry.append("kernels", kernel_rows(2.1), tag="pr10", host=HOST_A)

    def test_concurrent_writers_serialize(self, tmp_path):
        registry = Registry(root=tmp_path)
        errors = []

        def writer(i):
            try:
                registry.append("kernels", kernel_rows(float(i)), host=HOST_A)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        ledger = registry.load("kernels")
        assert sorted(r.run for r in ledger.runs) == list(range(1, 9))
        # every run kept exactly its own rows
        for record in ledger.runs:
            assert len(ledger.rows(record.run)) == 3

    def test_unsupported_schema_rejected(self, tmp_path):
        registry = Registry(root=tmp_path)
        registry.path("kernels").parent.mkdir(parents=True, exist_ok=True)
        for schema in (99, 3):  # pre-registry envelopes are not read either
            registry.path("kernels").write_text(json.dumps({"schema": schema}))
            with pytest.raises(RegistryError, match="schema"):
                registry.load("kernels")


class TestComparability:
    def test_host_key_ignores_patch_version(self):
        assert host_key(HOST_A) == host_key(dict(HOST_A, python="3.11.9"))
        assert host_key(HOST_A) != host_key(dict(HOST_A, python="3.12.0"))
        assert not comparable(HOST_A, HOST_B)

    def test_baseline_skips_other_hosts_scales_and_dirty_trees(self, tmp_path):
        registry = Registry(root=tmp_path)
        registry.append("kernels", kernel_rows(1.0), host=HOST_B, scale="smoke")
        registry.append("kernels", kernel_rows(2.0), host=HOST_A, scale="full")
        registry.append(
            "kernels", kernel_rows(3.0), host=dict(HOST_A, git_dirty=True), scale="smoke"
        )
        registry.append("kernels", kernel_rows(4.0), host=HOST_A, scale="smoke")
        latest = registry.append("kernels", kernel_rows(5.0), host=HOST_A, scale="smoke")
        ledger = registry.load("kernels")
        baseline = ledger.baseline_for(latest)
        # run 4: same host, same scale, clean tree.  Not run 3 (dirty),
        # not run 2 (other scale), not run 1 (other cpu budget).
        assert baseline.run == 4

    def test_no_comparable_baseline(self, tmp_path):
        registry = Registry(root=tmp_path)
        registry.append("kernels", kernel_rows(1.0), host=HOST_B, scale="smoke")
        latest = registry.append("kernels", kernel_rows(2.0), host=HOST_A, scale="smoke")
        assert registry.load("kernels").baseline_for(latest) is None


GATES_TOML = """
[[gate]]
suite = "kernels"
metric = "speedup"
rows = ["batch_*"]
direction = "higher"
aggregate = "geomean"
tolerance = 0.25
"""


class TestGates:
    def write_gates(self, tmp_path, text=GATES_TOML):
        path = tmp_path / "gates.toml"
        path.write_text(text)
        return path

    def seeded(self, tmp_path, baseline, latest, host=HOST_A):
        registry = Registry(root=tmp_path / "results")
        registry.append("kernels", kernel_rows(baseline), host=HOST_A, scale="smoke")
        registry.append("kernels", kernel_rows(latest), host=host, scale="smoke")
        return registry

    def test_planted_regression_fails(self, tmp_path):
        registry = self.seeded(tmp_path, baseline=4.0, latest=2.0)
        report = run_gates(registry, path=self.write_gates(tmp_path))
        assert report.failed
        assert report.findings[0].status == "regression"
        assert "REGRESSION" in report.render_text()

    def test_noise_within_tolerance_passes(self, tmp_path):
        registry = self.seeded(tmp_path, baseline=4.0, latest=3.6)
        report = run_gates(registry, path=self.write_gates(tmp_path))
        assert not report.failed

    def test_improvement_passes(self, tmp_path):
        registry = self.seeded(tmp_path, baseline=4.0, latest=9.0)
        assert not run_gates(registry, path=self.write_gates(tmp_path)).failed

    def test_incomparable_host_skips_relative_check(self, tmp_path):
        registry = self.seeded(tmp_path, baseline=4.0, latest=0.5, host=HOST_B)
        report = run_gates(registry, path=self.write_gates(tmp_path))
        assert not report.failed
        assert "no comparable clean baseline" in report.findings[0].message

    def test_absolute_ceiling_fails_without_baseline(self, tmp_path):
        registry = Registry(root=tmp_path / "results")
        registry.append(
            "serve",
            [{"name": "delete_heavy", "scatters_per_deletion_window": 4.2}],
            host=HOST_A,
            scale="smoke",
        )
        gates = [
            Gate(
                suite="serve",
                metric="scatters_per_deletion_window",
                rows=["delete_heavy*"],
                direction="lower",
                aggregate="max",
                max=3.5,
            )
        ]
        report = run_gates(registry, gates=gates)
        assert report.failed and report.findings[0].status == "ceiling"

    def test_lower_is_better_direction(self, tmp_path):
        registry = Registry(root=tmp_path / "results")
        for p99 in (10.0, 14.0):
            registry.append(
                "serve",
                [{"name": "read_heavy", "read_p99_ms": p99}],
                host=HOST_A,
                scale="smoke",
            )
        gates = [
            Gate(
                suite="serve",
                metric="read_p99_ms",
                direction="lower",
                tolerance=0.2,
            )
        ]
        assert run_gates(registry, gates=gates).failed

    def test_config_validation(self, tmp_path):
        with pytest.raises(GateConfigError):
            Gate(suite="s", metric="m")  # no bound at all
        with pytest.raises(GateConfigError):
            Gate(suite="s", metric="m", max=1.0, direction="sideways")
        with pytest.raises(GateConfigError):
            load_gates(tmp_path / "missing.toml")
        bad = tmp_path / "bad.toml"
        bad.write_text("[[gate]]\nsuite = 'x'\n")
        with pytest.raises(GateConfigError, match="metric"):
            load_gates(bad)

    def test_repo_gates_toml_parses(self):
        # Located from this file, so it also runs outside a git checkout.
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "gates.toml"
        assert path.is_file()
        gates = load_gates(path)
        assert any(
            g.suite == "serve" and g.metric == "scatters_per_deletion_window" and g.max == 1.0
            for g in gates
        )


class TestReport:
    def fill(self, tmp_path):
        registry = Registry(root=tmp_path)
        for speedup in (2.0, 2.5):
            registry.append("kernels", kernel_rows(speedup), host=HOST_A, scale="smoke")
        registry.append(
            "fig7",
            [
                {"name": "fig7_sssp_FS", "delta_pct": 2.0, "changed": 5, "speedup_vs_batch": 3.0},
                {"name": "fig7_sssp_FS", "delta_pct": 8.0, "changed": 50, "speedup_vs_batch": 1.8},
            ],
            host=HOST_A,
            scale="smoke",
        )
        return registry

    def test_trend_table_tracks_runs_in_one_group(self, tmp_path):
        report = generate_report(self.fill(tmp_path))
        assert "## Suite `kernels`" in report
        assert "run 1" in report and "run 2" in report
        assert "`speedup`" in report
        # both runs of the same comparability group share one table row
        assert "batch_sssp" in report

    def test_changed_bins_section(self, tmp_path):
        report = generate_report(self.fill(tmp_path))
        assert "Incremental speedup vs |CHANGED|" in report
        assert "2–10" in report and "11–100" in report

    def test_missing_fields_render_as_dash(self, tmp_path):
        registry = Registry(root=tmp_path)
        registry.append(
            "fig7",
            [{"name": "fig7_temporal_SSSP", "speedup_vs_batch": 1.5}],
            host={k: v for k, v in HOST_A.items() if k not in ("cpus", "available_cpus")},
            scale="smoke",
        )
        report = generate_report(registry)
        assert "None" not in report
        assert "| fig7_temporal_SSSP | - |" in report
        assert "x86_64 / - cpu" in report

    def test_incomparable_hosts_split_tables(self, tmp_path):
        registry = Registry(root=tmp_path)
        registry.append("kernels", kernel_rows(2.0), host=HOST_A, scale="smoke")
        registry.append("kernels", kernel_rows(9.0), host=HOST_B, scale="smoke")
        report = generate_report(registry)
        # two comparability sections, one per host group
        assert report.count("### ") == 2


def git_checkout(root):
    """A throwaway one-commit git repo at ``root``; returns its short sha."""

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=test", "-c", "user.email=test@example.com", *args],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()

    root.mkdir(parents=True, exist_ok=True)
    git("init", "-q")
    (root / "README").write_text("probe\n")
    git("add", "README")
    git("commit", "-q", "-m", "probe")
    return git("rev-parse", "--short", "HEAD")


class TestHostRecord:
    def test_host_record_fields(self, tmp_path):
        sha = git_checkout(tmp_path / "repo")
        record = host_record(start=tmp_path / "repo")
        assert record["available_cpus"] >= 1
        assert record["git_sha"] == sha
        assert record["git_dirty"] is False
        (tmp_path / "repo" / "README").write_text("edited\n")
        assert host_record(start=tmp_path / "repo")["git_dirty"] is True

    def test_registry_outputs_do_not_dirty_the_tree(self, tmp_path):
        # the dirty bit must ignore benchmarks/results — recording suite
        # A then suite B must not brand B's run dirty (see host_record).
        git_checkout(tmp_path / "repo")
        root = repo_root(tmp_path / "repo")
        assert root == (tmp_path / "repo").resolve()
        before = host_record(start=root)
        assert before["git_dirty"] is False
        scratch = root / "benchmarks" / "results" / "_dirty_probe.json"
        scratch.parent.mkdir(parents=True, exist_ok=True)
        scratch.write_text("{}")
        assert host_record(start=root)["git_dirty"] == before["git_dirty"]


class TestBenchCLI:
    def test_gate_exit_codes(self, tmp_path, capsys):
        registry = Registry(root=tmp_path / "results")
        registry.append("kernels", kernel_rows(4.0), host=HOST_A, scale="smoke")
        registry.append("kernels", kernel_rows(1.0), host=HOST_A, scale="smoke")
        gates = tmp_path / "gates.toml"
        gates.write_text(GATES_TOML)
        argv = ["bench", "gate", "--config", str(gates), "--results-dir", str(tmp_path / "results")]
        assert cli_main(argv) == 1
        assert "GATE FAILED" in capsys.readouterr().out
        # repair the regression: a recovered run gates green
        registry.append("kernels", kernel_rows(3.9), host=HOST_A, scale="smoke")
        assert cli_main(argv) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_report_stdout_and_file(self, tmp_path, capsys):
        registry_dir = tmp_path / "results"
        Registry(root=registry_dir).append(
            "kernels", kernel_rows(2.0), host=HOST_A, scale="smoke"
        )
        assert cli_main(
            ["bench", "report", "--stdout", "--results-dir", str(registry_dir)]
        ) == 0
        assert "## Suite `kernels`" in capsys.readouterr().out
        out = tmp_path / "RESULTS.md"
        assert cli_main(
            ["bench", "report", "--out", str(out), "--results-dir", str(registry_dir)]
        ) == 0
        assert "do not edit by hand" in out.read_text()

    def test_run_unknown_suite_is_an_error(self, tmp_path, capsys):
        code = cli_main(
            ["bench", "run", "nope", "--results-dir", str(tmp_path)]
        )
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_suites_listing(self, capsys):
        assert cli_main(["bench", "suites"]) == 0
        out = capsys.readouterr().out
        for name in ("kernels", "serve", "fig6", "fig7", "fig8", "table1", "ablation"):
            assert name in out


PAPER_SUITES = ("fig6", "fig7", "fig8", "table1", "ablation")


class TestPaperSuites:
    """Every paper figure has one producer: its registry suite."""

    def test_smoke_suites_record_and_report(self, tmp_path):
        registry = Registry(root=tmp_path)
        for name in PAPER_SUITES:
            rows = run_suite(name, "smoke")
            assert rows, name
            for row in rows:
                assert "name" in row and "changed" in row, (name, row)
            for trend in SUITES[name].trends:
                assert any(trend.metric in row for row in rows), (name, trend.metric)
            registry.append(name, rows, host=HOST_A, scale="smoke")
        report = generate_report(registry)
        for name in PAPER_SUITES:
            assert f"## Suite `{name}`" in report
