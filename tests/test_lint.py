"""Tests for the FixpointSpec lint subsystem (structural + contract passes).

The bad specs below each seed exactly one class of contract violation the
framework's theorems forbid; the tests assert the corresponding rule
fires.  Together they exercise S001-S007, C101-C108 and C110 — every
rule except C109, which gets its own crash test.
"""

import json

import pytest

from repro.algorithms._common import lost_anchor_heads
from repro.algorithms.cc import CCSpec
from repro.algorithms.lcc import LCCSpec
from repro.algorithms.sssp import SSSPSpec
from repro.core import run_batch
from repro.core.incremental import IncrementalAlgorithm
from repro.core.orders import MinValueOrder
from repro.core.spec import FixpointSpec
from repro.graph import Batch, EdgeDeletion, from_edges
from repro.lint import (
    RULES,
    LintFinding,
    LintReport,
    Workload,
    builtin_specs,
    check_spec_contracts,
    check_spec_structure,
    default_options,
    default_workloads,
    lint_spec,
    lint_specs,
)
from repro.lint import rules as lint_rules


def rule_ids(findings):
    return {f.rule.id for f in findings}


def path_workload():
    """0 -> 1 -> 2 -> 3; deleting (0, 1) raises distances 2 hops deep."""
    g = from_edges([(0, 1), (1, 2), (2, 3)], directed=True, weights=[1.0, 1.0, 1.0])
    return Workload(g, 0, Batch([EdgeDeletion(0, 1)]), "path")


# ======================================================================
# Seeded-bad specs: structural rules
# ======================================================================
class _MinimalSpec(FixpointSpec):
    """Smallest instantiable spec; structurally fine apart from S007."""

    name = "Minimal"

    def variables(self, graph, query):
        return graph.nodes()

    def initial_value(self, key, graph, query):
        return 0

    def update(self, key, value_of, graph, query):
        return 0

    def dependents(self, key, graph, query):
        return graph.neighbors(key)


class MutatingSpec(_MinimalSpec):
    name = "Mutating"

    def update(self, key, value_of, graph, query):
        graph.add_edge(key, key)  # noqa: B018 - the bug under test
        return 0

    def removed_variables(self, delta, graph_new, query):
        delta.append(None)
        return ()


SECRET_KEY = 42


class UndeclaredReadSpec(_MinimalSpec):
    name = "UndeclaredRead"

    def update(self, key, value_of, graph, query):
        total = value_of(0)  # hard-coded key
        total += value_of(SECRET_KEY)  # module global, not derived from inputs
        for w in graph.neighbors(key):
            total += value_of(w)  # fine: derived from a graph accessor
        return total


class PushWithoutCandidateSpec(_MinimalSpec):
    name = "PushNoCandidate"
    supports_push = True


class TimestampIgnoredSpec(_MinimalSpec):
    name = "TimestampIgnored"
    order = MinValueOrder()
    uses_timestamps = True

    def order_key(self, key, value, timestamp):
        return value  # claims weakly deducible but orders by value


class ValueOrderFromTimestampSpec(_MinimalSpec):
    name = "ValueOrderFromTs"
    order = MinValueOrder()
    uses_timestamps = False  # claims deducible, inherits the timestamp order_key


class NondeterministicSpec(_MinimalSpec):
    name = "Nondeterministic"

    def update(self, key, value_of, graph, query):
        import random

        best = random.random()
        for w in set(graph.neighbors(key)):
            best += value_of(w)
        return best


class TestStructuralRules:
    def test_mutating_update_s001(self):
        ids = rule_ids(check_spec_structure(MutatingSpec()))
        assert "S001" in ids

    def test_undeclared_read_s002(self):
        findings = [
            f for f in check_spec_structure(UndeclaredReadSpec()) if f.rule.id == "S002"
        ]
        # Both the literal key and the module global are flagged; the
        # accessor-derived neighbor read is not.
        assert len(findings) == 2
        assert any("SECRET_KEY" in f.message for f in findings)

    def test_push_without_candidate_s003(self):
        assert "S003" in rule_ids(check_spec_structure(PushWithoutCandidateSpec()))

    def test_order_key_ignores_timestamp_s004(self):
        assert "S004" in rule_ids(check_spec_structure(TimestampIgnoredSpec()))

    def test_value_order_from_timestamp_s005(self):
        assert "S005" in rule_ids(check_spec_structure(ValueOrderFromTimestampSpec()))

    def test_nondeterministic_update_s006(self):
        findings = [
            f
            for f in check_spec_structure(NondeterministicSpec())
            if f.rule.id == "S006"
        ]
        severities = {f.severity for f in findings}
        assert "error" in severities  # random.random()
        assert "warning" in severities  # set iteration

    def test_missing_anchor_hooks_s007(self):
        assert "S007" in rule_ids(check_spec_structure(_MinimalSpec()))

    def test_findings_carry_locations(self):
        finding = next(
            f for f in check_spec_structure(MutatingSpec()) if f.rule.id == "S001"
        )
        assert finding.location and "test_lint.py" in finding.location


# ======================================================================
# Seeded-bad specs: contract rules
# ======================================================================
class RaisingSpec(_MinimalSpec):
    """Not contracting: first evaluation moves 0 upward to the degree."""

    name = "Raising"
    order = MinValueOrder()

    def update(self, key, value_of, graph, query):
        return sum(1 for _ in graph.neighbors(key))


class AntitoneSpec(_MinimalSpec):
    """Not monotonic: f decreases when its inputs increase."""

    name = "Antitone"
    order = MinValueOrder()

    def initial_value(self, key, graph, query):
        return 10.0

    def update(self, key, value_of, graph, query):
        lowest = min((value_of(w) for w in graph.neighbors(key)), default=0.0)
        return 10.0 - lowest


class StatefulInitSpec(_MinimalSpec):
    """x^⊥ is not a top: initial_value is impure and keeps sinking."""

    name = "StatefulInit"
    order = MinValueOrder()

    def initial_value(self, key, graph, query):
        self._tick = getattr(self, "_tick", 0) - 1
        return float(self._tick)

    def update(self, key, value_of, graph, query):
        return value_of(key)


class NoAnchorSSSP(SSSPSpec):
    """Anchor sets claim nothing depends on anything: C104 must catch it."""

    name = "NoAnchorSSSP"

    def anchor_dependents(self, key, value_of, timestamp_of, graph_new, query):
        return ()


class InvertedAnchorSSSP(SSSPSpec):
    """An inverted <_C plus overbroad anchors: the repair loop pops far
    variables first, resets their (nearer, hence "later") inputs, and
    walks into unaffected variables, so H⁰ ⊄ AFF even though the final
    answer stays correct.  The timestamp tie-break cannot help: no keys
    tie, they are in the wrong order."""

    name = "InvertedSSSP"

    def order_key(self, key, value, timestamp):
        return -value

    def anchor_dependents(self, key, value_of, timestamp_of, graph_new, query):
        return [z for z in sorted(graph_new.nodes(), reverse=True) if z != query]


class HiddenReadSSSP(SSSPSpec):
    """Declares an empty input set while update reads in-neighbors."""

    name = "HiddenReadSSSP"

    def input_keys(self, key, graph, query):
        return ()


class LazyChangedInputsSSSP(SSSPSpec):
    """changed_input_keys misses the evolved input sets entirely."""

    name = "LazyChangedSSSP"

    def changed_input_keys(self, delta, graph_new, query):
        return ()

    def repair_seed_keys(self, delta, graph_new, query, state, old_weights):
        return ()


class SeedNothingSSSP(SSSPSpec):
    """Seeds no repair at all: every deletion-raised distance goes stale."""

    name = "SeedNothingSSSP"

    def repair_seed_keys(self, delta, graph_new, query, state, old_weights):
        return ()


class ThreeArgSeedSSSP(SSSPSpec):
    """Overrides repair_seed_keys with its former (delta, graph_new, query)
    signature, which the drivers can no longer call."""

    name = "ThreeArgSeedSSSP"

    def repair_seed_keys(self, delta, graph_new, query):
        return self.changed_input_keys(delta, graph_new, query)


class NoRootCaseCC(CCSpec):
    """Seeds a deletion head only when the tail changed no later, dropping
    the case of a root that holds its own id but was stamped later."""

    name = "NoRootCaseCC"

    def repair_seed_keys(self, delta, graph_new, query, state, old_weights):
        values, ts = state.values, state.timestamps

        def supported(t, h, _weight):
            x_h = values.get(h, h)
            if x_h == h or values.get(t) != x_h:
                return False
            return ts.get(t, -1) <= ts.get(h, -1)

        return lost_anchor_heads(delta, graph_new, True, old_weights, supported)


class WaivedMutatingSpec(_MinimalSpec):
    """Same S001 bug as MutatingSpec, but waived via lint_suppress."""

    name = "WaivedMutating"
    lint_suppress = frozenset({"S001"})

    def update(self, key, value_of, graph, query):
        graph.add_edge(key, key)
        return 0


class CrashingSpec(_MinimalSpec):
    name = "Crashing"
    order = MinValueOrder()

    def initial_scope(self, graph, query):
        raise RuntimeError("boom")


class NoThirdVertexLCC(LCCSpec):
    """DynLCC's rule without the λ_w ± 1 term for common neighbors."""

    def derivative(self, update, graph_new, query, increments):
        own: dict = {}
        super().derivative(update, graph_new, query, own)
        for key, step in own.items():
            if key[1] in (update.u, update.v):
                increments[key] = increments.get(key, 0) + step


class StrayWriteLCC(LCCSpec):
    """Also bumps the degree of a node the edge does not touch."""

    def derivative(self, update, graph_new, query, increments):
        before = dict(increments)
        super().derivative(update, graph_new, query, increments)
        far = max(graph_new.nodes())
        if increments != before and far not in (update.u, update.v):
            increments[("d", far)] = increments.get(("d", far), 0) + 1


class PairsDerivativeLCC(LCCSpec):
    """Overrides derivative with its former (update, graph_new, query)
    signature returning pairs, which the driver can no longer call."""

    name = "PairsDerivativeLCC"

    def derivative(self, update, graph_new, query):
        return []


class TestContractRules:
    def contract_ids(self, spec, workload=None):
        workload = workload or path_workload()
        return rule_ids(check_spec_contracts(spec, [workload], default_options(spec)))

    def test_not_contracting_c101(self):
        assert "C101" in self.contract_ids(RaisingSpec())

    def test_not_monotonic_c102(self):
        assert "C102" in self.contract_ids(AntitoneSpec())

    def test_initial_not_top_c103(self):
        assert "C103" in self.contract_ids(StatefulInitSpec())

    def test_anchor_unsound_c104(self):
        ids = self.contract_ids(NoAnchorSSSP())
        assert "C104" in ids
        # The stale values also diverge from a fresh batch run.
        assert "C108" in ids

    def test_anchor_unsound_seed_nothing_c104(self):
        assert "C104" in self.contract_ids(SeedNothingSSSP())

    def test_anchor_unsound_no_root_case_c104(self):
        # CC's default probes pin a root stamped after the node it labels;
        # only the incremental leg of C104 sees that state.
        probes = default_workloads(CCSpec())
        findings = check_spec_contracts(NoRootCaseCC(), probes)
        unsound = [f for f in findings if f.rule.id == "C104"]
        assert unsound and "CC-root, after 1 of 2 ops" in unsound[0].message
        assert "C104" not in rule_ids(check_spec_contracts(CCSpec(), probes))

    def test_scope_unbounded_c105(self):
        # Deleting (1, 2) only affects {2, 3}, but the inverted order pops
        # node 4 (unaffected, 2 hops out) before its input 1, resets that
        # input to ∞ and adopts it — H⁰ picks up a variable outside AFF.
        g = from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 3), (1, 4)],
            directed=True,
            weights=[1.0, 5.0, 1.0, 1.0, 1.0],
        )
        workload = Workload(g, 0, Batch([EdgeDeletion(1, 2)]), "diamond+tail")
        ids = self.contract_ids(InvertedAnchorSSSP(), workload)
        assert "C105" in ids
        assert "C108" not in ids  # unbounded is still *correct*

    def test_undeclared_input_c106(self):
        assert "C106" in self.contract_ids(HiddenReadSSSP())

    def test_changed_inputs_incomplete_c107(self):
        assert "C107" in self.contract_ids(LazyChangedInputsSSSP())

    def test_check_crashed_c109(self):
        findings = check_spec_contracts(
            CrashingSpec(), [path_workload()], default_options(CrashingSpec())
        )
        crashed = [f for f in findings if f.rule.id == "C109"]
        assert crashed and "boom" in crashed[0].message

    def test_three_arg_repair_seed_keys_crashes_c109(self):
        findings = check_spec_contracts(
            ThreeArgSeedSSSP(), [path_workload()], default_options(ThreeArgSeedSSSP())
        )
        crashed = [f for f in findings if f.rule.id == "C109"]
        assert crashed and all("TypeError" in f.message for f in crashed)

    def test_three_arg_derivative_crashes_c109(self):
        findings = check_spec_contracts(PairsDerivativeLCC(), default_workloads(LCCSpec()))
        crashed = [f for f in findings if f.rule.id == "C109"]
        assert crashed and all("TypeError" in f.message for f in crashed)
        g = from_edges([(0, 1), (1, 2)])
        state = run_batch(PairsDerivativeLCC(), g, None)
        with pytest.raises(TypeError):
            IncrementalAlgorithm(PairsDerivativeLCC()).apply(g, state, Batch([EdgeDeletion(0, 1)]))

    def test_correct_spec_passes_all(self):
        assert self.contract_ids(SSSPSpec()) == set()

    def test_derivative_divergence_c110(self):
        probes = default_workloads(LCCSpec())
        assert "LCC-directed" in {w.tag for w in probes}
        findings = check_spec_contracts(NoThirdVertexLCC(), probes)
        divergent = [f for f in findings if f.rule.id == "C110"]
        assert divergent and "λ" in divergent[0].message
        assert rule_ids(check_spec_contracts(LCCSpec(), probes)) == set()

    def test_derivative_stray_write_c110(self):
        findings = check_spec_contracts(StrayWriteLCC(), default_workloads(LCCSpec()))
        assert any("outside changed_input_keys" in f.message for f in findings)


# ======================================================================
# The gate: built-in specs must lint clean
# ======================================================================
class TestBuiltins:
    def test_discovery_finds_all_seven(self):
        names = [s.name for s in builtin_specs()]
        assert names == ["CC", "Coreness", "LCC", "Reach", "SSSP", "SSWP", "Sim"]

    def test_builtins_clean_structural(self):
        report = lint_specs(semantic=False)
        assert report.clean, report.render_text(verbose=True)
        assert report.findings == []

    def test_builtins_clean_semantic(self):
        report = lint_specs(semantic=True)
        assert report.clean, report.render_text(verbose=True)
        # Clean unsuppressed: SSWP's tie plateaus (including the tie-heavy
        # probe) stay bounded under the timestamp tie-break of <_C.
        assert report.suppressed == []
        assert all(not spec.lint_suppress for spec in builtin_specs())


# ======================================================================
# Registry, suppression, and report plumbing
# ======================================================================
class TestRegistryAndReport:
    def test_rule_lookup_by_id_and_name(self):
        assert lint_rules.get("S001") is lint_rules.get("mutating-update")
        with pytest.raises(KeyError):
            lint_rules.get("S999")

    def test_resolve_refs_mixes_ids_and_names(self):
        refs = lint_rules.resolve_refs(["C105", "mutating-update"])
        assert refs == frozenset({"C105", "S001"})

    def test_registry_is_consistent(self):
        assert len(RULES) >= 26  # S001-S009, C101-C110, T001-T007
        for rule_id, rule in RULES.items():
            assert rule.id == rule_id
            assert rule.kind in ("structural", "contract", "threads")

    def test_disable_marks_findings_suppressed(self):
        findings = lint_spec(MutatingSpec(), disabled=["mutating-update", "S007"])
        assert findings  # still reported ...
        assert all(f.suppressed for f in findings if f.rule.id in ("S001", "S007"))

    def test_spec_level_suppression(self):
        findings = lint_spec(WaivedMutatingSpec())
        s001 = [f for f in findings if f.rule.id == "S001"]
        assert s001 and all(f.suppressed for f in s001)

    def test_report_clean_ignores_suppressed_and_warnings(self):
        report = LintReport(
            findings=[
                LintFinding(lint_rules.get("S001"), "X", "waived", suppressed=True),
                LintFinding(lint_rules.get("S007"), "X", "warned"),
            ]
        )
        assert report.clean
        assert len(report.warnings) == 1 and len(report.suppressed) == 1

    def test_json_roundtrip(self):
        report = lint_specs([MutatingSpec()], semantic=False)
        doc = json.loads(report.render_json())
        assert doc["clean"] is False
        assert any(f["rule"] == "S001" for f in doc["findings"])

    def test_text_render_mentions_rule_and_spec(self):
        report = lint_specs([MutatingSpec()], semantic=False)
        text = report.render_text()
        assert "S001" in text and "[Mutating]" in text
        assert text.strip().endswith("0 suppressed")


# ======================================================================
# S008: kernel declaration vs edge_candidate
# ======================================================================
class TestKernelCandidateMismatch:
    def test_builtin_kernel_declarations_agree(self):
        from repro.lint.kernel_checks import check_kernel_declaration

        for spec in builtin_specs():
            assert check_kernel_declaration(spec) == [], spec.name

    def test_wrong_combine_is_flagged(self):
        from repro.kernels.spec import FLOAT, MAXNEG, VALUE, KernelSpec
        from repro.lint.kernel_checks import check_kernel_declaration

        class WrongKernelSSSP(SSSPSpec):
            def kernel(self):
                # min-plus spec falsely claiming the max-min combine
                return KernelSpec(
                    combine=MAXNEG, domain=FLOAT, prioritized=True,
                    anchor=VALUE, has_source=True,
                )

        findings = check_kernel_declaration(WrongKernelSSSP())
        assert rule_ids(findings) == {"S008"}
        assert "different fixpoint" in findings[0].message

    def test_crashing_edge_candidate_is_flagged(self):
        from repro.lint.kernel_checks import check_kernel_declaration

        class CrashingSSSP(SSSPSpec):
            def edge_candidate(self, dep, cause, cause_value, graph, query):
                raise RuntimeError("boom")

        findings = check_kernel_declaration(CrashingSSSP())
        assert rule_ids(findings) == {"S008"}
        assert "unverifiable" in findings[0].message

    def test_spec_without_kernel_has_no_findings(self):
        from repro.lint.kernel_checks import check_kernel_declaration

        assert check_kernel_declaration(_MinimalSpec()) == []

    def test_s008_runs_in_structural_pass(self):
        from repro.kernels.spec import FLOAT, MAXNEG, VALUE, KernelSpec

        class WrongKernelSSSP(SSSPSpec):
            def kernel(self):
                return KernelSpec(
                    combine=MAXNEG, domain=FLOAT, prioritized=True,
                    anchor=VALUE, has_source=True,
                )

        findings = lint_spec(WrongKernelSSSP(), semantic=False)
        assert "S008" in rule_ids(findings)


# ======================================================================
# S009 — kernel frontier seeding
# ======================================================================
class FrontierUnseedableSpec(_MinimalSpec):
    """Declares a kernel but leaves every anchor hook at its default, so
    the incremental kernel path has no |AFF|-sized seed set."""

    name = "FrontierUnseedable"

    def edge_candidate(self, key, cause, value, graph, query):
        return value  # consistent with the declared COPY combine (S008-clean)

    def kernel(self):
        from repro.kernels.spec import COPY, FLOAT, VALUE, KernelSpec

        return KernelSpec(COPY, FLOAT, prioritized=False, anchor=VALUE)


class WaivedFrontierSpec(FrontierUnseedableSpec):
    """Batch-only kernel intent, recorded via the suppress override."""

    name = "WaivedFrontier"
    lint_suppress = frozenset({"S009"})


class TestFrontierSeeding:
    def test_kernel_frontier_unseedable_s009(self):
        from repro.lint.kernel_checks import check_frontier_seeding

        findings = check_frontier_seeding(FrontierUnseedableSpec())
        assert rule_ids(findings) == {"S009"}
        message = findings[0].message
        for hook in ("changed_input_keys", "repair_seed_keys", "anchor_dependents"):
            assert hook in message

    def test_s009_silent_without_kernel(self):
        from repro.lint.kernel_checks import check_frontier_seeding

        assert not check_frontier_seeding(_MinimalSpec())

    def test_s009_reported_by_lint_spec(self):
        findings = [f for f in lint_spec(FrontierUnseedableSpec()) if f.rule.id == "S009"]
        assert findings and not any(f.suppressed for f in findings)
        assert findings[0].severity in ("", "warning") or findings[0].rule.severity == "warning"

    def test_s009_suppress_override(self):
        findings = [f for f in lint_spec(WaivedFrontierSpec()) if f.rule.id == "S009"]
        assert findings and all(f.suppressed for f in findings)

    def test_builtin_kernels_seed_frontiers(self):
        from repro.lint.kernel_checks import check_frontier_seeding

        assert not check_frontier_seeding(SSSPSpec())


# ======================================================================
# S008/S009 edge cases: the declaration hook itself misbehaving
# ======================================================================
class TestKernelCheckEdgeCases:
    def test_s008_kernel_hook_raising_is_flagged(self):
        from repro.lint.kernel_checks import check_kernel_declaration

        class RaisingKernelSpec(_MinimalSpec):
            name = "RaisingKernel"

            def kernel(self):
                raise RuntimeError("declaration exploded")

        findings = check_kernel_declaration(RaisingKernelSpec())
        assert rule_ids(findings) == {"S008"}
        assert "must not fail" in findings[0].message

    def test_s009_silent_when_kernel_hook_raises(self):
        # A crashing kernel() is S008's finding; S009 must not pile a
        # second, misleading "unseedable" report on top of it.
        from repro.lint.kernel_checks import check_frontier_seeding

        class RaisingKernelSpec(_MinimalSpec):
            name = "RaisingKernel"

            def kernel(self):
                raise RuntimeError("declaration exploded")

        assert check_frontier_seeding(RaisingKernelSpec()) == []

    def test_s009_partial_override_names_only_missing_hooks(self):
        from repro.lint.kernel_checks import check_frontier_seeding

        class HalfSeededSpec(FrontierUnseedableSpec):
            name = "HalfSeeded"

            def changed_input_keys(self, graph, delta, query):
                return []

        findings = check_frontier_seeding(HalfSeededSpec())
        assert rule_ids(findings) == {"S009"}
        message = findings[0].message
        assert "changed_input_keys" not in message
        assert "repair_seed_keys" in message
        assert "anchor_dependents" in message

    def test_s009_full_override_is_clean(self):
        from repro.lint.kernel_checks import check_frontier_seeding

        class FullySeededSpec(FrontierUnseedableSpec):
            name = "FullySeeded"

            def changed_input_keys(self, graph, delta, query):
                return []

            def repair_seed_keys(self, graph, delta, query):
                return []

            def anchor_dependents(self, key, graph, query):
                return []

        assert check_frontier_seeding(FullySeededSpec()) == []

    def test_s008_and_s009_both_fire_on_unverifiable_unseedable_spec(self):
        # A spec that declares a kernel, has no incremental path *and*
        # whose claim cannot be replayed gets both findings from the
        # structural pass — neither masks the other.
        findings = lint_spec(FrontierUnseedableSpec(), semantic=False)
        ids = rule_ids(findings)
        assert "S009" in ids
        assert "S008" not in ids  # the COPY claim replays consistently
