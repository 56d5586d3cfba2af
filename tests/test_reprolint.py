"""Tests for ``reprolint`` (:mod:`repro.analysis`).

Three layers: the rule framework (registry, suppressions, selection,
report round-trips), the four production rules against the checked-in
known-bad fixture tree under ``tests/fixtures/reprolint/badtree``, and
the acceptance contract — the shipped tree lints clean, while a mutated
copy of it (a lambda scheduled in ``repro.sim``, a module dropped from
the fingerprint set) fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintError,
    Project,
    Rule,
    default_project,
    register_rule,
    registered_rules,
    resolve_rules,
    run_lint,
    unregister_rule,
)
from repro.harness.__main__ import main

BADTREE = Path(__file__).parent / "fixtures" / "reprolint" / "badtree"


def badtree_project(**replacements) -> Project:
    """The fixture tree, with ``outside.py`` excluded from the
    fingerprint set (the RL003 coverage hazard)."""
    fingerprint = frozenset(
        path.resolve() for path in BADTREE.rglob("*.py")
        if path.name != "outside.py")
    project = Project(root=BADTREE, package="badtree",
                      fingerprint_paths=fingerprint)
    return dataclasses.replace(project, **replacements) \
        if replacements else project


def findings_for(code: str, project: Project = None) -> list[Finding]:
    report = run_lint(project or badtree_project(), rules=[code])
    assert report.rules == (code,)
    return report.findings


class TestShippedTreeClean:
    """The acceptance gate: the real tree has zero findings."""

    def test_shipped_tree_is_clean(self):
        report = run_lint()
        assert report.ok, report.render()
        assert report.findings == []
        # All five production rules actually ran over the whole package.
        assert report.rules == ("RL001", "RL002", "RL003", "RL004",
                                "RL005")
        assert report.checked_files >= 50

    def test_default_project_fingerprint_matches_engine(self):
        from repro.harness.engine import fingerprint_paths
        project = default_project()
        assert project.fingerprint_paths == frozenset(
            path.resolve() for path in fingerprint_paths())
        # The analyzer itself is fingerprinted too (it lives in the
        # package tree), so lint-rule changes re-key the result cache.
        assert any(path.name == "rules_fork.py"
                   for path in project.fingerprint_paths)


class TestRL001ForkSafety:
    def test_all_three_spellings_fire(self):
        findings = findings_for("RL001")
        lines = {finding.line for finding in findings}
        assert all(f.path == "sim/bad_fork.py" for f in findings)
        # legacy .schedule, lambda to push_drain, local fn to heappush
        assert len(findings) == 3
        assert {11, 14, 19} == lines
        messages = " ".join(f.message for f in findings)
        assert "plain data" in messages
        assert "closure scheduling" in messages
        assert "local function 'callback'" in messages

    def test_machine_heap_entry_points_are_sinks(self, tmp_path):
        # The machine's queue is C and holds plain data; these are its
        # entry points.
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "mod.py").write_text(
            "def arm(m, lib):\n"
            "    m.push_drain(1.0, lambda t: None, 0)\n"
            "    lib.loop_push(m.loop, 1.0, -5, 2, lambda t: None)\n")
        report = run_lint(Project(root=tmp_path, package="pkg"),
                          rules=["RL001"])
        assert [(f.line, f.code) for f in report.findings] \
            == [(2, "RL001"), (3, "RL001")]
        assert "loop_push" in report.findings[1].message

    def test_scoped_to_sim_and_core(self, tmp_path):
        # The same hazard outside sim/ or core/ is not RL001's business
        # (the harness may schedule closures; it never forks).
        (tmp_path / "harness").mkdir()
        (tmp_path / "harness" / "mod.py").write_text(
            "def arm(m):\n    m.schedule(1.0, lambda t: None)\n")
        report = run_lint(Project(root=tmp_path, package="pkg"),
                          rules=["RL001"])
        assert report.ok


class TestRL002Determinism:
    def test_each_hazard_fires_once(self):
        findings = findings_for("RL002")
        assert all(f.path == "sim/bad_entropy.py" for f in findings)
        by_line = {finding.line: finding.message for finding in findings}
        assert 9 in by_line and "time.time" in by_line[9]
        assert 17 in by_line and "random.random" in by_line[17]
        assert 25 in by_line and "id()" in by_line[25]
        assert 30 in by_line and "sorted(" in by_line[30]
        assert len(findings) == 4

    def test_suppressed_hit_does_not_fail(self):
        report = run_lint(badtree_project(), rules=["RL002"])
        # Line 13 carries ``# reprolint: disable=RL002``: same hazard
        # as line 9, absent from the findings, counted as suppressed.
        assert all(finding.line != 13 for finding in report.findings)
        assert report.suppressed == 1

    def test_seeded_rng_not_flagged(self):
        findings = findings_for("RL002")
        assert all("Random(seed)" not in finding.message
                   for finding in findings)
        assert all(finding.line != 21 for finding in findings)


class TestRL003FingerprintCoverage:
    def test_uncovered_reachable_module_fires(self):
        findings = findings_for("RL003")
        uncovered = [f for f in findings if f.path == "outside.py"]
        assert len(uncovered) == 1
        assert "outside the code_fingerprint() file set" \
            in uncovered[0].message

    def test_unresolvable_import_fires(self):
        findings = findings_for("RL003")
        ghost = [f for f in findings if "badtree.ghost" in f.message]
        assert len(ghost) == 1
        assert ghost[0].path == "harness/engine.py"

    def test_register_workload_without_fingerprint_fires(self):
        findings = findings_for("RL003")
        plugin = [f for f in findings if f.path == "plugins.py"]
        assert len(plugin) == 1
        assert plugin[0].line == 11
        assert "fingerprint" in plugin[0].message

    def test_missing_entrypoint_reported(self):
        project = badtree_project(entrypoints=("execute_run",
                                               "no_such_fn"))
        findings = findings_for("RL003", project)
        assert any("no_such_fn" in finding.message
                   for finding in findings)

    def test_full_fingerprint_set_clears_coverage(self):
        project = badtree_project(
            fingerprint_paths=frozenset(
                path.resolve() for path in BADTREE.rglob("*.py")))
        findings = findings_for("RL003", project)
        assert not any(finding.path == "outside.py"
                       for finding in findings)


class TestRL004CacheIdentity:
    def test_mutable_identity_types_fire(self):
        findings = findings_for("RL004")
        names = {finding.message.split()[1] for finding in findings}
        assert names == {"Knob", "Overrides"}
        assert all(finding.path == "keys.py" for finding in findings)

    def test_frozen_and_explicit_identities_pass(self):
        findings = findings_for("RL004")
        messages = " ".join(finding.message for finding in findings)
        assert "GoodTag" not in messages
        assert "RunKey" not in messages


class TestRL005TraceImmutability:
    def test_every_mutation_spelling_fires(self):
        findings = findings_for("RL005")
        assert all(f.path == "sim/bad_trace_mutation.py"
                   for f in findings)
        by_line = {finding.line: finding.message for finding in findings}
        assert 5 in by_line and ".ops" in by_line[5]          # a[i] = v
        assert 6 in by_line and "augmented" in by_line[6]     # a[i] += v
        assert 7 in by_line and ".frombytes" in by_line[7]    # mutator
        assert 8 in by_line and "deletion" in by_line[8]      # del a[i]
        assert len(findings) == 4

    def test_rebinding_and_locals_not_flagged(self):
        # ``core.ops = trace.ops.tolist()`` (attribute rebind), a bare
        # local ``ops.append`` and ``trace.args = list(...)`` are all
        # legal — only *in-place* column mutation is the hazard.
        findings = findings_for("RL005")
        assert all(finding.line not in (11, 12, 13, 14)
                   for finding in findings)

    def test_suppression_honoured(self):
        report = run_lint(badtree_project(), rules=["RL005"])
        assert all(finding.line != 15 for finding in report.findings)
        assert report.suppressed == 1

    def test_trace_builder_home_is_exempt(self, tmp_path):
        # trace.py owns the builder: from_bytes fills fresh arrays via
        # exactly the calls RL005 bans elsewhere.
        (tmp_path / "trace.py").write_text(
            "def from_bytes(self, data):\n"
            "    self.ops.frombytes(data)\n")
        (tmp_path / "other.py").write_text(
            "def bad(t, data):\n"
            "    t.ops.frombytes(data)\n")
        report = run_lint(Project(root=tmp_path, package="pkg"),
                          rules=["RL005"])
        assert [f.path for f in report.findings] == ["other.py"]


class TestFramework:
    def test_unknown_rule_code_errors(self):
        with pytest.raises(LintError, match="RL999"):
            run_lint(badtree_project(), rules=["RL999"])
        with pytest.raises(LintError, match="known"):
            resolve_rules(["nope"])

    def test_rules_selection_runs_only_selected(self):
        report = run_lint(badtree_project(), rules=["RL001", "RL004"])
        assert report.rules == ("RL001", "RL004")
        assert {finding.code for finding in report.findings} \
            == {"RL001", "RL004"}

    def test_json_round_trips(self):
        report = run_lint(badtree_project())
        payload = json.loads(report.render_json())
        assert payload["ok"] is False
        assert payload["rules"] == ["RL001", "RL002", "RL003", "RL004",
                                    "RL005"]
        assert payload["suppressed"] == report.suppressed
        assert len(payload["findings"]) == len(report.findings)
        first = payload["findings"][0]
        assert set(first) == {"path", "line", "code", "message"}

    def test_register_rule_mirrors_registries(self):
        class ToyRule(Rule):
            code = "RX900"
            name = "toy"

        register_rule(ToyRule())
        try:
            assert any(rule.code == "RX900"
                       for rule in registered_rules())
            with pytest.raises(ValueError, match="already registered"):
                register_rule(ToyRule())
            register_rule(ToyRule(), replace=True)
        finally:
            unregister_rule("RX900")
        with pytest.raises(KeyError):
            unregister_rule("RX900")

    def test_rule_without_code_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_rule(Rule())

    def test_parse_error_is_a_lint_error(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        with pytest.raises(LintError, match="broken.py"):
            run_lint(Project(root=tmp_path, package="pkg"))


class TestMutatedShippedTree:
    """The CI contract: introducing either hazard into a copy of the
    real tree makes the lint exit non-zero."""

    @pytest.fixture()
    def tree_copy(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(default_project().root, root)
        return root

    def test_lambda_scheduled_in_sim_fails(self, tree_copy):
        machine = tree_copy / "sim" / "machine.py"
        machine.write_text(machine.read_text() + (
            "\n\ndef _bad_arm(machine, when):\n"
            "    machine.push_drain(when, lambda t: None, 0)\n"))
        report = run_lint(Project(root=tree_copy, package="repro"),
                          rules=["RL001"])
        assert not report.ok
        assert any("lambda" in finding.message
                   for finding in report.findings)

    def test_module_outside_fingerprint_set_fails(self, tree_copy):
        paths = frozenset(
            path.resolve() for path in tree_copy.rglob("*.py")
            if path.name != "faults.py")
        report = run_lint(
            Project(root=tree_copy, package="repro",
                    fingerprint_paths=paths), rules=["RL003"])
        assert not report.ok
        assert any("repro.sim.faults" in finding.message
                   for finding in report.findings)

    def test_deleting_a_reachable_module_fails(self, tree_copy):
        (tree_copy / "sim" / "faults.py").unlink()
        report = run_lint(Project(root=tree_copy, package="repro"),
                          rules=["RL003"])
        assert not report.ok
        assert any("resolves to no module file" in finding.message
                   for finding in report.findings)


class TestLintCli:
    def test_shipped_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "reprolint: clean" in out

    def test_bad_tree_exits_one(self, capsys):
        assert main(["lint", "--root", str(BADTREE)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out

    def test_rules_comma_and_space_tokens(self, capsys):
        assert main(["lint", "--rules", "RL001,RL002", "RL004"]) == 0
        out = capsys.readouterr().out
        assert "[RL001,RL002,RL004]" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rules", "RL999"]) == 2
        assert "RL999" in capsys.readouterr().err

    def test_json_output_parses(self, capsys):
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005"):
            assert code in out


class TestEnvParsing:
    """Satellite: garbage env values fail with one clear line naming
    the variable, not a bare ValueError deep in engine setup."""

    def test_repro_jobs_garbage_rejected(self, monkeypatch):
        from repro.harness.engine import default_jobs
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS.*'abc'"):
            default_jobs()

    def test_repro_jobs_valid_values(self, monkeypatch):
        from repro.harness.engine import default_jobs
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1          # clamped, as before

    def test_repro_no_cache_garbage_rejected(self, monkeypatch,
                                             tmp_path):
        from repro.harness.engine import ExperimentEngine
        monkeypatch.setenv("REPRO_NO_CACHE", "maybe")
        with pytest.raises(ValueError, match="REPRO_NO_CACHE.*'maybe'"):
            ExperimentEngine(jobs=1, cache_dir=tmp_path)

    def test_repro_no_cache_truthy_spellings(self, monkeypatch,
                                             tmp_path):
        from repro.harness.engine import ExperimentEngine
        for text in ("1", "true", "YES"):
            monkeypatch.setenv("REPRO_NO_CACHE", text)
            engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
            assert engine.use_disk_cache is False


class TestRegistryFingerprintValidation:
    """Satellite: an empty fingerprint is a never-changing invalidation
    signal — the registry must reject it outright."""

    def test_empty_fingerprint_rejected(self):
        from repro.workloads import register_workload

        def build(n_threads, config, intervals, seed):
            raise NotImplementedError

        with pytest.raises(ValueError, match="fingerprint"):
            register_workload("rl_fixture_empty", build, fingerprint="")
        with pytest.raises(ValueError, match="fingerprint"):
            register_workload("rl_fixture_blank", build,
                              fingerprint="   ")
        with pytest.raises(ValueError, match="fingerprint"):
            register_workload("rl_fixture_typed", build,
                              fingerprint=b"v1")

    def test_real_fingerprint_still_accepted(self):
        from repro.workloads import register_workload
        from repro.workloads.registry import unregister_workload

        def build(n_threads, config, intervals, seed):
            raise NotImplementedError

        register_workload("rl_fixture_ok", build, fingerprint="v1")
        unregister_workload("rl_fixture_ok")
