#!/usr/bin/env python3
"""Self-tests for scripts/check_locking.py, scripts/check_lock_graph.py,
and the shared scripts/lintlib.py machinery.

Runs each locking fixture under tests/lint/fixtures/ through the linter and
asserts exact per-rule finding counts and lines, that the mutex-rank rule is
src/-scoped, that `// smn-lint: allow(<rule>)` suppression works, and that
the shipped src/ tree stays clean. The lock-graph gate is exercised
end-to-end over synthetic edge dumps: merge, cycle detection, DOT output
determinism, and the --require-edges CI guard. Written against the stdlib
unittest runner (pytest collects these too).
"""

from __future__ import annotations

import collections
import os
import re
import subprocess
import sys
import tempfile
import unittest

TEST_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(TEST_DIR))
FIXTURES = os.path.join(TEST_DIR, "fixtures")
SCRIPTS = os.path.join(REPO_ROOT, "scripts")
LINTER = os.path.join(SCRIPTS, "check_locking.py")
GRAPH_GATE = os.path.join(SCRIPTS, "check_lock_graph.py")

sys.path.insert(0, SCRIPTS)
import lintlib  # noqa: E402

lint = lintlib.load_script(LINTER, "check_locking")


def scan_fixture(name, rel=None):
    """Scans a fixture, optionally under a fake repo-relative path — the
    mutex-rank rule only applies under src/, so fixtures opt in by
    pretending to live there."""
    path = os.path.join(FIXTURES, name)
    return lint.scan_file(path, rel or os.path.relpath(path, REPO_ROOT))


def rule_counts(findings):
    return collections.Counter(f.rule for f in findings)


class LintlibTest(unittest.TestCase):
    """The shared machinery both linters are built on."""

    def test_strip_preserves_offsets_and_newlines(self):
        raw = 'int a; // rand()\nconst char* s = "std::mutex";\n'
        stripped = lintlib.strip_comments_and_strings(raw)
        self.assertEqual(len(stripped), len(raw))
        self.assertEqual(stripped.count("\n"), raw.count("\n"))
        self.assertNotIn("rand", stripped)
        self.assertNotIn("std::mutex", stripped)
        self.assertIn("int a;", stripped)

    def test_allowed_rules_same_line_and_line_above(self):
        lines = ["// smn-lint: allow(a-rule)",
                 "violation();",
                 "other(); // smn-lint: allow(b-rule, c-rule)"]
        self.assertEqual(lintlib.allowed_rules(lines, 2), {"a-rule"})
        self.assertEqual(lintlib.allowed_rules(lines, 3),
                         {"b-rule", "c-rule"})
        self.assertEqual(lintlib.allowed_rules(lines, 1), {"a-rule"})

    def test_typed_variable_names_handles_nesting(self):
        text = ("std::vector<std::future<int>> futures;\n"
                "std::future<Status> routed;\n"
                "int future_count = 0;\n")
        names = lintlib.typed_variable_names(
            text, re.compile(r"\bfuture\s*<"))
        self.assertEqual(names, {"futures", "routed"})

    def test_iter_sources_skips_fixture_dirs_but_takes_explicit_files(self):
        walked = [rel for _, rel in
                  lintlib.iter_sources([TEST_DIR], REPO_ROOT)]
        self.assertEqual([r for r in walked if "fixtures" in r], [])
        explicit = os.path.join(FIXTURES, "locking_clean.cc")
        taken = [rel for _, rel in
                 lintlib.iter_sources([explicit], REPO_ROOT)]
        self.assertEqual(len(taken), 1)


class FixtureFindingsTest(unittest.TestCase):
    """Each rule fires on its dedicated fixture, exactly where expected."""

    def test_mutex_rank_fires_on_each_unranked_shape_under_src(self):
        findings = scan_fixture("locking_unranked_mutex.cc",
                                rel="src/lint_fixture.cc")
        self.assertEqual(rule_counts(findings), {"mutex-rank": 3})
        self.assertEqual(sorted(f.line for f in findings), [15, 16, 17],
                         "ranked and reference declarations must not fire")

    def test_mutex_rank_is_src_scoped(self):
        findings = scan_fixture("locking_unranked_mutex.cc",
                                rel="tests/lint_fixture.cc")
        self.assertEqual(findings, [],
                         "tests may use ad-hoc unranked mutexes")

    def test_raw_sync_fires_per_primitive_use(self):
        findings = scan_fixture("locking_raw_sync.cc")
        self.assertEqual(rule_counts(findings), {"raw-sync": 4})
        self.assertEqual(sorted(f.line for f in findings), [9, 10, 13, 13],
                         "identifiers merely containing the names must not "
                         "fire")

    def test_blocking_in_lock_fires_only_inside_live_scopes(self):
        findings = scan_fixture("locking_blocking_in_lock.cc")
        self.assertEqual(rule_counts(findings), {"blocking-in-lock": 6})
        self.assertEqual(sorted(f.line for f in findings),
                         [15, 16, 17, 18, 36, 38],
                         "calls after a scope closes (lines 26, 28) must "
                         "not fire; nested and outer scopes both count")

    def test_unpaired_lock_fires_on_leak_and_temporary(self):
        findings = scan_fixture("locking_unpaired_lock.cc")
        self.assertEqual(rule_counts(findings), {"unpaired-lock": 2})
        self.assertEqual(sorted(f.line for f in findings), [9, 14],
                         "the balanced manual pair must not fire")

    def test_assert_in_thread_fires_only_in_thread_lambdas(self):
        findings = scan_fixture("locking_assert_in_thread.cc")
        self.assertEqual(rule_counts(findings), {"assert-in-thread": 3})
        self.assertEqual(sorted(f.line for f in findings), [12, 17, 19],
                         "EXPECT_*, non-thread lambdas and the test's own "
                         "thread must not fire")

    def test_findings_carry_rule_ids_known_to_the_cli(self):
        for fixture, rel in (("locking_unranked_mutex.cc", "src/f.cc"),
                             ("locking_raw_sync.cc", None),
                             ("locking_blocking_in_lock.cc", None),
                             ("locking_unpaired_lock.cc", None),
                             ("locking_assert_in_thread.cc", None)):
            for finding in scan_fixture(fixture, rel=rel):
                self.assertIn(finding.rule, lint.RULES)


class SuppressionTest(unittest.TestCase):
    """allow-comments silence findings; clean code stays clean."""

    def test_allow_comment_suppresses_every_rule(self):
        self.assertEqual(
            scan_fixture("locking_suppressed.cc", rel="src/lint_fixture.cc"),
            [])

    def test_clean_fixture_has_no_findings(self):
        self.assertEqual(
            scan_fixture("locking_clean.cc", rel="src/lint_fixture.cc"), [])

    def test_allow_list_must_name_the_firing_rule(self):
        source = ("// smn-lint: allow(blocking-in-lock)\n"
                  "std::mutex wrong_rule_named;\n")
        path = os.path.join(FIXTURES, "_scratch_locking_wrong_rule.cc")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        try:
            findings = lint.scan_file(path, "tests/lint/_scratch.cc")
        finally:
            os.remove(path)
        self.assertEqual(rule_counts(findings), {"raw-sync": 1})


class AllowedPathsTest(unittest.TestCase):
    """Sanctioned implementation sites are exempt from their own rule."""

    def test_mutex_wrapper_may_use_raw_primitives(self):
        path = os.path.join(REPO_ROOT, "src", "util", "mutex.h")
        findings = lint.scan_file(path, "src/util/mutex.h")
        self.assertEqual([f for f in findings if f.rule == "raw-sync"], [])

    def test_lock_rank_checker_may_use_raw_primitives(self):
        path = os.path.join(REPO_ROOT, "src", "util", "lock_rank.cc")
        findings = lint.scan_file(path, "src/util/lock_rank.cc")
        self.assertEqual([f for f in findings if f.rule == "raw-sync"], [])

    def test_allowed_paths_reference_real_rules_and_files(self):
        for rule, paths in lint.ALLOWED_PATHS.items():
            self.assertIn(rule, lint.RULES)
            for rel in paths:
                self.assertTrue(
                    os.path.isfile(os.path.join(REPO_ROOT, rel)),
                    f"ALLOWED_PATHS names a missing file: {rel}")


class CliTest(unittest.TestCase):
    """End-to-end: the CLI exit codes CI keys off."""

    def run_linter(self, *argv):
        return subprocess.run(
            [sys.executable, LINTER, "--root", REPO_ROOT, *argv],
            cwd=REPO_ROOT, capture_output=True, text=True)

    def test_src_tree_is_clean(self):
        result = self.run_linter(os.path.join(REPO_ROOT, "src"))
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("clean", result.stdout)

    def test_tests_tree_has_no_fatal_assertions_in_thread_lambdas(self):
        result = self.run_linter(os.path.join(REPO_ROOT, "tests"))
        self.assertNotIn("assert-in-thread", result.stderr)

    def test_violating_fixture_fails_with_report(self):
        result = self.run_linter(
            os.path.join(FIXTURES, "locking_raw_sync.cc"))
        self.assertEqual(result.returncode, 1)
        self.assertIn("raw-sync", result.stderr)

    def test_list_rules(self):
        result = self.run_linter("--list-rules")
        self.assertEqual(result.returncode, 0)
        for rule in lint.RULES:
            self.assertIn(rule, result.stdout)


class LockGraphGateTest(unittest.TestCase):
    """check_lock_graph.py over synthetic edge dumps."""

    def run_gate(self, *argv):
        return subprocess.run([sys.executable, GRAPH_GATE, *argv],
                              capture_output=True, text=True)

    def write_dump(self, directory, name, lines):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        return path

    def test_acyclic_graph_passes_and_reports_totals(self):
        with tempfile.TemporaryDirectory() as tmp:
            dump = self.write_dump(tmp, "edges.tsv",
                                   ["session.state\tshard.coordinator\t4",
                                    "shard.coordinator\tqueue.state\t2",
                                    "session.state\tpool.queue\t1"])
            result = self.run_gate(dump)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("acyclic", result.stdout)
        self.assertIn("7 acquisition(s)", result.stdout)

    def test_cycle_fails_and_names_the_cycle(self):
        with tempfile.TemporaryDirectory() as tmp:
            dump = self.write_dump(tmp, "edges.tsv",
                                   ["a\tb\t1", "b\tc\t1", "c\ta\t1"])
            result = self.run_gate(dump)
        self.assertEqual(result.returncode, 1)
        self.assertIn("cycle", result.stderr)
        self.assertIn("a -> b -> c -> a", result.stderr)

    def test_merge_sums_counts_across_process_dumps(self):
        with tempfile.TemporaryDirectory() as tmp:
            one = self.write_dump(tmp, "one.tsv", ["a\tb\t2"])
            two = self.write_dump(tmp, "two.tsv", ["a\tb\t3", "b\tc\t1"])
            dot = os.path.join(tmp, "graph.dot")
            result = self.run_gate(one, two, "--dot", dot)
            self.assertEqual(result.returncode, 0, result.stderr)
            with open(dot, encoding="utf-8") as handle:
                rendered = handle.read()
        self.assertIn('"a" -> "b" [label="5"];', rendered)
        self.assertIn('"b" -> "c" [label="1"];', rendered)

    def test_dot_output_is_deterministic(self):
        with tempfile.TemporaryDirectory() as tmp:
            dump = self.write_dump(tmp, "edges.tsv",
                                   ["z\ty\t1", "a\tb\t1", "m\tn\t1"])
            first = os.path.join(tmp, "first.dot")
            second = os.path.join(tmp, "second.dot")
            self.run_gate(dump, "--dot", first)
            self.run_gate(dump, "--dot", second)
            with open(first, encoding="utf-8") as handle:
                one = handle.read()
            with open(second, encoding="utf-8") as handle:
                two = handle.read()
        self.assertEqual(one, two)
        self.assertLess(one.index('"a" -> "b"'), one.index('"m" -> "n"'))
        self.assertLess(one.index('"m" -> "n"'), one.index('"z" -> "y"'))

    def test_malformed_lines_warn_but_do_not_crash(self):
        with tempfile.TemporaryDirectory() as tmp:
            dump = self.write_dump(tmp, "edges.tsv",
                                   ["a\tb\t1", "torn-line-no-tabs",
                                    "c\td\tnot-a-number", "c\td\t2"])
            result = self.run_gate(dump)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(result.stderr.count("warning"), 2)
        self.assertIn("2 distinct edge(s)", result.stdout)

    def test_require_edges_guards_against_silently_disabled_debug(self):
        with tempfile.TemporaryDirectory() as tmp:
            dump = self.write_dump(tmp, "edges.tsv", [])
            passing = self.run_gate(dump)
            gated = self.run_gate(dump, "--require-edges")
        self.assertEqual(passing.returncode, 0)
        self.assertEqual(gated.returncode, 1)
        self.assertIn("SMN_LOCK_DEBUG", gated.stderr)

    def test_missing_dump_is_a_usage_error(self):
        result = self.run_gate("/nonexistent/edges.tsv")
        self.assertEqual(result.returncode, 2)


if __name__ == "__main__":
    unittest.main()
