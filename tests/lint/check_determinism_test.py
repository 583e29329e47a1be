#!/usr/bin/env python3
"""Self-tests for scripts/check_determinism.py.

Runs each fixture under tests/lint/fixtures/ through the linter and asserts
the exact per-rule finding counts, that `// smn-lint: allow(<rule>)`
suppression works (same line and line above, single and comma-separated),
and that the shipped src/ tree stays clean. Written against the stdlib
unittest runner (pytest collects these too).
"""

from __future__ import annotations

import collections
import os
import subprocess
import sys
import unittest

TEST_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(TEST_DIR))
FIXTURES = os.path.join(TEST_DIR, "fixtures")
SCRIPTS = os.path.join(REPO_ROOT, "scripts")
LINTER = os.path.join(SCRIPTS, "check_determinism.py")

sys.path.insert(0, SCRIPTS)
import lintlib  # noqa: E402

lint = lintlib.load_script(LINTER, "check_determinism")


def scan_fixture(name):
    path = os.path.join(FIXTURES, name)
    return lint.scan_file(path, os.path.relpath(path, REPO_ROOT))


def rule_counts(findings):
    return collections.Counter(f.rule for f in findings)


class FixtureFindingsTest(unittest.TestCase):
    """Each rule fires on its dedicated fixture, exactly where expected."""

    def test_unordered_iter_fires_on_each_loop_shape(self):
        findings = scan_fixture("unordered_iter.cc")
        self.assertEqual(rule_counts(findings), {"unordered-iter": 3})

    def test_raw_random_fires_on_each_call(self):
        findings = scan_fixture("banned_random.cc")
        self.assertEqual(rule_counts(findings), {"raw-random": 3})

    def test_wall_clock_fires_including_aliased_clock(self):
        findings = scan_fixture("banned_clock.cc")
        self.assertEqual(rule_counts(findings), {"wall-clock": 3})

    def test_pointer_key_fires_only_on_pointer_keys(self):
        findings = scan_fixture("pointer_keyed.cc")
        self.assertEqual(rule_counts(findings), {"pointer-key": 2})
        lines = sorted(f.line for f in findings)
        self.assertEqual(lines, [12, 13],
                         "pointer *values* and value keys must not fire")

    def test_thread_local_fires(self):
        findings = scan_fixture("thread_local_state.cc")
        self.assertEqual(rule_counts(findings), {"thread-local": 1})

    def test_raw_write_fires_on_fd_writes_but_not_member_writes(self):
        findings = scan_fixture("raw_write.cc")
        self.assertEqual(rule_counts(findings), {"raw-write": 5})
        lines = sorted(f.line for f in findings)
        self.assertEqual(lines, [9, 10, 11, 15, 16],
                         "std::ostream::write member calls must not fire")

    def test_findings_carry_rule_ids_known_to_the_cli(self):
        for fixture in ("unordered_iter.cc", "banned_random.cc",
                        "banned_clock.cc", "pointer_keyed.cc",
                        "thread_local_state.cc", "raw_write.cc"):
            for finding in scan_fixture(fixture):
                self.assertIn(finding.rule, lint.RULES)


class SuppressionTest(unittest.TestCase):
    """allow-comments silence findings; clean code stays clean."""

    def test_allow_comment_suppresses_every_rule(self):
        self.assertEqual(scan_fixture("suppressed.cc"), [])

    def test_clean_fixture_has_no_findings(self):
        self.assertEqual(scan_fixture("clean.cc"), [])

    def test_suppression_is_line_scoped(self):
        # The allow comment protects its own line and the next one — a
        # violation two lines below must still be reported.
        source = ("// smn-lint: allow(raw-random)\n"
                  "int a = 0;\n"
                  "int b = rand();\n")
        path = os.path.join(FIXTURES, "_scratch_line_scope.cc")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        try:
            findings = lint.scan_file(path, "tests/lint/_scratch_line_scope.cc")
        finally:
            os.remove(path)
        self.assertEqual(rule_counts(findings), {"raw-random": 1})

    def test_allow_list_must_name_the_firing_rule(self):
        source = ("// smn-lint: allow(wall-clock)\n"
                  "int b = rand();\n")
        path = os.path.join(FIXTURES, "_scratch_wrong_rule.cc")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        try:
            findings = lint.scan_file(path, "tests/lint/_scratch_wrong_rule.cc")
        finally:
            os.remove(path)
        self.assertEqual(rule_counts(findings), {"raw-random": 1})


class AllowedPathsTest(unittest.TestCase):
    """Sanctioned implementation sites are exempt from their own rule."""

    def test_rng_may_use_raw_entropy(self):
        path = os.path.join(REPO_ROOT, "src", "util", "rng.h")
        findings = lint.scan_file(path, "src/util/rng.h")
        self.assertEqual([f for f in findings if f.rule == "raw-random"], [])

    def test_stopwatch_may_read_the_clock(self):
        path = os.path.join(REPO_ROOT, "src", "util", "stopwatch.h")
        findings = lint.scan_file(path, "src/util/stopwatch.h")
        self.assertEqual([f for f in findings if f.rule == "wall-clock"], [])

    def test_lock_rank_may_use_thread_local(self):
        path = os.path.join(REPO_ROOT, "src", "util", "lock_rank.cc")
        findings = lint.scan_file(path, "src/util/lock_rank.cc")
        self.assertEqual([f for f in findings if f.rule == "thread-local"], [])

    def test_walk_scratch_is_not_exempt_from_thread_local(self):
        # Walk scratch is caller-owned; a per-thread fallback reappearing in
        # its header must fire like anywhere else.
        self.assertNotIn("src/core/walk_scratch.h",
                         lint.ALLOWED_PATHS["thread-local"])
        source = ("inline int& Fallback() {\n"
                  "  thread_local int scratch = 0;\n"
                  "  return scratch;\n"
                  "}\n")
        path = os.path.join(FIXTURES, "_scratch_walk_scratch.h")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        try:
            findings = lint.scan_file(path, "src/core/walk_scratch.h")
        finally:
            os.remove(path)
        self.assertEqual(rule_counts(findings), {"thread-local": 1})

    def test_record_codec_may_write_raw_bytes(self):
        path = os.path.join(REPO_ROOT, "src", "util", "record_codec.cc")
        findings = lint.scan_file(path, "src/util/record_codec.cc")
        self.assertEqual([f for f in findings if f.rule == "raw-write"], [])

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

    def test_violating_fixture_fails_with_report(self):
        result = self.run_linter(os.path.join(FIXTURES, "banned_random.cc"))
        self.assertEqual(result.returncode, 1)
        self.assertIn("raw-random", result.stderr)

    def test_list_rules(self):
        result = self.run_linter("--list-rules")
        self.assertEqual(result.returncode, 0)
        for rule in lint.RULES:
            self.assertIn(rule, result.stdout)


if __name__ == "__main__":
    unittest.main()
