#!/usr/bin/env python3
"""Repo-specific determinism linter: walks C++ sources and fails on the
nondeterminism sources the bit-identical reproduction contract
(ARCHITECTURE.md, "Determinism contract") bans. Runtime equivalence tests
catch these probabilistically; this lint catches them on every build.

Rules:

  unordered-iter   Iteration over std::unordered_map / std::unordered_set
                   (range-for or .begin() loops). Hash-table iteration order
                   is implementation- and address-dependent, so any
                   output-affecting loop over one is nondeterministic.
                   Membership tests, counts, and find() are fine.
  raw-random       rand(), srand(), random(), std::random_device,
                   arc4random, getrandom outside src/util/rng.* — all
                   randomness must flow through the seeded, forkable Rng.
  wall-clock       std::chrono::*_clock::now(), time(), clock(),
                   gettimeofday, clock_gettime outside src/util/stopwatch.h
                   — clocks may feed timing telemetry, never sampler input.
  pointer-key      std::map / std::set keyed by a pointer type: ordered by
                   address, i.e. by ASLR. Key by a stable id instead.
  thread-local     thread_local state anywhere but the lock-debug held-lock
                   stack (src/util/lock_rank.cc), which is diagnostic-only
                   and compiled out of release builds. Walk working memory
                   is a caller-owned WalkScratch, never per-thread state.
  raw-write        fwrite / write(2) / pwrite(v) / writev / fputs / fputc
                   outside src/util/record_codec.cc — all durable bytes must
                   flow through the CRC-framed RecordWriter so torn-write
                   detection and fsync policy stay centralized. Member calls
                   like std::ostream::write are not raw fd writes and do not
                   fire.

Suppression: append `// smn-lint: allow(<rule>)` — optionally several,
comma-separated — to the offending line or the line directly above it, with
a comment justifying why the construct cannot reach the output.

Shared walking/suppression/reporting machinery lives in scripts/lintlib.py
(also used by check_locking.py); this file holds only the determinism rules.

Usage:
  check_determinism.py [paths...]       # default: src/
  check_determinism.py --list-rules
"""

from __future__ import annotations

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lintlib  # noqa: E402

Finding = lintlib.Finding

RULES = {
    "unordered-iter": "iteration over an unordered container",
    "raw-random": "raw randomness outside util/rng",
    "wall-clock": "clock read outside util/stopwatch and bench timing",
    "pointer-key": "ordered container keyed by pointer (address order)",
    "thread-local": "thread_local state outside the lock-debug stack",
    "raw-write": "raw byte write outside util/record_codec (RecordWriter)",
}

# Paths (relative to the repository root, '/'-separated) where a rule does
# not apply: the sanctioned implementation sites the rule text names.
ALLOWED_PATHS = {
    "raw-random": ("src/util/rng.h", "src/util/rng.cc"),
    "wall-clock": ("src/util/stopwatch.h",),
    "thread-local": ("src/util/lock_rank.cc",),
    "raw-write": ("src/util/record_codec.cc",),
}

RAW_RANDOM_RE = re.compile(
    r"(?<![\w.>:])(?:rand|srand|random|arc4random|getrandom)\s*\("
    r"|std\s*::\s*random_device")
WALL_CLOCK_RE = re.compile(
    # Any *clock::now() — catches aliases like `using Clock = steady_clock`.
    r"\b\w*[Cc]lock\s*::\s*now\b"
    r"|(?<![\w.>:])(?:time|clock|gettimeofday|clock_gettime)\s*\(")
THREAD_LOCAL_RE = re.compile(r"\bthread_local\b")
# The lookbehind rejects member calls (`stream.write(`, `ptr->write(`) and
# qualified non-global names; a leading `::` (global namespace, the POSIX
# syscall) still matches.
RAW_WRITE_RE = re.compile(
    r"(?<![\w.>])(?:::\s*)?"
    r"(?:fwrite|write|pwrite|pwritev|writev|fputs|fputc)\s*\(")
UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
ORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*(map|set|multimap|multiset)\s*<")
RANGE_FOR_HEAD_RE = re.compile(r"\bfor\s*\(")
ITER_LOOP_RE = re.compile(r"=\s*(\w+)(?:\.|->)(?:c?begin)\s*\(")


def range_for_sequences(text: str):
    """Yields (offset, sequence_expression) for every range-based for in
    `text`. The header is parenthesis-balanced and split at the first `:`
    that is not part of a `::` scope operator, so qualified types in the
    loop variable declaration don't confuse the split."""
    for match in RANGE_FOR_HEAD_RE.finditer(text):
        depth = 1
        i = match.end()
        while i < len(text) and depth:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        if depth:
            continue
        content = text[match.end():i - 1]
        if ";" in content:
            continue  # Classic three-clause for loop.
        split = -1
        for j, c in enumerate(content):
            if c != ":":
                continue
            if (j > 0 and content[j - 1] == ":") or \
               (j + 1 < len(content) and content[j + 1] == ":"):
                continue
            split = j
            break
        if split < 0:
            continue
        yield match.start(), content[split + 1:]


def root_identifier(expression: str) -> str | None:
    """First identifier of a range-for sequence expression: `left[i]` ->
    `left`, `*store` -> `store`, `Foo()` -> `Foo`."""
    match = lintlib.IDENT_RE.search(expression)
    while match and match.group(0) in ("const", "auto", "std"):
        match = lintlib.IDENT_RE.search(expression, match.end())
    return match.group(0) if match else None


def scan_file(path: str, rel: str) -> list[Finding]:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        raw = handle.read()
    raw_lines = raw.splitlines()
    text = lintlib.strip_comments_and_strings(raw)
    findings: list[Finding] = []
    report = lintlib.make_reporter(rel, text, raw_lines, findings,
                                   ALLOWED_PATHS)

    for match in RAW_RANDOM_RE.finditer(text):
        report(match.start(), "raw-random",
               "raw randomness; draw from util/rng (seeded Rng) instead")

    for match in WALL_CLOCK_RE.finditer(text):
        report(match.start(), "wall-clock",
               "clock read; time only through util/stopwatch, and only for "
               "telemetry")

    for match in THREAD_LOCAL_RE.finditer(text):
        report(match.start(), "thread-local",
               "thread_local state; pass working memory explicitly (a "
               "caller-owned WalkScratch) — only the lock-debug stack "
               "(src/util/lock_rank.cc) may be per-thread")

    for match in RAW_WRITE_RE.finditer(text):
        report(match.start(), "raw-write",
               "raw byte write; durable bytes go through util/record_codec "
               "(RecordWriter) so CRC framing and fsync policy stay in one "
               "place")

    for match in ORDERED_DECL_RE.finditer(text):
        end = lintlib.template_argument_span(text, match.end() - 1)
        if end < 0:
            continue
        arguments = text[match.end():end - 1]
        # Key type only: up to the first top-level comma (map) or the whole
        # argument list (set).
        depth = 0
        key = arguments
        for i, c in enumerate(arguments):
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
            elif c == "," and depth == 0:
                key = arguments[:i]
                break
        if "*" in key:
            report(match.start(), "pointer-key",
                   f"std::{match.group(1)} keyed by a pointer iterates in "
                   "address order; key by a stable id instead")

    suspects = lintlib.typed_variable_names(text, UNORDERED_DECL_RE)
    for offset, sequence in range_for_sequences(text):
        root = root_identifier(sequence)
        if (root and root in suspects) or "unordered_" in sequence:
            report(offset, "unordered-iter",
                   f"range-for over unordered container "
                   f"'{root or sequence.strip()}'")
    for match in ITER_LOOP_RE.finditer(text):
        if match.group(1) in suspects:
            report(match.start(), "unordered-iter",
                   f"iterator loop over unordered container '{match.group(1)}'")

    return findings


def main() -> int:
    return lintlib.run_cli(__doc__, "determinism-lint", RULES, scan_file,
                           ["src"])


if __name__ == "__main__":
    sys.exit(main())
