#!/usr/bin/env python3
"""Repo-specific locking linter: walks C++ sources and fails on lock-usage
patterns that undermine the deadlock-freedom discipline documented in
ARCHITECTURE.md ("Lock-order inventory"). The runtime ranked-mutex checker
(-DSMN_LOCK_DEBUG=ON, src/util/lock_rank.h) catches ordering violations the
tests actually execute; this lint catches the statically visible hazards on
every build, executed or not.

Rules:

  mutex-rank        An smn::Mutex under src/ declared without a
                    (name, LockRank) identity — a bare `Mutex m;`, an empty
                    `make_unique<Mutex>()`, or `new Mutex()`. Unranked
                    mutexes opt out of the runtime rank check, so every
                    engine mutex must pick its place in the LockRank order
                    (tests may use ad-hoc unranked locks).
  raw-sync          std::mutex / std::condition_variable / std::lock_guard
                    and friends outside src/util/mutex.h and
                    src/util/lock_rank.cc. Raw primitives are invisible to
                    both -Wthread-safety and the rank checker; all locking
                    must flow through smn::Mutex.
  blocking-in-lock  A known blocking call lexically inside a MutexLock
                    scope: BoundedQueue Push/PushWithDeadline/Pop,
                    CondVar Wait/WaitFor, ThreadPool Submit, journal
                    Sync/MaybeSync/LogAssert/LogAssertSoft/LogClose,
                    thread join, and .get()/.wait() on a std::future
                    declared in the same file. Blocking while holding a
                    mutex is where deadlock cycles live; every such site
                    must either move out of the critical section or carry an
                    allow-comment justifying why it cannot wait on anything
                    that (transitively) needs the held lock.
  unpaired-lock     Manual `x.Lock()` with no `x.Unlock()` anywhere in the
                    same file (a leaked critical section on at least one
                    path), or a temporary `MutexLock(mu);` — which compiles,
                    locks, and unlocks again at the end of the statement,
                    protecting nothing. Use a named MutexLock.
  assert-in-thread  A fatal gtest assertion (ASSERT_*, FAIL()) inside a
                    lambda handed to std::thread / std::jthread, or to
                    emplace_back / push_back on a vector of threads. A fatal
                    assertion returns from the lambda only: the thread ends
                    early and can strand a peer waiting on it (a consumer
                    with no producer, a queue nobody closes). Use EXPECT_*
                    and let the thread finish its protocol. Lambdas defined
                    elsewhere and passed by name are out of reach.

Suppression: append `// smn-lint: allow(<rule>)` — optionally several,
comma-separated — to the offending line or the line directly above it, with
a comment justifying the site (for blocking-in-lock: why the wait cannot
close a cycle back to the held mutex).

Shared walking/suppression/reporting machinery lives in scripts/lintlib.py
(also used by check_determinism.py); this file holds only the locking rules.

Usage:
  check_locking.py [paths...]       # default: src/
  check_locking.py --list-rules
"""

from __future__ import annotations

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lintlib  # noqa: E402

Finding = lintlib.Finding

RULES = {
    "mutex-rank": "engine Mutex declared without a (name, LockRank) identity",
    "raw-sync": "raw std:: synchronization primitive outside util/mutex.h",
    "blocking-in-lock": "known blocking call inside a MutexLock scope",
    "unpaired-lock": "manual Lock() without Unlock(), or temporary MutexLock",
    "assert-in-thread": "fatal gtest assertion inside a thread lambda",
}

# Paths (relative to the repository root, '/'-separated) where a rule does
# not apply: the sanctioned implementation sites the rule text names.
ALLOWED_PATHS = {
    # mutex.h *is* the wrapper; lock_rank.cc is the checker itself, which
    # must not recurse into the instrumented Mutex it monitors.
    "raw-sync": ("src/util/mutex.h", "src/util/lock_rank.cc"),
    # mutex.h declares the MutexLock class (ctor/dtor Lock/Unlock pair and
    # the `MutexLock(` tokens of its own declarations).
    "unpaired-lock": ("src/util/mutex.h",),
}

# Longer alternatives first so e.g. `PushWithDeadline(` is reported under
# its own name; the trailing `\(` keeps `Wait` from matching `WaitFor`'s
# prefix anyway.
BLOCKING_CALL_RE = re.compile(
    r"(?:\.|->)\s*(PushWithDeadline|Push|Pop|WaitFor|Wait|Submit|MaybeSync|"
    r"Sync|LogAssertSoft|LogAssert|LogClose|join)\s*\(")
FUTURE_DECL_RE = re.compile(r"\bfuture\s*<")
# A named scoped lock: `MutexLock lock(mu_);` or `MutexLock lock{mu_};`.
MUTEXLOCK_DECL_RE = re.compile(r"\bMutexLock\s+\w+\s*[({]")
# `MutexLock(mu_);` — a temporary, destroyed (unlocked) at the semicolon.
MUTEXLOCK_TEMP_RE = re.compile(r"\bMutexLock\s*[({]")
# A bare declaration `Mutex m;` — no initializer, not a reference/pointer.
UNRANKED_MUTEX_RE = re.compile(r"(?<![:\w<&*~])Mutex\s+\w+\s*;")
UNRANKED_HEAP_RE = re.compile(
    r"make_unique\s*<\s*Mutex\s*>\s*\(\s*\)"
    r"|\bnew\s+Mutex\s*(?:\(\s*\)|\{\s*\}|;)")
RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(recursive_timed_mutex|recursive_mutex|timed_mutex|"
    r"shared_timed_mutex|shared_mutex|mutex|condition_variable_any|"
    r"condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)\b")
MANUAL_LOCK_RE = re.compile(r"((?:\w+(?:\.|->))+)Lock\s*\(\s*\)")
MANUAL_UNLOCK_RE = re.compile(r"((?:\w+(?:\.|->))+)Unlock\s*\(\s*\)")
# Thread construction: `std::thread t(`, `std::jthread{`, `std::thread(`.
THREAD_CTOR_RE = re.compile(r"\bstd\s*::\s*j?thread\s*(?:\w+\s*)?[({]")
# A vector of threads; the declared name follows the closing '>'.
THREAD_VECTOR_RE = re.compile(
    r"\bvector\s*<\s*std\s*::\s*j?thread\s*>\s*&?\s*(\w+)")
# A lambda introducer plus optional parameters, specifiers and trailing
# return type, ending at the body's '{'.
LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*)?"
    r"(?:noexcept\s*)?(?:->\s*[\w:<>\s]+?\s*)?\{")
FATAL_ASSERT_RE = re.compile(r"\b(ASSERT_[A-Z0-9_]+|FAIL)\s*\(")


def brace_depths(text: str) -> list[int]:
    """depths[i] = brace-nesting depth immediately before text[i]."""
    depths = []
    depth = 0
    for c in text:
        depths.append(depth)
        if c == "{":
            depth += 1
        elif c == "}":
            depth = max(0, depth - 1)
    return depths


def mutexlock_scopes(text: str) -> list[tuple[int, int]]:
    """(start, end) offset intervals over which a named MutexLock is held:
    from its declaration to the '}' closing the enclosing block. Lexical,
    per translation unit — calls through helper functions are out of reach,
    which is exactly the runtime checker's job; this rule catches the
    directly visible sites."""
    depths = brace_depths(text)
    scopes = []
    for match in MUTEXLOCK_DECL_RE.finditer(text):
        start = match.start()
        depth = depths[start]
        end = len(text)
        # Inner blocks close at depth-before > `depth`; the first '}' whose
        # depth-before equals the declaration depth closes the enclosing
        # block and destroys the lock.
        for i in range(match.end(), len(text)):
            if text[i] == "}" and depths[i] == depth:
                end = i
                break
        scopes.append((start, end))
    return scopes


def matching_close(text: str, open_index: int) -> int:
    """Offset of the bracket closing the '(' / '{' at open_index, or
    len(text) when unbalanced."""
    opening = text[open_index]
    closing = {"(": ")", "{": "}"}[opening]
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == opening:
            depth += 1
        elif text[i] == closing:
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def thread_lambda_bodies(text: str) -> list[tuple[int, int]]:
    """(start, end) offsets of the bodies of lambdas written directly in the
    argument list of a thread construction or of emplace_back / push_back
    on a vector of threads declared in the same file."""
    calls = [m.end() - 1 for m in THREAD_CTOR_RE.finditer(text)]
    for name in {m.group(1) for m in THREAD_VECTOR_RE.finditer(text)}:
        spawn_re = re.compile(rf"\b{re.escape(name)}\s*(?:\.|->)\s*"
                              rf"(?:emplace_back|push_back)\s*\(")
        calls.extend(m.end() - 1 for m in spawn_re.finditer(text))
    bodies = []
    for open_index in calls:
        close_index = matching_close(text, open_index)
        arguments = text[open_index:close_index]
        for match in LAMBDA_RE.finditer(arguments):
            body_open = open_index + match.end() - 1
            bodies.append((body_open, matching_close(text, body_open)))
    return bodies


def enclosing_scope(scopes: list[tuple[int, int]], offset: int):
    """The innermost (latest-starting) MutexLock scope containing offset."""
    best = None
    for start, end in scopes:
        if start < offset < end and (best is None or start > best[0]):
            best = (start, end)
    return best


def scan_file(path: str, rel: str) -> list[Finding]:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        raw = handle.read()
    raw_lines = raw.splitlines()
    text = lintlib.strip_comments_and_strings(raw)
    findings: list[Finding] = []
    report = lintlib.make_reporter(rel, text, raw_lines, findings,
                                   ALLOWED_PATHS)
    normalized = rel.replace(os.sep, "/")

    # --- mutex-rank: engine mutexes must declare their LockRank. Tests and
    # benches may use ad-hoc unranked locks, so the rule is src/-scoped.
    if normalized.startswith("src/"):
        for match in UNRANKED_MUTEX_RE.finditer(text):
            report(match.start(), "mutex-rank",
                   "Mutex declared without a (name, LockRank) identity; use "
                   "Mutex m{\"subsystem.what\", LockRank::k...} so the "
                   "SMN_LOCK_DEBUG rank checker covers it")
        for match in UNRANKED_HEAP_RE.finditer(text):
            report(match.start(), "mutex-rank",
                   "heap-allocated Mutex without a (name, LockRank) "
                   "identity; pass the name and rank to the constructor")

    # --- raw-sync: all locking flows through smn::Mutex.
    for match in RAW_SYNC_RE.finditer(text):
        report(match.start(), "raw-sync",
               f"std::{match.group(1)} is invisible to -Wthread-safety and "
               "the lock-rank checker; use smn::Mutex / MutexLock / CondVar "
               "from util/mutex.h")

    # --- blocking-in-lock: nothing that can wait runs inside a critical
    # section without an explicit justification.
    scopes = mutexlock_scopes(text)
    if scopes:
        def report_blocking(offset: int, what: str) -> None:
            scope = enclosing_scope(scopes, offset)
            if scope is None:
                return
            report(offset, "blocking-in-lock",
                   f"{what} inside the MutexLock scope opened at line "
                   f"{lintlib.line_of(text, scope[0])}; a wait while "
                   "holding a mutex can close a deadlock cycle — move it "
                   "out of the critical section or justify with an "
                   "allow-comment")

        for match in BLOCKING_CALL_RE.finditer(text):
            report_blocking(match.start(), f"blocking call "
                                           f"'{match.group(1)}()'")
        futures = lintlib.typed_variable_names(text, FUTURE_DECL_RE)
        for name in sorted(futures):
            wait_re = re.compile(
                rf"\b{re.escape(name)}(?:\s*\[[^\]]*\])?\s*(?:\.|->)\s*"
                rf"(get|wait)\s*\(")
            for match in wait_re.finditer(text):
                report_blocking(match.start(),
                                f"future '{name}.{match.group(1)}()'")

    # --- unpaired-lock: manual Lock without Unlock, and the lock-nothing
    # temporary.
    unlock_receivers = {m.group(1) for m in MANUAL_UNLOCK_RE.finditer(text)}
    for match in MANUAL_LOCK_RE.finditer(text):
        if match.group(1) not in unlock_receivers:
            report(match.start(), "unpaired-lock",
                   f"manual '{match.group(1)}Lock()' with no "
                   f"'{match.group(1)}Unlock()' in this file; prefer a "
                   "scoped MutexLock, which cannot leak the lock")
    for match in MUTEXLOCK_TEMP_RE.finditer(text):
        report(match.start(), "unpaired-lock",
               "temporary MutexLock is destroyed — and the mutex released — "
               "at the end of the full expression; name it "
               "(`MutexLock lock(mu);`) to hold the lock for the scope")

    # --- assert-in-thread: a fatal assertion ends only the thread, which
    # can strand the peers waiting on it.
    reported = set()
    for start, end in thread_lambda_bodies(text):
        for match in FATAL_ASSERT_RE.finditer(text, start, end):
            if match.start() in reported:
                continue
            reported.add(match.start())
            report(match.start(), "assert-in-thread",
                   f"fatal '{match.group(1)}' inside a thread lambda returns "
                   "from the thread only and can strand a peer waiting on "
                   "it; use EXPECT_* and let the thread finish")

    return findings


def main() -> int:
    return lintlib.run_cli(__doc__, "locking-lint", RULES, scan_file, ["src"])


if __name__ == "__main__":
    sys.exit(main())
