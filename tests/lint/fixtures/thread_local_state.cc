// Fixture: rule `thread-local` must fire — per-thread state outside the
// lock-debug held-lock stack (src/util/lock_rank.cc).
int NextPerThreadId() {
  thread_local int counter = 0;  // finding: thread_local
  return ++counter;
}
