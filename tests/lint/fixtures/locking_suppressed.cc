// Fixture: every violation below carries a justified
// `// smn-lint: allow(<rule>)` — the locking linter must report nothing
// even when scanned as a src/ path.
#include <memory>
#include <mutex>
#include <thread>

#include "util/bounded_queue.h"
#include "util/mutex.h"

namespace smn {

// Bootstrap-only lock created before the rank table exists.
// smn-lint: allow(mutex-rank)
Mutex g_bootstrap;

// Interop with a third-party API that requires a std::mutex.
// smn-lint: allow(raw-sync)
std::mutex g_interop;

int SuppressedBlocking(Mutex& mu, BoundedQueue<int>& queue) {
  MutexLock lock(mu);
  // This queue is the holder's private mailbox; no consumer takes mu.
  queue.Push(1);  // smn-lint: allow(blocking-in-lock)
  return 0;
}

int SuppressedManual(Mutex& mu) {
  // The paired Unlock runs in a callback registered elsewhere.
  mu.Lock();  // smn-lint: allow(unpaired-lock)
  return 0;
}

int SuppressedTemporary(Mutex& mu) {
  // Barrier only: synchronizes with a writer that already finished.
  // smn-lint: allow(unpaired-lock)
  MutexLock(mu);
  return 0;
}

void SuppressedThreadAssert(bool ok) {
  std::thread lone([ok] {
    // No peer waits on this thread: returning early strands nothing.
    ASSERT_TRUE(ok);  // smn-lint: allow(assert-in-thread)
  });
  lone.join();
}

}  // namespace smn
