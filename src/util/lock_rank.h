#ifndef SMN_UTIL_LOCK_RANK_H_
#define SMN_UTIL_LOCK_RANK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace smn {

/// The repository's declared lock partial order, as rank constants.
///
/// Discipline: a thread may only *block* on a mutex whose rank is strictly
/// greater than the rank of every ranked mutex it already holds. Because
/// every blocking acquisition moves strictly upward, no cycle of waiting
/// threads can form among ranked locks — the classical ranked-mutex proof of
/// deadlock freedom. The ranks below are the ARCHITECTURE.md "Lock-order
/// inventory" table in code form; keep the two in sync.
///
/// Gaps between constants are deliberate room for future layers. TryLock is
/// exempt (it cannot wait, hence cannot deadlock), and unranked mutexes
/// (rank kUnranked, the default constructor) opt out of checking entirely —
/// the locking lint (scripts/check_locking.py) forces every mutex under
/// src/ to declare a rank, so only ad-hoc test locks are unranked.
struct LockRank {
  /// Not checked. Default-constructed mutexes (test-local locks).
  static constexpr uint32_t kUnranked = 0;
  /// ReconcileService tenant registry (service.tenants).
  static constexpr uint32_t kServiceRegistry = 100;
  /// SessionManager session map + id/tick state (session_manager.sessions).
  static constexpr uint32_t kSessionManager = 110;
  /// Per-session state lock (session.state).
  static constexpr uint32_t kSession = 200;
  /// InformationGainStrategy incremental bookkeeping (strategy.gain_cache).
  static constexpr uint32_t kSelectionStrategy = 400;
  /// Per-component lazy gain memoization (pn.component_gains).
  static constexpr uint32_t kComponentGains = 500;
  /// Network-level lazy stitched sample view (pn.sample_view).
  static constexpr uint32_t kSampleView = 510;
  /// ThreadPool task queue (pool.queue).
  static constexpr uint32_t kThreadPool = 600;
  /// BoundedQueue internal state (queue.state).
  static constexpr uint32_t kBoundedQueue = 610;
  /// ReconcileService request counters (service.stats). Leaf.
  static constexpr uint32_t kServiceStats = 900;
  /// Fault-injection registry (fault.registry). Deepest leaf: its sites are
  /// consulted from under nearly every other lock in chaos builds.
  static constexpr uint32_t kFaultRegistry = 950;
};

#if defined(SMN_LOCK_DEBUG_ENABLED)

/// Debug-only deadlock detection behind -DSMN_LOCK_DEBUG=ON: a per-thread
/// held-lock stack enforcing the LockRank partial order fail-stop, plus a
/// process-global recorder of observed acquired-while-holding edges.
///
/// The hooks are called by smn::Mutex (and only by it); nothing here exists
/// in a normal build — Mutex::Lock compiles back down to mu_.lock().
namespace lock_debug {

/// One observed acquired-while-holding edge: while a thread held a mutex
/// named `first`, it acquired one named `second`. Aggregated over all
/// instances sharing a name, over the whole process lifetime.
using LockEdge = std::pair<std::string, std::string>;

/// Rank check + edge recording, called BEFORE the underlying mutex blocks:
/// aborts the process (fail-stop, message on stderr) when `rank` is not
/// strictly greater than every ranked lock this thread already holds —
/// including re-acquisition of `mu` itself, which would self-deadlock.
/// Unranked mutexes (rank 0) record nothing and are never checked.
void OnLockAttempt(const void* mu, const char* name, uint32_t rank);

/// Pushes the now-held lock onto this thread's stack.
void OnLockAcquired(const void* mu, const char* name, uint32_t rank);

/// Records a TryLock success: pushed onto the held stack (later blocking
/// acquisitions are checked against it) but exempt from the rank check and
/// the edge graph — a try-acquisition never waits, so it cannot deadlock.
void OnTryLockAcquired(const void* mu, const char* name, uint32_t rank);

/// Removes `mu` from this thread's stack (wherever it sits: manual
/// Lock/Unlock pairs need not unlock in LIFO order).
void OnLockReleased(const void* mu);

/// Number of locks this thread currently holds (ranked or not).
size_t HeldLockCount();

/// Every distinct observed edge, in deterministic (lexicographic) order.
std::vector<LockEdge> ObservedEdges();

/// True when `edges` contain a directed cycle; `*cycle_out` (optional)
/// receives one witness as "a -> b -> ... -> a". Pure helper, usable on
/// synthetic edge sets in tests.
bool EdgesContainCycle(const std::vector<LockEdge>& edges,
                       std::string* cycle_out);

/// True when the process-global observed graph has a cycle (a potential
/// deadlock, even if this run never interleaved into it).
bool ObservedCycle(std::string* cycle_out);

/// Appends the observed edges to `path` as "from\tto\tcount" lines (the
/// input format of scripts/check_lock_graph.py, which merges dumps from
/// every test process, gates acyclicity, and renders DOT). Called
/// automatically at process exit when SMN_LOCK_GRAPH_OUT names a file.
bool DumpEdges(const std::string& path);

/// Clears the global edge graph (tests only; per-thread stacks are not
/// touched — callers must not hold locks across this).
void ResetGraphForTest();

}  // namespace lock_debug

#endif  // SMN_LOCK_DEBUG_ENABLED

}  // namespace smn

#endif  // SMN_UTIL_LOCK_RANK_H_
