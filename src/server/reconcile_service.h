#ifndef SMN_SERVER_RECONCILE_SERVICE_H_
#define SMN_SERVER_RECONCILE_SERVICE_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "core/compiled_artifact.h"
#include "server/session_journal.h"
#include "server/session_manager.h"
#include "util/bounded_queue.h"
#include "util/mutex.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace smn {
namespace server {

/// Identifies a registered tenant network (one schema-matching network plus
/// its compiled constraints).
using TenantId = uint64_t;

/// Server configuration.
struct ServerOptions {
  /// Per-session network options (sample budgets, incremental mode).
  ProbabilisticNetworkOptions network;
  /// Worker threads of the request queue; 0 means
  /// ThreadPool::DefaultThreadCount().
  size_t worker_threads = 0;
  /// Logical-tick idle TTL for sessions (see SessionManager); 0 = never
  /// expire.
  uint64_t session_idle_ttl = 0;
  /// Write-ahead journal directory; empty (the default) disables
  /// durability. When set, every session journals its asserts before
  /// applying them and Recover() can rebuild sessions after a crash. Note
  /// Reconcile() is unavailable on journaled sessions (it bypasses the
  /// write-ahead path).
  std::string journal_dir;
  /// Journal fsync policy: sync after every N appended records; 0 syncs
  /// only at session open/close (see JournalOptions::fsync_every).
  uint64_t journal_fsync_every = 0;
  /// Per-request deadline for the Submit* paths, in milliseconds, measured
  /// from submission to execution start. A request still queued past its
  /// deadline fails with kDeadlineExceeded *without touching the session*.
  /// 0 (the default) disables deadlines.
  double request_deadline_ms = 0.0;
  /// Admission bound for the Submit* paths: at most this many requests
  /// in flight (queued + executing) at once. When the bound is hit, new
  /// submissions are shed immediately with kUnavailable (carrying a
  /// retry-after hint) — callers are never blocked and never silently
  /// dropped. 0 (the default) disables admission control.
  size_t max_queue_depth = 0;
};

/// Monotonic service counters (copied atomically under the stats lock).
///
/// sessions_opened/sessions_closed count *successful* lifecycle events.
/// asserts/soft_asserts/snapshots are *attempted-request* counts: they
/// increment once the request resolved a live session, whether or not the
/// session operation itself then succeeded (e.g. a contradictory assertion
/// that the session rejects still counts as one assert request).
struct ServerStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t asserts = 0;
  uint64_t soft_asserts = 0;
  uint64_t snapshots = 0;
  /// Submit* requests refused at admission (kUnavailable) because
  /// max_queue_depth was reached.
  uint64_t shed_requests = 0;
  /// Submit* requests that waited past request_deadline_ms in the queue and
  /// failed with kDeadlineExceeded before touching their session.
  uint64_t expired_requests = 0;
  /// NOT a counter: the current retry-after hint, an EWMA of recent request
  /// execution latency in milliseconds. What a shed caller should wait
  /// before retrying (also embedded in the kUnavailable message).
  double retry_after_ms = 0.0;
};

/// What Recover() did — every count is per-recovery, not cumulative.
struct RecoveryReport {
  /// Sessions rebuilt live from their journals.
  uint64_t sessions_recovered = 0;
  /// Journals whose last record was Close (clean shutdown lost the unlink
  /// race, or the file was copied back); skipped and unlinked.
  uint64_t sessions_skipped_closed = 0;
  /// Hard-assert records replayed (accepted and rejected alike).
  uint64_t asserts_replayed = 0;
  /// Soft-assert records replayed.
  uint64_t soft_replayed = 0;
  /// Replayed assert records the engine rejected — expected to equal the
  /// number of rejections before the crash (rejected requests are journaled
  /// too, and determinism makes them reject identically).
  uint64_t replay_rejected = 0;
  /// Journal files whose tail failed CRC/length validation and was
  /// physically truncated to the last durable record.
  uint64_t truncated_tails = 0;
  /// Total torn/corrupt bytes dropped across all truncated tails.
  uint64_t dropped_bytes = 0;
  /// Journals that could not be recovered at all (undecodable Open record,
  /// unknown tenant, session rebuild failure). Counted and skipped — one
  /// bad journal never aborts the rest of recovery.
  uint64_t failed_sessions = 0;
  /// Replayed records whose revision stamp disagreed with the replay-local
  /// counter (log corruption that passed CRC; the record is still applied).
  uint64_t revision_mismatches = 0;
};

/// The in-process reconciliation service: the server-shaped frontend over
/// the artifact/session split.
///
/// A *tenant* is registered once per matching network: RegisterTenant
/// compiles nothing (the caller supplies compiled constraints) but builds
/// the tenant's immutable CompiledArtifact — conflict tables, coupling
/// groups, the empty-feedback closure and partition — exactly once.
/// OpenSession then stamps out per-session mutable state over the shared
/// artifact: N concurrent sessions cost N feedback ledgers and sample
/// caches, never N copies of the compiled tables.
///
/// Request paths: the synchronous calls (Assert, Snapshot, ...) execute on
/// the caller's thread; the Submit* variants enqueue the same operation on
/// the service's ThreadPool — the request queue — and return the future of
/// its result. Both paths resolve the session through the SessionManager
/// and run under the session's own lock, so they interleave safely.
///
/// Lock order (acyclic, enforced by construction): service registry/stats
/// mutexes and the manager mutex are leaves — none is ever held while a
/// session lock is taken, and sessions lock only themselves. Snapshot
/// consistency follows: a snapshot copies all of its fields inside one
/// session critical section.
class ReconcileService {
 public:
  explicit ReconcileService(ServerOptions options = {});

  /// Drains the request queue (ThreadPool joins its workers).
  ~ReconcileService() = default;

  ReconcileService(const ReconcileService&) = delete;
  ReconcileService& operator=(const ReconcileService&) = delete;

  /// Registers a tenant network and builds its shared artifact.
  /// `constraints` must already be compiled against `*network`. The heap
  /// objects are owned by the artifact from here on and live until the last
  /// session over them closes.
  StatusOr<TenantId> RegisterTenant(
      std::string name, std::unique_ptr<const Network> network,
      std::unique_ptr<const ConstraintSet> constraints) SMN_EXCLUDES(mu_);

  /// The shared artifact of a registered tenant (NotFound otherwise).
  /// Exposed so tests can assert that sessions really share one object.
  StatusOr<std::shared_ptr<const CompiledArtifact>> TenantArtifact(
      TenantId tenant) const SMN_EXCLUDES(mu_);

  /// Opens a reconciliation session over `tenant`'s artifact, seeding the
  /// session RNG with `seed`. Equal seeds over equal tenants give
  /// bit-identical sessions.
  StatusOr<SessionId> OpenSession(TenantId tenant, uint64_t seed)
      SMN_EXCLUDES(mu_);

  /// Integrates a hard assertion into the session.
  Status Assert(SessionId session, CorrespondenceId c, bool approved);

  /// Records a noisy answer under worker error rate `error_rate`.
  Status AssertSoft(SessionId session, CorrespondenceId c, bool approved,
                    double error_rate);

  /// Returns a consistent snapshot (marginals, uncertainty, revision).
  StatusOr<SessionSnapshot> Snapshot(SessionId session);

  /// Runs Algorithm 1 inside the session (see Session::Reconcile).
  StatusOr<ReconcileTrace> Reconcile(SessionId session, StrategyKind kind,
                                     const ReconcileGoal& goal,
                                     AssertionOracle oracle,
                                     const ElicitationPolicy& policy = {});

  /// Closes the session; later calls on its id return NotFound. A clean
  /// close finishes the session's journal (Close record, file unlinked), so
  /// a closed session is never resurrected by Recover().
  Status Close(SessionId session);

  /// Rebuilds sessions from the write-ahead journals in `journal_dir`
  /// (normally options_.journal_dir, after constructing a fresh service and
  /// re-registering the tenants — tenant ids are allocated deterministically,
  /// so an identical registration order reproduces them). Per journal file:
  /// a torn/corrupt tail is truncated to the last durable record (counted,
  /// never fatal); a trailing Close record means the session closed cleanly
  /// (file unlinked, session skipped); otherwise the session is rebuilt from
  /// its Open record and its assert records are replayed through the
  /// deterministic engine, yielding a session bitwise identical to the
  /// pre-crash one, then its journal is reattached in append mode.
  StatusOr<RecoveryReport> Recover(const std::string& journal_dir)
      SMN_EXCLUDES(mu_);

  /// Enqueues Assert on the request queue and returns its future. All
  /// Submit* paths pass admission control (shed with kUnavailable when the
  /// in-flight bound is hit) and carry the per-request deadline (see
  /// ServerOptions).
  std::future<Status> SubmitAssert(SessionId session, CorrespondenceId c,
                                   bool approved);

  /// Enqueues AssertSoft on the request queue.
  std::future<Status> SubmitAssertSoft(SessionId session, CorrespondenceId c,
                                       bool approved, double error_rate);

  /// Enqueues Snapshot on the request queue.
  std::future<StatusOr<SessionSnapshot>> SubmitSnapshot(SessionId session);

  /// Expires idle sessions (see SessionManager::ExpireIdle).
  size_t ExpireIdleSessions() { return sessions_.ExpireIdle(); }

  /// Number of live sessions.
  size_t session_count() const { return sessions_.size(); }

  /// Copies the monotonic request counters.
  ServerStats stats() const SMN_EXCLUDES(stats_mu_);

 private:
  struct Tenant {
    std::string name;
    std::shared_ptr<const CompiledArtifact> artifact;
  };

  /// The journal configuration derived from options_ (empty dir = off).
  JournalOptions journal_options() const {
    return JournalOptions{options_.journal_dir, options_.journal_fsync_every};
  }

  /// Recovers one journal file, accumulating into `report`. Failures are
  /// folded into report->failed_sessions by the caller.
  Status RecoverOne(const std::string& journal_dir, uint64_t session_id,
                    RecoveryReport* report);

  /// The current retry-after hint (EWMA of execution latency).
  double RetryAfterHintMs() const SMN_EXCLUDES(stats_mu_);

  /// Folds one observed execution latency into the EWMA.
  void RecordExecLatency(double exec_ms) SMN_EXCLUDES(stats_mu_);

  /// The shared Submit* shape: admission (shed with kUnavailable when the
  /// in-flight bound is full), then enqueue, then — at execution start — the
  /// deadline check (kDeadlineExceeded without touching the session) before
  /// running `fn`. R is Status or StatusOr<...>; both construct from Status,
  /// which is what lets shed/expired requests resolve to a plain error.
  template <typename R, typename Fn>
  std::future<R> SubmitRequest(Fn fn) {
    if (admission_ != nullptr && !admission_->TryPush('r')) {
      {
        MutexLock lock(stats_mu_);
        ++stats_.shed_requests;
      }
      std::promise<R> shed;
      shed.set_value(R(Status::Unavailable(
          "request shed: server at max_queue_depth (" +
          std::to_string(options_.max_queue_depth) + " in flight); retry in ~" +
          std::to_string(RetryAfterHintMs()) + " ms")));
      return shed.get_future();
    }
    const Stopwatch queued;
    return pool_.Submit([this, fn = std::move(fn), queued]() -> R {
      R result = [&]() -> R {
        if (options_.request_deadline_ms > 0.0 &&
            queued.ElapsedMillis() > options_.request_deadline_ms) {
          MutexLock lock(stats_mu_);
          ++stats_.expired_requests;
          return R(Status::DeadlineExceeded(
              "request waited " + std::to_string(queued.ElapsedMillis()) +
              " ms in queue, past its " +
              std::to_string(options_.request_deadline_ms) + " ms deadline"));
        }
        const Stopwatch exec;
        R value = fn();
        RecordExecLatency(exec.ElapsedMillis());
        return value;
      }();
      if (admission_ != nullptr) {
        char token = 0;
        admission_->Pop(&token);  // Our own token: the queue is never empty.
      }
      return result;
    });
  }

  ServerOptions options_;
  SessionManager sessions_;
  mutable Mutex mu_{"service.tenants", LockRank::kServiceRegistry};
  std::map<TenantId, Tenant> tenants_ SMN_GUARDED_BY(mu_);
  TenantId next_tenant_ SMN_GUARDED_BY(mu_) = 1;
  mutable Mutex stats_mu_{"service.stats", LockRank::kServiceStats};
  ServerStats stats_ SMN_GUARDED_BY(stats_mu_);
  /// EWMA (0.9 old / 0.1 new) of Submit* execution latency, the basis of
  /// the retry-after hint.
  double ewma_exec_ms_ SMN_GUARDED_BY(stats_mu_) = 0.0;
  /// Admission token bucket for the Submit* paths (null = no bound): one
  /// token TryPushed per accepted request, popped at completion. TryPush
  /// failing IS the shed signal — callers never block on admission.
  std::unique_ptr<BoundedQueue<char>> admission_;
  /// The request queue backing the Submit* calls. Declared last so its
  /// destructor joins the workers while every member a queued request may
  /// touch (sessions_, stats_mu_, admission_, ...) is still alive.
  ThreadPool pool_;
};

}  // namespace server
}  // namespace smn

#endif  // SMN_SERVER_RECONCILE_SERVICE_H_
