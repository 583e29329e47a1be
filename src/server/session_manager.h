#ifndef SMN_SERVER_SESSION_MANAGER_H_
#define SMN_SERVER_SESSION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "server/session.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace smn {
namespace server {

/// Owns the live sessions of one server: assigns ids, resolves lookups, and
/// expires sessions idle past a configurable TTL.
///
/// Time is logical, not wall-clock: every Create/Lookup/Touch advances a
/// monotonic tick and stamps the session, and ExpireIdle reaps sessions
/// whose stamp lags the current tick by more than the TTL. Logical ticks
/// keep the whole server deterministic — a replayed request sequence expires
/// exactly the same sessions, independent of scheduling and host load.
///
/// Lock order: the manager mutex is a leaf taken strictly *before* any
/// session mutex and never while one is held — Create builds the session's
/// network entirely outside the lock (sampling is the expensive part) and
/// only publishes the finished session under it; Lookup returns a
/// shared_ptr and releases the manager lock before the caller enters the
/// session. manager → session, never session → manager: no cycle, no
/// deadlock, and a session expiring concurrently with a call on it stays
/// safe because the shared_ptr keeps the session alive until the call
/// returns.
class SessionManager {
 public:
  /// `idle_ttl` is the maximum tick lag before ExpireIdle reaps a session;
  /// 0 means sessions never expire.
  explicit SessionManager(uint64_t idle_ttl = 0) : idle_ttl_(idle_ttl) {}

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Runs on a fully built but not yet published session — the service's
  /// journal-attachment point. A non-OK return aborts the create/restore
  /// (the session is discarded unpublished).
  using PrePublishHook = std::function<Status(Session&)>;

  /// Creates a session over `artifact`, building its initial sample state
  /// outside the manager lock, and publishes it under a fresh id.
  /// `pre_publish`, when set, runs
  /// after the build and before the session becomes visible (uncontended —
  /// no other thread can hold the session yet).
  StatusOr<std::shared_ptr<Session>> Create(
      std::shared_ptr<const CompiledArtifact> artifact,
      const ProbabilisticNetworkOptions& options, uint64_t seed,
      const PrePublishHook& pre_publish = nullptr) SMN_EXCLUDES(mu_);

  /// Recovery-path Create: rebuilds a session under its *original* id (the
  /// id its journal was written for) instead of allocating a fresh one, and
  /// bumps the id allocator past it so post-recovery sessions never collide.
  /// AlreadyExists when `id` is live. The caller replays the journal into
  /// the returned session, then runs its own journal reattachment; hence no
  /// pre-publish hook — the session is published bare.
  StatusOr<std::shared_ptr<Session>> Restore(
      SessionId id, std::shared_ptr<const CompiledArtifact> artifact,
      const ProbabilisticNetworkOptions& options, uint64_t seed)
      SMN_EXCLUDES(mu_);

  /// Resolves `id` and marks the session used at the current tick. Returns
  /// NotFound for unknown (or already expired/closed) ids.
  StatusOr<std::shared_ptr<Session>> Lookup(SessionId id) SMN_EXCLUDES(mu_);

  /// Removes `id`. In-flight calls holding the shared_ptr finish safely;
  /// later Lookups return NotFound.
  Status Close(SessionId id) SMN_EXCLUDES(mu_);

  /// Advances the logical clock and reaps every session idle for more than
  /// the TTL. No-op (returns 0) when the TTL is 0. Eviction is a *clean*
  /// close: each reaped session's journal is finished (Close record, file
  /// unlinked) outside the manager lock, so an evicted session is never
  /// resurrected by recovery.
  size_t ExpireIdle() SMN_EXCLUDES(mu_);

  /// Number of live sessions.
  size_t size() const SMN_EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_ptr<Session> session;
    /// Tick of the last Create/Lookup that touched this session.
    uint64_t last_used = 0;
  };

  const uint64_t idle_ttl_;
  mutable Mutex mu_{"session_manager.sessions", LockRank::kSessionManager};
  /// std::map (not unordered) so iteration — expiry scans — is in id order,
  /// per the repository determinism contract.
  std::map<SessionId, Entry> sessions_ SMN_GUARDED_BY(mu_);
  SessionId next_id_ SMN_GUARDED_BY(mu_) = 1;
  /// Logical clock: advanced by every id-allocating or resolving call.
  uint64_t tick_ SMN_GUARDED_BY(mu_) = 0;
};

}  // namespace server
}  // namespace smn

#endif  // SMN_SERVER_SESSION_MANAGER_H_
