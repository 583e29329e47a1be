#ifndef SMN_SERVER_SESSION_H_
#define SMN_SERVER_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/probabilistic_network.h"
#include "core/reconciler.h"
#include "core/selection_strategy.h"
#include "server/session_journal.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace smn {
namespace server {

/// Server-wide session identifier, assigned by the SessionManager.
using SessionId = uint64_t;

/// A consistent point-in-time view of one session's reconciliation state.
/// Every field is copied under the session lock in a single critical
/// section, so the probabilities, the uncertainty, and the counters always
/// describe the same revision — a reader never observes a half-integrated
/// assertion.
struct SessionSnapshot {
  /// The session this snapshot was taken from.
  SessionId session_id = 0;
  /// Hard assertions integrated when the snapshot was taken. Two snapshots
  /// with equal (revision, soft_answer_count) are guaranteed identical.
  uint64_t revision = 0;
  /// Noisy (soft) answers recorded when the snapshot was taken.
  uint64_t soft_answer_count = 0;
  /// The correspondence probabilities P at this revision.
  std::vector<double> probabilities;
  /// The network uncertainty H(C, P) at this revision, in bits.
  double uncertainty = 0.0;
  /// True when the maintained samples provably cover the instance space.
  bool exhausted = false;
};

/// One expert's pay-as-you-go reconciliation session over a shared
/// CompiledArtifact: the per-session mutable state (the ProbabilisticNetwork
/// with its feedback/evidence ledgers and sample caches, plus the session's
/// private RNG) behind one lock.
///
/// Locking: a single per-session Mutex serializes every entry point —
/// writes because ProbabilisticNetwork's mutating calls require exclusive
/// access, reads because Snapshot() must copy probabilities, uncertainty,
/// and counters as one consistent unit. The lock is annotated
/// (SMN_GUARDED_BY), so an unlocked access is a -Wthread-safety compile
/// error. Sessions never lock anything but their own mutex, which makes the
/// server's lock order trivially acyclic (see SessionManager).
///
/// Determinism: the session owns the Rng seeded at Create; the network's
/// initial sample sets and every reconciliation step draw from it exactly
/// like a batch run over the same seed, so a single-session server run is
/// bit-identical to `Reconciler::Run` on a directly constructed network.
class Session {
 public:
  /// Builds the session's network state over `artifact` (drawing the
  /// initial sample sets from a fresh Rng seeded with `seed`) and wraps it.
  /// Fails when the artifact is null or the network build fails.
  static StatusOr<std::unique_ptr<Session>> Create(
      SessionId id, std::shared_ptr<const CompiledArtifact> artifact,
      const ProbabilisticNetworkOptions& options, uint64_t seed);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The manager-assigned id (immutable, lock-free).
  SessionId id() const { return id_; }

  /// The seed this session's RNG stream started from (immutable, lock-free).
  uint64_t seed() const { return seed_; }

  /// Makes the session durable: every later Assert/AssertSoft is appended
  /// to `log` BEFORE the engine mutates (write-ahead, under the session
  /// lock, so journal order is apply order), and a journal-append failure
  /// fails the request with the session state untouched. Called once,
  /// before the session is published (OpenSession) or after replay
  /// (recovery — replay itself runs on an unjournaled session, so nothing
  /// is re-logged).
  void AttachJournal(std::unique_ptr<SessionLog> log) SMN_EXCLUDES(mu_);

  /// Clean shutdown of the journal: logs Close (which unlinks the file) and
  /// detaches. Called by explicit Close and idle-TTL eviction — but NOT by
  /// the destructor: a session destroyed without FinishJournal (service
  /// teardown, process death) leaves its journal behind, which is exactly
  /// what marks it for recovery. No-op OK on an unjournaled session.
  Status FinishJournal() SMN_EXCLUDES(mu_);

  /// Integrates one hard expert assertion. Fails (leaving the state
  /// untouched) when `c` contradicts the session's feedback closure.
  Status Assert(CorrespondenceId c, bool approved) SMN_EXCLUDES(mu_);

  /// Records one noisy expert answer under worker error rate `error_rate`
  /// (see ProbabilisticNetwork::AssertSoft).
  Status AssertSoft(CorrespondenceId c, bool approved, double error_rate)
      SMN_EXCLUDES(mu_);

  /// Copies a consistent view of the current state.
  StatusOr<SessionSnapshot> Snapshot() const SMN_EXCLUDES(mu_);

  /// Runs Algorithm 1 inside the session until `goal` is met, selecting
  /// with `kind` and eliciting from `oracle` under `policy`. Holds the
  /// session lock for the whole run: concurrent Assert/Snapshot calls
  /// serialize before or after it. FailedPrecondition on a journaled
  /// session: the reconciler drives the network directly, bypassing the
  /// write-ahead path, so its effects would be invisible to recovery.
  StatusOr<ReconcileTrace> Reconcile(StrategyKind kind,
                                     const ReconcileGoal& goal,
                                     AssertionOracle oracle,
                                     const ElicitationPolicy& policy = {})
      SMN_EXCLUDES(mu_);

 private:
  Session(SessionId id, uint64_t seed);

  const SessionId id_;
  const uint64_t seed_;
  mutable Mutex mu_{"session.state", LockRank::kSession};
  /// The session's RNG stream: consumed once by Create (the network split)
  /// and then by reconciliation steps, exactly like a batch run's local Rng.
  Rng rng_ SMN_GUARDED_BY(mu_);
  /// Engaged by Create before the session is published; never nullopt on a
  /// live session (optional only bridges construction order: the network is
  /// built from rng_, which must exist first).
  std::optional<ProbabilisticNetwork> pmn_ SMN_GUARDED_BY(mu_);
  /// Noisy answers recorded so far (SoftEvidence counts per-correspondence;
  /// this is the session-total the snapshot exposes).
  uint64_t soft_answers_ SMN_GUARDED_BY(mu_) = 0;
  /// The write-ahead journal; null on a non-durable session. Appended to
  /// under mu_ before every engine mutation.
  std::unique_ptr<SessionLog> journal_ SMN_GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace smn

#endif  // SMN_SERVER_SESSION_H_
