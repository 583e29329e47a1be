#include "server/session.h"

#include <utility>

namespace smn {
namespace server {

Session::Session(SessionId id, uint64_t seed)
    : id_(id), seed_(seed), rng_(seed) {}

StatusOr<std::unique_ptr<Session>> Session::Create(
    SessionId id, std::shared_ptr<const CompiledArtifact> artifact,
    const ProbabilisticNetworkOptions& options, uint64_t seed) {
  if (artifact == nullptr) {
    return Status::InvalidArgument("Session::Create: artifact must be non-null");
  }
  // The session is unpublished until returned, but rng_/pmn_ are annotated
  // members, so take the lock anyway — it is uncontended and keeps the
  // access pattern provable instead of exempted.
  auto session = std::unique_ptr<Session>(new Session(id, seed));
  MutexLock lock(session->mu_);
  SMN_ASSIGN_OR_RETURN(
      ProbabilisticNetwork pmn,
      ProbabilisticNetwork::Create(std::move(artifact), options,
                                   &session->rng_));
  session->pmn_.emplace(std::move(pmn));
  return session;
}

void Session::AttachJournal(std::unique_ptr<SessionLog> log) {
  MutexLock lock(mu_);
  journal_ = std::move(log);
}

Status Session::FinishJournal() {
  MutexLock lock(mu_);
  if (journal_ == nullptr) return Status::OK();
  std::unique_ptr<SessionLog> log = std::move(journal_);
  // Journal I/O under session.state is file writes, not lock waits: the
  // journal takes no smn::Mutex, so no cycle can route back to mu_.
  return log->LogClose();  // smn-lint: allow(blocking-in-lock)
}

Status Session::Assert(CorrespondenceId c, bool approved) {
  MutexLock lock(mu_);
  if (journal_ != nullptr) {
    // Write-ahead: on journal failure the request fails here, before the
    // engine sees it — fail-stop, state untouched. The write must happen
    // under mu_ (log order is the replay order) and is file I/O, not a lock
    // wait: the journal takes no smn::Mutex, so no cycle reaches mu_.
    const uint64_t revision = pmn_->assertion_count();
    // smn-lint: allow(blocking-in-lock)
    SMN_RETURN_IF_ERROR(journal_->LogAssert(c, approved, revision));
  }
  return pmn_->Assert(c, approved, &rng_);
}

Status Session::AssertSoft(CorrespondenceId c, bool approved,
                           double error_rate) {
  MutexLock lock(mu_);
  if (journal_ != nullptr) {
    // Write-ahead under mu_, same argument as Assert: journal I/O holds no
    // smn::Mutex, so it cannot close a cycle back to session.state.
    SMN_RETURN_IF_ERROR(  // smn-lint: allow(blocking-in-lock)
        journal_->LogAssertSoft(c, approved, error_rate, soft_answers_));
  }
  SMN_RETURN_IF_ERROR(pmn_->AssertSoft(c, approved, error_rate, &rng_));
  ++soft_answers_;
  return Status::OK();
}

StatusOr<SessionSnapshot> Session::Snapshot() const {
  MutexLock lock(mu_);
  SessionSnapshot snapshot;
  snapshot.session_id = id_;
  snapshot.revision = pmn_->assertion_count();
  snapshot.soft_answer_count = soft_answers_;
  snapshot.probabilities = pmn_->probabilities();
  snapshot.uncertainty = pmn_->Uncertainty();
  snapshot.exhausted = pmn_->exhausted();
  return snapshot;
}

StatusOr<ReconcileTrace> Session::Reconcile(StrategyKind kind,
                                            const ReconcileGoal& goal,
                                            AssertionOracle oracle,
                                            const ElicitationPolicy& policy) {
  MutexLock lock(mu_);
  if (journal_ != nullptr) {
    return Status::FailedPrecondition(
        "Reconcile is not available on a journaled session: the reconciler "
        "bypasses the write-ahead path, so its asserts would be lost on "
        "recovery. Use Assert/AssertSoft, or run without a journal_dir.");
  }
  std::unique_ptr<SelectionStrategy> strategy = MakeStrategy(kind);
  Reconciler reconciler(&*pmn_, strategy.get(), std::move(oracle), policy);
  return reconciler.Run(goal, &rng_);
}

}  // namespace server
}  // namespace smn
