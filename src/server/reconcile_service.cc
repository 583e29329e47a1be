#include "server/reconcile_service.h"

#include <string>
#include <utility>

namespace smn {
namespace server {

ReconcileService::ReconcileService(ServerOptions options)
    : options_(std::move(options)),
      sessions_(options_.session_idle_ttl),
      admission_(options_.max_queue_depth > 0
                     ? std::make_unique<BoundedQueue<char>>(
                           options_.max_queue_depth)
                     : nullptr),
      pool_(options_.worker_threads) {}

StatusOr<TenantId> ReconcileService::RegisterTenant(
    std::string name, std::unique_ptr<const Network> network,
    std::unique_ptr<const ConstraintSet> constraints) {
  SMN_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledArtifact> artifact,
                       CompiledArtifact::TakeOwnership(std::move(network),
                                                       std::move(constraints)));
  MutexLock lock(mu_);
  const TenantId id = next_tenant_++;
  tenants_[id] = Tenant{std::move(name), std::move(artifact)};
  return id;
}

StatusOr<std::shared_ptr<const CompiledArtifact>>
ReconcileService::TenantArtifact(TenantId tenant) const {
  MutexLock lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("TenantArtifact: no tenant with id " +
                            std::to_string(tenant));
  }
  return it->second.artifact;
}

StatusOr<SessionId> ReconcileService::OpenSession(TenantId tenant,
                                                  uint64_t seed) {
  SMN_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledArtifact> artifact,
                       TenantArtifact(tenant));
  // Durable mode: before the session becomes visible, start its journal —
  // the Open record carries everything recovery needs to rebuild the same
  // initial state. A journal that cannot be started fails the open.
  SessionManager::PrePublishHook pre_publish;
  if (!options_.journal_dir.empty()) {
    const JournalOptions journal = journal_options();
    pre_publish = [journal, tenant, seed](Session& session) {
      SMN_ASSIGN_OR_RETURN(
          std::unique_ptr<SessionLog> log,
          SessionLog::Create(journal, session.id(), tenant, seed));
      session.AttachJournal(std::move(log));
      return Status::OK();
    };
  }
  SMN_ASSIGN_OR_RETURN(
      std::shared_ptr<Session> session,
      sessions_.Create(std::move(artifact), options_.network, seed,
                       pre_publish));
  {
    MutexLock lock(stats_mu_);
    ++stats_.sessions_opened;
  }
  return session->id();
}

Status ReconcileService::Assert(SessionId session, CorrespondenceId c,
                                bool approved) {
  SMN_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, sessions_.Lookup(session));
  {
    MutexLock lock(stats_mu_);
    ++stats_.asserts;
  }
  return s->Assert(c, approved);
}

Status ReconcileService::AssertSoft(SessionId session, CorrespondenceId c,
                                    bool approved, double error_rate) {
  SMN_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, sessions_.Lookup(session));
  {
    MutexLock lock(stats_mu_);
    ++stats_.soft_asserts;
  }
  return s->AssertSoft(c, approved, error_rate);
}

StatusOr<SessionSnapshot> ReconcileService::Snapshot(SessionId session) {
  SMN_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, sessions_.Lookup(session));
  {
    MutexLock lock(stats_mu_);
    ++stats_.snapshots;
  }
  return s->Snapshot();
}

StatusOr<ReconcileTrace> ReconcileService::Reconcile(
    SessionId session, StrategyKind kind, const ReconcileGoal& goal,
    AssertionOracle oracle, const ElicitationPolicy& policy) {
  SMN_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, sessions_.Lookup(session));
  return s->Reconcile(kind, goal, std::move(oracle), policy);
}

Status ReconcileService::Close(SessionId session) {
  // Resolve the session first so the journal can be finished after the id
  // is unpublished: Close record appended, file unlinked — recovery will
  // not resurrect this session. Best-effort: the close itself already
  // succeeded, a failing final journal write must not undo it.
  StatusOr<std::shared_ptr<Session>> doomed = sessions_.Lookup(session);
  SMN_RETURN_IF_ERROR(sessions_.Close(session));
  if (doomed.ok()) (void)doomed.value()->FinishJournal();
  MutexLock lock(stats_mu_);
  ++stats_.sessions_closed;
  return Status::OK();
}

Status ReconcileService::RecoverOne(const std::string& journal_dir,
                                    uint64_t session_id,
                                    RecoveryReport* report) {
  const std::string path = JournalFilePath(journal_dir, session_id);
  SMN_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  RecordParse parse = ParseRecords(bytes);
  if (!parse.clean()) {
    // Torn or corrupt tail: drop it physically so the reattached journal
    // appends after the last durable record.
    SMN_RETURN_IF_ERROR(TruncateFile(path, parse.valid_bytes));
    ++report->truncated_tails;
    report->dropped_bytes += parse.dropped_bytes;
  }
  if (parse.payloads.empty()) {
    return Status::DataLoss("journal '" + path + "' has no durable records");
  }
  SMN_ASSIGN_OR_RETURN(JournalRecord open,
                       DecodeJournalRecord(parse.payloads.front()));
  if (open.kind != JournalRecordKind::kOpen) {
    return Status::DataLoss("journal '" + path +
                            "' does not start with an Open record");
  }
  if (open.session_id != session_id) {
    return Status::DataLoss("journal '" + path + "' carries session id " +
                            std::to_string(open.session_id));
  }
  SMN_ASSIGN_OR_RETURN(JournalRecord last,
                       DecodeJournalRecord(parse.payloads.back()));
  if (last.kind == JournalRecordKind::kClose) {
    // Clean shutdown whose unlink never happened: nothing to recover.
    SMN_RETURN_IF_ERROR(RemoveFile(path));
    ++report->sessions_skipped_closed;
    return Status::OK();
  }
  SMN_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledArtifact> artifact,
                       TenantArtifact(open.tenant_id));
  SMN_ASSIGN_OR_RETURN(
      std::shared_ptr<Session> session,
      sessions_.Restore(open.session_id, std::move(artifact), options_.network,
                        open.seed));
  // Replay into the bare (unjournaled) session: the engine is deterministic
  // in (seed, record order), so accepted records rebuild the exact state and
  // rejected records reject exactly as they did pre-crash. The replay-local
  // counters cross-check each record's revision stamp.
  uint64_t accepted = 0;
  uint64_t soft = 0;
  for (size_t i = 1; i < parse.payloads.size(); ++i) {
    SMN_ASSIGN_OR_RETURN(JournalRecord record,
                         DecodeJournalRecord(parse.payloads[i]));
    switch (record.kind) {
      case JournalRecordKind::kAssert: {
        if (record.stamp != accepted) ++report->revision_mismatches;
        const Status status =
            session->Assert(record.correspondence, record.approved);
        if (status.ok()) {
          ++accepted;
        } else {
          ++report->replay_rejected;
        }
        ++report->asserts_replayed;
        break;
      }
      case JournalRecordKind::kAssertSoft: {
        if (record.stamp != soft) ++report->revision_mismatches;
        const Status status = session->AssertSoft(
            record.correspondence, record.approved, record.error_rate);
        if (status.ok()) {
          ++soft;
        } else {
          ++report->replay_rejected;
        }
        ++report->soft_replayed;
        break;
      }
      case JournalRecordKind::kOpen:
        return Status::DataLoss("journal '" + path +
                                "' has a second Open record");
      case JournalRecordKind::kClose:
        return Status::DataLoss("journal '" + path +
                                "' has a Close record before its end");
    }
  }
  // Only now does the session journal again — replay itself must not
  // re-append the records it is reading.
  SMN_ASSIGN_OR_RETURN(std::unique_ptr<SessionLog> log,
                       SessionLog::Reattach(journal_options(), session_id));
  session->AttachJournal(std::move(log));
  ++report->sessions_recovered;
  return Status::OK();
}

StatusOr<RecoveryReport> ReconcileService::Recover(
    const std::string& journal_dir) {
  RecoveryReport report;
  StatusOr<std::vector<uint64_t>> ids = ListJournalSessions(journal_dir);
  if (!ids.ok()) {
    // A missing directory means no journals were ever written: an empty
    // recovery, not an error.
    if (ids.status().code() == StatusCode::kNotFound) return report;
    return ids.status();
  }
  for (const uint64_t session_id : ids.value()) {
    const Status status = RecoverOne(journal_dir, session_id, &report);
    // One bad journal (undecodable, unknown tenant, rebuild failure) is
    // counted and skipped; recovery of the remaining sessions continues.
    if (!status.ok()) ++report.failed_sessions;
  }
  return report;
}

std::future<Status> ReconcileService::SubmitAssert(SessionId session,
                                                   CorrespondenceId c,
                                                   bool approved) {
  return SubmitRequest<Status>(
      [this, session, c, approved] { return Assert(session, c, approved); });
}

std::future<Status> ReconcileService::SubmitAssertSoft(SessionId session,
                                                       CorrespondenceId c,
                                                       bool approved,
                                                       double error_rate) {
  return SubmitRequest<Status>([this, session, c, approved, error_rate] {
    return AssertSoft(session, c, approved, error_rate);
  });
}

std::future<StatusOr<SessionSnapshot>> ReconcileService::SubmitSnapshot(
    SessionId session) {
  return SubmitRequest<StatusOr<SessionSnapshot>>(
      [this, session] { return Snapshot(session); });
}

double ReconcileService::RetryAfterHintMs() const {
  MutexLock lock(stats_mu_);
  return ewma_exec_ms_;
}

void ReconcileService::RecordExecLatency(double exec_ms) {
  MutexLock lock(stats_mu_);
  ewma_exec_ms_ = ewma_exec_ms_ == 0.0 ? exec_ms
                                       : 0.9 * ewma_exec_ms_ + 0.1 * exec_ms;
}

ServerStats ReconcileService::stats() const {
  MutexLock lock(stats_mu_);
  ServerStats stats = stats_;
  stats.retry_after_ms = ewma_exec_ms_;
  return stats;
}

}  // namespace server
}  // namespace smn
