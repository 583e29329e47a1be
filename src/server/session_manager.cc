#include "server/session_manager.h"

#include <string>
#include <utility>
#include <vector>

namespace smn {
namespace server {

StatusOr<std::shared_ptr<Session>> SessionManager::Create(
    std::shared_ptr<const CompiledArtifact> artifact,
    const ProbabilisticNetworkOptions& options, uint64_t seed,
    const PrePublishHook& pre_publish) {
  SessionId id = 0;
  {
    MutexLock lock(mu_);
    id = next_id_++;
  }
  // Build outside the lock: drawing the initial sample sets is the
  // expensive part of session creation and must not serialize the server.
  SMN_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      Session::Create(id, std::move(artifact), options, seed));
  if (pre_publish) SMN_RETURN_IF_ERROR(pre_publish(*session));
  std::shared_ptr<Session> shared = std::move(session);
  {
    MutexLock lock(mu_);
    ++tick_;
    sessions_[id] = Entry{shared, tick_};
  }
  return shared;
}

StatusOr<std::shared_ptr<Session>> SessionManager::Restore(
    SessionId id, std::shared_ptr<const CompiledArtifact> artifact,
    const ProbabilisticNetworkOptions& options, uint64_t seed) {
  {
    MutexLock lock(mu_);
    if (sessions_.count(id) != 0) {
      return Status::AlreadyExists("Restore: session id " +
                                   std::to_string(id) + " is live");
    }
    if (next_id_ <= id) next_id_ = id + 1;
  }
  SMN_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      Session::Create(id, std::move(artifact), options, seed));
  std::shared_ptr<Session> shared = std::move(session);
  {
    MutexLock lock(mu_);
    ++tick_;
    sessions_[id] = Entry{shared, tick_};
  }
  return shared;
}

StatusOr<std::shared_ptr<Session>> SessionManager::Lookup(SessionId id) {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("Lookup: no session with id " + std::to_string(id));
  }
  ++tick_;
  it->second.last_used = tick_;
  return it->second.session;
}

Status SessionManager::Close(SessionId id) {
  std::shared_ptr<Session> doomed;
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("Close: no session with id " + std::to_string(id));
    }
    // Move the last owner out of the map so a potentially expensive session
    // destruction runs outside the manager lock (in-flight shared_ptrs can
    // also outlive this call; either way the lock is not held for it).
    doomed = std::move(it->second.session);
    sessions_.erase(it);
  }
  return Status::OK();
}

size_t SessionManager::ExpireIdle() {
  std::vector<std::shared_ptr<Session>> doomed;
  {
    MutexLock lock(mu_);
    if (idle_ttl_ == 0) return 0;
    ++tick_;
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (tick_ - it->second.last_used > idle_ttl_) {
        doomed.push_back(std::move(it->second.session));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Finish journals outside the manager lock (lock order manager → session:
  // FinishJournal takes the session mutex). Best-effort: an eviction must
  // not fail because the journal's final write did.
  for (const std::shared_ptr<Session>& session : doomed) {
    (void)session->FinishJournal();
  }
  return doomed.size();
}

size_t SessionManager::size() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

}  // namespace server
}  // namespace smn
