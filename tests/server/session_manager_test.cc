#include "server/session_manager.h"

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/test_networks.h"

namespace smn {
namespace server {
namespace {

/// One shared artifact for the whole suite: SessionManager only needs some
/// valid compiled tenant state.
std::shared_ptr<const CompiledArtifact> MakeArtifact() {
  testing::RandomNetwork built =
      testing::MakeClusteredNetwork(testing::ClusteredNetworkSpec{});
  auto network = std::make_unique<Network>(std::move(built.network));
  auto constraints =
      std::make_unique<ConstraintSet>(std::move(built.constraints));
  return CompiledArtifact::TakeOwnership(std::move(network),
                                         std::move(constraints))
      .value();
}

TEST(SessionManagerTest, CreateAssignsUniqueIdsAndLookupResolvesThem) {
  SessionManager manager;
  const auto artifact = MakeArtifact();
  std::set<SessionId> ids;
  std::vector<std::shared_ptr<Session>> sessions;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    auto session =
        manager.Create(artifact, ProbabilisticNetworkOptions{}, seed);
    ASSERT_TRUE(session.ok()) << session.status().message();
    ids.insert(session.value()->id());
    sessions.push_back(session.value());
  }
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_EQ(manager.size(), 4u);
  for (const auto& session : sessions) {
    auto found = manager.Lookup(session->id());
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value().get(), session.get());
  }
}

TEST(SessionManagerTest, LookupUnknownIdIsNotFound) {
  SessionManager manager;
  const auto missing = manager.Lookup(99);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SessionManagerTest, CloseRemovesButInFlightSharedPtrStaysValid) {
  SessionManager manager;
  const auto artifact = MakeArtifact();
  auto session =
      manager.Create(artifact, ProbabilisticNetworkOptions{}, /*seed=*/1);
  ASSERT_TRUE(session.ok());
  const SessionId id = session.value()->id();
  std::shared_ptr<Session> in_flight = session.value();

  ASSERT_TRUE(manager.Close(id).ok());
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_FALSE(manager.Lookup(id).ok());
  EXPECT_EQ(manager.Close(id).code(), StatusCode::kNotFound);

  // The shared_ptr held across the close still works: closing evicts from
  // the registry, it does not tear down state under an in-flight call.
  const SessionSnapshot snapshot = in_flight->Snapshot().value();
  EXPECT_EQ(snapshot.session_id, id);
}

TEST(SessionManagerTest, ExpireIdleReapsOnlyStaleSessions) {
  SessionManager manager(/*idle_ttl=*/2);
  const auto artifact = MakeArtifact();
  const SessionId stale =
      manager.Create(artifact, ProbabilisticNetworkOptions{}, 1).value()->id();
  const SessionId fresh =
      manager.Create(artifact, ProbabilisticNetworkOptions{}, 2).value()->id();
  // Each Lookup advances the logical clock by one tick; `stale` is not
  // touched again, so its lag grows past the TTL while `fresh` stays warm.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(manager.Lookup(fresh).ok());
  EXPECT_EQ(manager.ExpireIdle(), 1u);
  EXPECT_FALSE(manager.Lookup(stale).ok());
  EXPECT_TRUE(manager.Lookup(fresh).ok());
}

TEST(SessionManagerTest, ZeroTtlNeverExpires) {
  SessionManager manager(/*idle_ttl=*/0);
  const auto artifact = MakeArtifact();
  const SessionId id =
      manager.Create(artifact, ProbabilisticNetworkOptions{}, 1).value()->id();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(manager.ExpireIdle(), 0u);
  EXPECT_TRUE(manager.Lookup(id).ok());
}

TEST(SessionManagerTest, EvictionRacingInFlightAssertsFailsCleanly) {
  // The TTL reaper may evict a session while an assert on it is mid-flight.
  // The contract: the in-flight call finishes safely on its shared_ptr (the
  // manager drops its reference, it never destroys state under a live
  // call), and *later* lookups get NotFound — a clean failure, never a
  // use-after-free (ASAN/TSAN builds of this test prove the "never").
  //
  // Eviction is deterministic: only the reaper touches the manager's
  // logical clock. The writer resolves the victim once, like a request that
  // resolved its session just before the reaper ran, and keeps asserting on
  // that shared_ptr. The reaper touches the pacer right before reaping, so
  // the pacer's lag never exceeds the TTL and only the victim is evicted.
  const auto artifact = MakeArtifact();
  for (int round = 0; round < 8; ++round) {
    SessionManager manager(/*idle_ttl=*/1);
    const SessionId victim =
        manager.Create(artifact, ProbabilisticNetworkOptions{}, 1).value()->id();
    const SessionId pacer =
        manager.Create(artifact, ProbabilisticNetworkOptions{}, 2).value()->id();
    const std::shared_ptr<Session> in_flight = manager.Lookup(victim).value();
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> completed{0};

    std::thread writer([&] {
      while (!stop.load()) {
        // The assert may run entirely after eviction; the shared_ptr keeps
        // the session alive through the call either way.
        const Status status = in_flight->Assert(0, true);
        EXPECT_TRUE(status.ok() ||
                    status.code() == StatusCode::kInvalidArgument)
            << status;
        completed.fetch_add(1);
      }
    });
    std::thread reaper([&] {
      // Raises `stop` on every way out of this lambda, so a failed check
      // can never leave the writer spinning.
      struct StopOnExit {
        std::atomic<bool>* stop;
        ~StopOnExit() { stop->store(true); }
      } stop_on_exit{&stop};
      // Evict while the writer is mid-stream: after its first assert, and
      // concurrently with the ones that follow.
      while (completed.load() == 0) std::this_thread::yield();
      EXPECT_TRUE(manager.Lookup(pacer).ok());
      EXPECT_EQ(manager.ExpireIdle(), 1u);
      // Let a few asserts run on the evicted session before stopping.
      const uint64_t at_eviction = completed.load();
      while (completed.load() < at_eviction + 4) std::this_thread::yield();
    });
    writer.join();
    reaper.join();
    // Post-eviction the id is gone for good; the pacer and the in-flight
    // handle are untouched.
    const auto lookup = manager.Lookup(victim);
    ASSERT_FALSE(lookup.ok());
    EXPECT_EQ(lookup.status().code(), StatusCode::kNotFound);
    EXPECT_TRUE(manager.Lookup(pacer).ok());
    EXPECT_EQ(manager.size(), 1u);
    EXPECT_TRUE(in_flight->Snapshot().ok());
  }
}

TEST(SessionManagerTest, RestorePublishesUnderTheOriginalId) {
  SessionManager manager;
  const auto artifact = MakeArtifact();
  auto restored =
      manager.Restore(/*id=*/7, artifact, ProbabilisticNetworkOptions{}, 5);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value()->id(), 7u);
  EXPECT_EQ(manager.Lookup(7).value().get(), restored.value().get());
  // The allocator is bumped past restored ids: the next Create never
  // collides with a recovered session.
  const SessionId fresh =
      manager.Create(artifact, ProbabilisticNetworkOptions{}, 1).value()->id();
  EXPECT_EQ(fresh, 8u);
}

TEST(SessionManagerTest, RestoreRefusesALiveId) {
  SessionManager manager;
  const auto artifact = MakeArtifact();
  const SessionId live =
      manager.Create(artifact, ProbabilisticNetworkOptions{}, 1).value()->id();
  EXPECT_EQ(manager.Restore(live, artifact, ProbabilisticNetworkOptions{}, 5)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(SessionManagerTest, RestoreBelowTheAllocatorDoesNotLowerIt) {
  SessionManager manager;
  const auto artifact = MakeArtifact();
  // Allocate 1..3, close 2, restore it: the allocator must stay at 4.
  for (uint64_t seed = 0; seed < 3; ++seed) {
    ASSERT_TRUE(
        manager.Create(artifact, ProbabilisticNetworkOptions{}, seed).ok());
  }
  ASSERT_TRUE(manager.Close(2).ok());
  ASSERT_TRUE(
      manager.Restore(2, artifact, ProbabilisticNetworkOptions{}, 5).ok());
  const SessionId fresh =
      manager.Create(artifact, ProbabilisticNetworkOptions{}, 9).value()->id();
  EXPECT_EQ(fresh, 4u);
}

TEST(SessionManagerTest, PrePublishHookRunsBeforeVisibility) {
  SessionManager manager;
  const auto artifact = MakeArtifact();
  SessionId seen = 0;
  auto session = manager.Create(
      artifact, ProbabilisticNetworkOptions{}, 1,
      [&seen](Session& s) {
        seen = s.id();
        return Status::OK();
      });
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(seen, session.value()->id());
  EXPECT_EQ(manager.size(), 1u);
}

TEST(SessionManagerTest, PrePublishFailureAbortsTheCreate) {
  SessionManager manager;
  const auto artifact = MakeArtifact();
  auto session = manager.Create(
      artifact, ProbabilisticNetworkOptions{}, 1,
      [](Session&) { return Status::Internal("journal unavailable"); });
  EXPECT_EQ(session.status().code(), StatusCode::kInternal);
  // The failed session was never published.
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_FALSE(manager.Lookup(1).ok());
}

TEST(SessionManagerTest, SessionsOverOneArtifactShareIt) {
  SessionManager manager;
  const auto artifact = MakeArtifact();
  auto a = manager.Create(artifact, ProbabilisticNetworkOptions{}, 1).value();
  auto b = manager.Create(artifact, ProbabilisticNetworkOptions{}, 2).value();
  const SessionSnapshot sa = a->Snapshot().value();
  const SessionSnapshot sb = b->Snapshot().value();
  // Distinct mutable state, one immutable artifact underneath.
  EXPECT_NE(sa.session_id, sb.session_id);
  EXPECT_EQ(sa.probabilities.size(), sb.probabilities.size());
}

}  // namespace
}  // namespace server
}  // namespace smn
