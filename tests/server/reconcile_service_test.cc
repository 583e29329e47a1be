#include "server/reconcile_service.h"

#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/test_networks.h"

namespace smn {
namespace server {
namespace {

/// Registers a clustered test network as a tenant and returns its id.
TenantId RegisterTestTenant(ReconcileService* service, uint64_t seed = 7) {
  testing::ClusteredNetworkSpec spec;
  spec.seed = seed;
  testing::RandomNetwork built = testing::MakeClusteredNetwork(spec);
  auto network = std::make_unique<Network>(std::move(built.network));
  auto constraints =
      std::make_unique<ConstraintSet>(std::move(built.constraints));
  return service
      ->RegisterTenant("tenant", std::move(network), std::move(constraints))
      .value();
}

TEST(ReconcileServiceTest, UnknownTenantAndSessionAreNotFound) {
  ReconcileService service;
  EXPECT_EQ(service.OpenSession(12, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Assert(55, 0, true).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Snapshot(55).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Close(55).code(), StatusCode::kNotFound);
}

TEST(ReconcileServiceTest, SessionsOverOneTenantShareTheArtifact) {
  ReconcileService service;
  const TenantId tenant = RegisterTestTenant(&service);
  const SessionId a = service.OpenSession(tenant, 1).value();
  const SessionId b = service.OpenSession(tenant, 2).value();
  ASSERT_NE(a, b);
  // Both sessions and the registry hold the very same compiled artifact:
  // shared, never duplicated.
  const auto artifact = service.TenantArtifact(tenant).value();
  EXPECT_GE(artifact.use_count(), 3);
  EXPECT_EQ(service.session_count(), 2u);
}

TEST(ReconcileServiceTest, AssertIsSessionIsolated) {
  ReconcileService service;
  const TenantId tenant = RegisterTestTenant(&service);
  const SessionId a = service.OpenSession(tenant, 5).value();
  const SessionId b = service.OpenSession(tenant, 5).value();

  // Same tenant, same seed: identical until their feedback diverges.
  const SessionSnapshot before_a = service.Snapshot(a).value();
  const SessionSnapshot before_b = service.Snapshot(b).value();
  ASSERT_EQ(before_a.probabilities, before_b.probabilities);

  ASSERT_TRUE(service.Assert(a, 0, true).ok());
  const SessionSnapshot after_a = service.Snapshot(a).value();
  const SessionSnapshot after_b = service.Snapshot(b).value();
  EXPECT_EQ(after_a.revision, 1u);
  EXPECT_EQ(after_b.revision, 0u);
  // Session b never observes a's feedback.
  EXPECT_EQ(after_b.probabilities, before_b.probabilities);
  EXPECT_DOUBLE_EQ(after_a.probabilities[0], 1.0);
}

TEST(ReconcileServiceTest, SnapshotIsConsistentUnderConcurrentWrites) {
  ReconcileService service;
  const TenantId tenant = RegisterTestTenant(&service);
  constexpr size_t kSessions = 8;
  std::vector<SessionId> ids;
  for (size_t i = 0; i < kSessions; ++i) {
    ids.push_back(service.OpenSession(tenant, i).value());
  }
  const size_t n =
      service.Snapshot(ids[0]).value().probabilities.size();
  ASSERT_GT(n, 2u);

  // One writer per session alternating approvals, plus readers snapshotting
  // every session. A snapshot must always be internally consistent: its
  // revision counts the asserted correspondences its marginals already pin
  // to 0/1.
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSessions; ++i) {
    threads.emplace_back([&service, &ids, i] {
      const SessionId id = ids[i];
      // A single approval never force-ins anything, so the follow-up
      // disapproval of a different correspondence is always consistent with
      // the closure: both writes must succeed in every session.
      EXPECT_TRUE(service.Assert(id, 0, true).ok());
      EXPECT_TRUE(service.Assert(id, 1, false).ok());
    });
  }
  for (size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&service, &ids, n] {
      for (SessionId id : ids) {
        // Non-fatal checks only: a reader that returned early would skip
        // its remaining snapshots instead of reporting them.
        for (int k = 0; k < 4; ++k) {
          const auto snapshot = service.Snapshot(id);
          EXPECT_TRUE(snapshot.ok()) << snapshot.status();
          if (!snapshot.ok()) continue;
          const SessionSnapshot& s = snapshot.value();
          // Consistency: revision and marginals are copied in one critical
          // section, so an integrated assertion is always visible as its
          // pinned marginal in the same snapshot — never half of either.
          EXPECT_LE(s.revision, 2u);
          EXPECT_EQ(s.probabilities.size(), n);
          if (s.probabilities.size() != n) continue;
          if (s.revision >= 1) {
            EXPECT_DOUBLE_EQ(s.probabilities[0], 1.0);
          }
          if (s.revision >= 2) {
            EXPECT_DOUBLE_EQ(s.probabilities[1], 0.0);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const ServerStats stats = service.stats();
  EXPECT_EQ(stats.sessions_opened, kSessions);
  EXPECT_GE(stats.snapshots, kSessions * 8);
}

TEST(ReconcileServiceTest, AsyncSubmitPathMatchesSyncResults) {
  ServerOptions options;
  options.worker_threads = 2;
  ReconcileService service(options);
  const TenantId tenant = RegisterTestTenant(&service);
  const SessionId async_id = service.OpenSession(tenant, 9).value();
  const SessionId sync_id = service.OpenSession(tenant, 9).value();

  std::future<Status> assert_done = service.SubmitAssert(async_id, 0, true);
  ASSERT_TRUE(assert_done.get().ok());
  ASSERT_TRUE(service.Assert(sync_id, 0, true).ok());

  std::future<StatusOr<SessionSnapshot>> async_snapshot =
      service.SubmitSnapshot(async_id);
  const StatusOr<SessionSnapshot> a = async_snapshot.get();
  const StatusOr<SessionSnapshot> b = service.Snapshot(sync_id);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The request queue changes where the work runs, never what it computes.
  EXPECT_EQ(a.value().probabilities, b.value().probabilities);
  EXPECT_DOUBLE_EQ(a.value().uncertainty, b.value().uncertainty);

  std::future<Status> soft_done =
      service.SubmitAssertSoft(async_id, 2, true, 0.25);
  EXPECT_TRUE(soft_done.get().ok());
  EXPECT_EQ(service.Snapshot(async_id).value().soft_answer_count, 1u);
}

TEST(ReconcileServiceTest, ReconcileRunsAlgorithmOneInsideASession) {
  ReconcileService service;
  const TenantId tenant = RegisterTestTenant(&service);
  const SessionId id = service.OpenSession(tenant, 3).value();
  ReconcileGoal goal;
  goal.max_assertions = 4;
  const auto trace = service.Reconcile(
      id, StrategyKind::kInformationGain, goal,
      [](CorrespondenceId c) { return c % 2 == 0; });
  ASSERT_TRUE(trace.ok()) << trace.status().message();
  EXPECT_LE(trace.value().steps.size(), 4u);
  EXPECT_EQ(service.Snapshot(id).value().revision,
            trace.value().steps.size());
}

TEST(ReconcileServiceTest, DestructionDrainsPendingAsyncRequests) {
  // Regression: the service used to destroy its session/stats members
  // before the ThreadPool joined, so requests still queued at destruction
  // ran against dead mutexes. Drop the service with async work in flight
  // and never call get(); the drain must complete against live members
  // (caught by ASAN/TSAN if the member order regresses).
  ServerOptions options;
  options.worker_threads = 2;
  for (int round = 0; round < 4; ++round) {
    std::future<Status> pending_assert;
    std::future<StatusOr<SessionSnapshot>> pending_snapshot;
    {
      ReconcileService service(options);
      const TenantId tenant = RegisterTestTenant(&service);
      const SessionId id = service.OpenSession(tenant, 11).value();
      for (int i = 0; i < 16; ++i) {
        pending_assert = service.SubmitAssert(id, 0, true);
        pending_snapshot = service.SubmitSnapshot(id);
      }
    }  // ~ReconcileService drains the queue; futures outlive the service.
    EXPECT_TRUE(pending_assert.valid());
    EXPECT_TRUE(pending_snapshot.valid());
  }
}

TEST(ReconcileServiceTest, CloseDecrementsLiveSessions) {
  ReconcileService service;
  const TenantId tenant = RegisterTestTenant(&service);
  const SessionId id = service.OpenSession(tenant, 1).value();
  ASSERT_TRUE(service.Close(id).ok());
  EXPECT_EQ(service.session_count(), 0u);
  EXPECT_EQ(service.stats().sessions_closed, 1u);
  EXPECT_EQ(service.Assert(id, 0, true).code(), StatusCode::kNotFound);
}

TEST(ReconcileServiceTest, EmptyNetworkServesATrivialSession) {
  // Zero candidate correspondences: the session opens over an empty
  // partition, reports no uncertainty, and rejects every correspondence id.
  NetworkBuilder builder;
  builder.AddSchema("A");
  builder.AddSchema("B");
  builder.AddCompleteGraph();
  auto network = std::make_unique<Network>(builder.Build().value());
  auto constraints = std::make_unique<ConstraintSet>(
      testing::MakeStandardConstraints(*network));
  ReconcileService service;
  const TenantId tenant =
      service.RegisterTenant("empty", std::move(network), std::move(constraints))
          .value();
  const SessionId id = service.OpenSession(tenant, 1).value();
  const SessionSnapshot snapshot = service.Snapshot(id).value();
  EXPECT_TRUE(snapshot.probabilities.empty());
  EXPECT_EQ(snapshot.uncertainty, 0.0);
  EXPECT_TRUE(snapshot.exhausted);
  EXPECT_EQ(snapshot.revision, 0u);
  EXPECT_EQ(service.Assert(id, 0, true).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(service.Snapshot(id).value().revision, 0u);
  EXPECT_TRUE(service.Close(id).ok());
}

}  // namespace
}  // namespace server
}  // namespace smn
