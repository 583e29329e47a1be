// Kill-and-recover differential tests: the acceptance gate of the
// durability layer. A service is destroyed *without* closing its sessions
// (the crash signature — destructors never journal a Close), a fresh
// service re-registers the same tenants and replays the journals, and the
// recovered sessions must be bitwise identical to the pre-crash ones —
// marginals, uncertainty, revision, soft answer count — under scripts that
// include *rejected* asserts (journaled too, so replay keeps the arrival
// ordinals aligned), including journals written with a nonzero legacy word
// in the Open record.

#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "server/reconcile_service.h"
#include "server/session_journal.h"
#include "tests/testing/test_networks.h"

namespace smn {
namespace server {
namespace {

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

void CleanDir(const std::string& dir) {
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::vector<std::string> stale = ListDirectory(dir).value();
  for (const std::string& name : stale) {
    ASSERT_TRUE(RemoveFile(dir + "/" + name).ok());
  }
}

struct Op {
  bool soft = false;
  CorrespondenceId c = 0;
  bool approved = false;
  double eps = 0.0;
};

/// The pre-crash script. The second op contradicts the first and is
/// rejected — rejected requests are journaled too, and the differential
/// below checks they reject identically on replay.
std::vector<Op> PrefixOps(bool with_soft) {
  std::vector<Op> ops = {
      {false, 0, true},
      {false, 0, false},  // contradiction: rejected live AND on replay
      {false, 1, false},
  };
  if (with_soft) {
    ops.push_back({true, 2, true, 0.25});
    ops.push_back({true, 3, false, 0.1});
  }
  return ops;
}

/// The post-recovery script (recovered sessions keep working).
std::vector<Op> SuffixOps(bool with_soft) {
  std::vector<Op> ops = {{false, 2, true}};
  if (with_soft) ops.push_back({true, 4, true, 0.2});
  return ops;
}

std::vector<StatusCode> Apply(ReconcileService* service, SessionId id,
                              const std::vector<Op>& ops) {
  std::vector<StatusCode> codes;
  for (const Op& op : ops) {
    const Status status =
        op.soft ? service->AssertSoft(id, op.c, op.approved, op.eps)
                : service->Assert(id, op.c, op.approved);
    codes.push_back(status.code());
  }
  return codes;
}

/// Exact-equality comparison of everything a snapshot derives from session
/// state (== on doubles: the determinism contract is bitwise, not approx).
void ExpectStateEqual(const SessionSnapshot& got, const SessionSnapshot& want) {
  EXPECT_EQ(got.revision, want.revision);
  EXPECT_EQ(got.soft_answer_count, want.soft_answer_count);
  ASSERT_EQ(got.probabilities.size(), want.probabilities.size());
  for (size_t i = 0; i < want.probabilities.size(); ++i) {
    EXPECT_EQ(got.probabilities[i], want.probabilities[i]) << "marginal " << i;
  }
  EXPECT_EQ(got.uncertainty, want.uncertainty);
  EXPECT_EQ(got.exhausted, want.exhausted);
}

void RunKillAndRecover(bool with_soft, const std::string& dir) {
  SCOPED_TRACE(with_soft ? "mixed" : "hard-only");
  CleanDir(dir);
  constexpr uint64_t kSeed = 11;
  ServerOptions journaled;
  journaled.journal_dir = dir;

  // The uninterrupted reference run (no journal, same seed).
  ReconcileService reference;
  const SessionId ref_id =
      reference.OpenSession(RegisterTestTenant(&reference), kSeed).value();
  const std::vector<StatusCode> ref_prefix =
      Apply(&reference, ref_id, PrefixOps(with_soft));
  const SessionSnapshot ref_mid = reference.Snapshot(ref_id).value();
  const std::vector<StatusCode> ref_suffix =
      Apply(&reference, ref_id, SuffixOps(with_soft));
  const SessionSnapshot ref_final = reference.Snapshot(ref_id).value();

  // The crashing run: same script, then the service dies without Close.
  SessionSnapshot pre_crash;
  std::vector<StatusCode> live_codes;
  SessionId id = 0;
  {
    ReconcileService crashed(journaled);
    id = crashed.OpenSession(RegisterTestTenant(&crashed), kSeed).value();
    live_codes = Apply(&crashed, id, PrefixOps(with_soft));
    pre_crash = crashed.Snapshot(id).value();
  }  // Crash: no Close anywhere — the journal survives as a live session.
  EXPECT_EQ(live_codes, ref_prefix);
  ExpectStateEqual(pre_crash, ref_mid);

  // Recovery: fresh service, identical tenant registration order, replay.
  ReconcileService revived(journaled);
  RegisterTestTenant(&revived);
  const StatusOr<RecoveryReport> report = revived.Recover(dir);
  ASSERT_TRUE(report.ok()) << report.status();
  const std::vector<Op> prefix = PrefixOps(with_soft);
  uint64_t hard = 0, soft = 0, rejected = 0;
  for (const Op& op : prefix) (op.soft ? soft : hard) += 1;
  for (const StatusCode code : live_codes) {
    if (code != StatusCode::kOk) ++rejected;
  }
  EXPECT_EQ(report->sessions_recovered, 1u);
  EXPECT_EQ(report->asserts_replayed, hard);
  EXPECT_EQ(report->soft_replayed, soft);
  EXPECT_EQ(report->replay_rejected, rejected);
  EXPECT_GE(rejected, 1u);  // The script really exercises the reject path.
  EXPECT_EQ(report->truncated_tails, 0u);
  EXPECT_EQ(report->failed_sessions, 0u);
  EXPECT_EQ(report->revision_mismatches, 0u);

  // THE acceptance criterion: recovered state is bitwise pre-crash state,
  // under the session's original id.
  ExpectStateEqual(revived.Snapshot(id).value(), pre_crash);

  // And the recovered session keeps evolving exactly like the
  // uninterrupted reference — replay rebuilt the RNG/sample state too.
  EXPECT_EQ(Apply(&revived, id, SuffixOps(with_soft)), ref_suffix);
  ExpectStateEqual(revived.Snapshot(id).value(), ref_final);

  // A clean close retires the journal: nothing left to recover.
  EXPECT_TRUE(revived.Close(id).ok());
  EXPECT_TRUE(ListJournalSessions(dir).value().empty());
}

TEST(RecoveryEquivalenceTest, MonolithicHardOnly) {
  RunKillAndRecover(false, "./recovery_eq_k0_hard");
}
TEST(RecoveryEquivalenceTest, MonolithicMixed) {
  RunKillAndRecover(true, "./recovery_eq_k0_mixed");
}

TEST(RecoveryEquivalenceTest, LegacyShardWordInTheOpenRecordIsIgnored) {
  // A journal as a four-shard session wrote it: the Open record's trailing
  // word is 4. Every engine configuration produced bitwise-identical
  // sessions, so recovery must rebuild exactly the uninterrupted session.
  const std::string dir = "./recovery_eq_legacy_shards";
  CleanDir(dir);
  constexpr uint64_t kSeed = 11;
  constexpr SessionId kId = 3;
  const std::vector<Op> ops = PrefixOps(/*with_soft=*/true);

  ReconcileService reference;
  const TenantId tenant = RegisterTestTenant(&reference);
  const SessionId ref_id = reference.OpenSession(tenant, kSeed).value();
  const std::vector<StatusCode> codes = Apply(&reference, ref_id, ops);

  {
    std::string open;
    AppendU32(&open, static_cast<uint32_t>(JournalRecordKind::kOpen));
    AppendU64(&open, kId);
    AppendU64(&open, tenant);
    AppendU64(&open, kSeed);
    AppendU64(&open, /*shards=*/4);
    StatusOr<RecordWriter> writer =
        RecordWriter::Open(JournalFilePath(dir, kId), /*truncate=*/true);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(open).ok());
    uint64_t accepted = 0, soft = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const std::string record =
          op.soft ? EncodeAssertSoftRecord(op.c, op.approved, op.eps, soft)
                  : EncodeAssertRecord(op.c, op.approved, accepted);
      ASSERT_TRUE(writer->Append(record).ok());
      if (codes[i] == StatusCode::kOk) ++(op.soft ? soft : accepted);
    }
    ASSERT_TRUE(writer->Sync().ok());
  }

  ServerOptions options;
  options.journal_dir = dir;
  ReconcileService revived(options);
  RegisterTestTenant(&revived);
  const StatusOr<RecoveryReport> report = revived.Recover(dir);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->sessions_recovered, 1u);
  EXPECT_EQ(report->failed_sessions, 0u);
  EXPECT_EQ(report->revision_mismatches, 0u);
  ExpectStateEqual(revived.Snapshot(kId).value(),
                   reference.Snapshot(ref_id).value());
}

TEST(RecoveryEquivalenceTest, CleanlyClosedSessionsAreNotResurrected) {
  const std::string dir = "./recovery_eq_closed";
  CleanDir(dir);
  ServerOptions options;
  options.journal_dir = dir;
  SessionSnapshot pre_crash;
  SessionId live = 0, closed = 0;
  {
    ReconcileService crashed(options);
    const TenantId tenant = RegisterTestTenant(&crashed);
    live = crashed.OpenSession(tenant, 3).value();
    closed = crashed.OpenSession(tenant, 4).value();
    ASSERT_TRUE(crashed.Assert(live, 0, true).ok());
    ASSERT_TRUE(crashed.Assert(closed, 1, false).ok());
    ASSERT_TRUE(crashed.Close(closed).ok());  // Clean close unlinks.
    pre_crash = crashed.Snapshot(live).value();
  }
  ReconcileService revived(options);
  RegisterTestTenant(&revived);
  const RecoveryReport report = revived.Recover(dir).value();
  EXPECT_EQ(report.sessions_recovered, 1u);
  ExpectStateEqual(revived.Snapshot(live).value(), pre_crash);
  EXPECT_EQ(revived.Snapshot(closed).status().code(), StatusCode::kNotFound);
  // The id allocator was bumped past the *recovered* id, so new sessions
  // never collide with it. (The cleanly closed id left no journal and no
  // live session — reusing it after restart is fine.)
  const SessionId fresh =
      revived.OpenSession(/*tenant=*/1, /*seed=*/9).value();
  EXPECT_GT(fresh, live);
  EXPECT_TRUE(revived.Snapshot(fresh).ok());
  ExpectStateEqual(revived.Snapshot(live).value(), pre_crash);
}

TEST(RecoveryEquivalenceTest, TrailingCloseRecordIsSkippedAndUnlinked) {
  // A journal whose last record is Close (a clean shutdown that lost the
  // unlink, or a file restored from backup) — skip, don't resurrect.
  const std::string dir = "./recovery_eq_trailing_close";
  CleanDir(dir);
  const std::string path = JournalFilePath(dir, 9);
  {
    StatusOr<RecordWriter> writer = RecordWriter::Open(path, true);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(EncodeOpenRecord(9, 1, 5)).ok());
    ASSERT_TRUE(writer->Append(EncodeCloseRecord()).ok());
  }
  ServerOptions options;
  options.journal_dir = dir;
  ReconcileService service(options);
  RegisterTestTenant(&service);
  const RecoveryReport report = service.Recover(dir).value();
  EXPECT_EQ(report.sessions_recovered, 0u);
  EXPECT_EQ(report.sessions_skipped_closed, 1u);
  EXPECT_EQ(report.failed_sessions, 0u);
  EXPECT_EQ(service.session_count(), 0u);
  EXPECT_EQ(ReadFileBytes(path).status().code(), StatusCode::kNotFound);
}

TEST(RecoveryEquivalenceTest, CorruptTailIsTruncatedAndCounted) {
  const std::string dir = "./recovery_eq_corrupt_tail";
  CleanDir(dir);
  ServerOptions options;
  options.journal_dir = dir;
  SessionSnapshot pre_crash;
  SessionId id = 0;
  {
    ReconcileService crashed(options);
    id = crashed.OpenSession(RegisterTestTenant(&crashed), 5).value();
    ASSERT_TRUE(crashed.Assert(id, 0, true).ok());
    pre_crash = crashed.Snapshot(id).value();
  }
  // Simulate a torn final append: raw garbage after the durable records.
  const std::string path = JournalFilePath(dir, id);
  {
    std::ofstream tail(path, std::ios::app | std::ios::binary);
    ASSERT_TRUE(tail.good());
    const std::string garbage = "torn-garbage!!";
    tail.write(garbage.data(),
               static_cast<std::streamsize>(garbage.size()));
  }
  ReconcileService revived(options);
  RegisterTestTenant(&revived);
  const RecoveryReport report = revived.Recover(dir).value();
  EXPECT_EQ(report.sessions_recovered, 1u);
  EXPECT_EQ(report.truncated_tails, 1u);
  EXPECT_EQ(report.dropped_bytes, 14u);
  EXPECT_EQ(report.asserts_replayed, 1u);
  ExpectStateEqual(revived.Snapshot(id).value(), pre_crash);
  // The truncation was physical: the file on disk is clean again.
  const RecordParse parse = ParseRecords(ReadFileBytes(path).value());
  EXPECT_TRUE(parse.clean());
}

TEST(RecoveryEquivalenceTest, EvictedSessionsAreNotResurrected) {
  const std::string dir = "./recovery_eq_evicted";
  CleanDir(dir);
  ServerOptions options;
  options.journal_dir = dir;
  options.session_idle_ttl = 1;
  SessionSnapshot pre_crash;
  SessionId stale = 0, busy = 0;
  {
    ReconcileService crashed(options);
    const TenantId tenant = RegisterTestTenant(&crashed);
    stale = crashed.OpenSession(tenant, 3).value();
    busy = crashed.OpenSession(tenant, 4).value();
    ASSERT_TRUE(crashed.Assert(stale, 0, true).ok());
    // Keep `busy` hot while `stale` idles past the TTL.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(crashed.Snapshot(busy).ok());
    }
    EXPECT_EQ(crashed.ExpireIdleSessions(), 1u);
    pre_crash = crashed.Snapshot(busy).value();
  }
  // Eviction is a *clean* close: the stale journal was finished and
  // unlinked, so only `busy` comes back.
  ReconcileService revived(options);
  RegisterTestTenant(&revived);
  const RecoveryReport report = revived.Recover(dir).value();
  EXPECT_EQ(report.sessions_recovered, 1u);
  EXPECT_EQ(revived.Snapshot(stale).status().code(), StatusCode::kNotFound);
  ExpectStateEqual(revived.Snapshot(busy).value(), pre_crash);
}

TEST(RecoveryEquivalenceTest, UnknownTenantCountsAsFailedAndIsRetriable) {
  const std::string dir = "./recovery_eq_unknown_tenant";
  CleanDir(dir);
  ServerOptions options;
  options.journal_dir = dir;
  SessionSnapshot pre_crash;
  SessionId id = 0;
  {
    ReconcileService crashed(options);
    id = crashed.OpenSession(RegisterTestTenant(&crashed), 5).value();
    ASSERT_TRUE(crashed.Assert(id, 0, true).ok());
    pre_crash = crashed.Snapshot(id).value();
  }
  ReconcileService revived(options);
  {
    // Tenants not re-registered yet: the journal fails, is *kept*, and the
    // rest of recovery is unaffected.
    const RecoveryReport report = revived.Recover(dir).value();
    EXPECT_EQ(report.sessions_recovered, 0u);
    EXPECT_EQ(report.failed_sessions, 1u);
    EXPECT_EQ(ListJournalSessions(dir).value().size(), 1u);
  }
  RegisterTestTenant(&revived);
  const RecoveryReport report = revived.Recover(dir).value();
  EXPECT_EQ(report.sessions_recovered, 1u);
  EXPECT_EQ(report.failed_sessions, 0u);
  ExpectStateEqual(revived.Snapshot(id).value(), pre_crash);
}

TEST(RecoveryEquivalenceTest, MissingJournalDirYieldsAnEmptyReport) {
  ReconcileService service;
  const RecoveryReport report =
      service.Recover("./recovery_eq_never_created").value();
  EXPECT_EQ(report.sessions_recovered, 0u);
  EXPECT_EQ(report.failed_sessions, 0u);
}

TEST(RecoveryEquivalenceTest, JournaledSessionsRefuseReconcile) {
  const std::string dir = "./recovery_eq_reconcile";
  CleanDir(dir);
  ServerOptions options;
  options.journal_dir = dir;
  ReconcileService service(options);
  const SessionId id =
      service.OpenSession(RegisterTestTenant(&service), 5).value();
  ReconcileGoal goal;
  goal.max_assertions = 2;
  const StatusOr<ReconcileTrace> trace =
      service.Reconcile(id, StrategyKind::kInformationGain, goal,
                        [](CorrespondenceId c) { return c % 2 == 0; });
  EXPECT_EQ(trace.status().code(), StatusCode::kFailedPrecondition);
  // Refusal is clean: the session still takes journaled asserts.
  EXPECT_TRUE(service.Assert(id, 0, true).ok());
}

}  // namespace
}  // namespace server
}  // namespace smn
