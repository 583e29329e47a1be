#include "util/lock_rank.h"

#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/mutex.h"

namespace smn {
namespace {

#if defined(SMN_LOCK_DEBUG_ENABLED)

using lock_debug::LockEdge;

// Death tests fork after threads may exist (gtest_main, prior suites);
// the threadsafe style re-executes the binary so the child is clean.
void UseThreadsafeDeathTests() {
#if defined(GTEST_FLAG_SET)
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
}

TEST(LockRankTest, UpwardAcquisitionMaintainsTheHeldStackAndEdges) {
  lock_debug::ResetGraphForTest();
  Mutex low("test.low", 100);
  Mutex high("test.high", 200);
  EXPECT_EQ(lock_debug::HeldLockCount(), 0u);
  {
    MutexLock outer(low);
    EXPECT_EQ(lock_debug::HeldLockCount(), 1u);
    {
      MutexLock inner(high);
      EXPECT_EQ(lock_debug::HeldLockCount(), 2u);
    }
    EXPECT_EQ(lock_debug::HeldLockCount(), 1u);
  }
  EXPECT_EQ(lock_debug::HeldLockCount(), 0u);
  const std::vector<LockEdge> edges = lock_debug::ObservedEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], LockEdge("test.low", "test.high"));
  EXPECT_FALSE(lock_debug::ObservedCycle(nullptr));
}

TEST(LockRankTest, EdgesAreRecordedFromEveryHeldRankedLock) {
  lock_debug::ResetGraphForTest();
  Mutex a("test.a", 100);
  Mutex b("test.b", 200);
  Mutex c("test.c", 300);
  {
    MutexLock la(a);
    MutexLock lb(b);
    MutexLock lc(c);
  }
  const std::vector<LockEdge> edges = lock_debug::ObservedEdges();
  const std::vector<LockEdge> expected = {{"test.a", "test.b"},
                                          {"test.a", "test.c"},
                                          {"test.b", "test.c"}};
  EXPECT_EQ(edges, expected);  // ObservedEdges is lexicographically sorted.
}

TEST(LockRankTest, UnrankedMutexesOptOutOfCheckingAndRecording) {
  lock_debug::ResetGraphForTest();
  // Default-constructed: kUnranked. The opt-out applies per acquisition, so
  // each block uses its own unranked mutex: no pair of mutexes is ever taken
  // in both orders, which ThreadSanitizer's deadlock detector would report
  // as a lock-order inversion.
  Mutex outer_anon;
  Mutex inner_anon;
  Mutex low("test.low", 100);
  {
    // Ranked-under-unranked and unranked-under-ranked both pass silently.
    MutexLock outer(outer_anon);
    MutexLock inner(low);
  }
  {
    MutexLock outer(low);
    MutexLock inner(inner_anon);
  }
  EXPECT_TRUE(lock_debug::ObservedEdges().empty());
}

TEST(LockRankTest, TryLockIsExemptButStillTracked) {
  lock_debug::ResetGraphForTest();
  Mutex low("test.low", 100);
  Mutex high("test.high", 200);
  MutexLock outer(high);
  // Downward try-acquisition: would fail-stop as a blocking Lock, but a
  // TryLock cannot wait, hence cannot deadlock.
  ASSERT_TRUE(low.TryLock());
  EXPECT_EQ(lock_debug::HeldLockCount(), 2u);
  low.Unlock();
  EXPECT_EQ(lock_debug::HeldLockCount(), 1u);
  // Try-acquisitions record no graph edges either: the graph is the set of
  // *blocking* acquired-while-holding pairs.
  EXPECT_TRUE(lock_debug::ObservedEdges().empty());
}

TEST(LockRankDeathTest, RankInversionFailStops) {
  UseThreadsafeDeathTests();
  Mutex low("test.low", 100);
  Mutex high("test.high", 200);
  EXPECT_DEATH(
      {
        MutexLock outer(high);
        MutexLock inner(low);
      },
      "rank not strictly above every held lock");
}

TEST(LockRankDeathTest, EqualRankAcquisitionFailStops) {
  UseThreadsafeDeathTests();
  // Strictly-above is the rule: two locks sharing a rank may never nest,
  // in either order, or two threads nesting them oppositely would deadlock.
  Mutex first("test.first", 300);
  Mutex second("test.second", 300);
  EXPECT_DEATH(
      {
        MutexLock outer(first);
        MutexLock inner(second);
      },
      "rank not strictly above every held lock");
}

TEST(LockRankDeathTest, SelfDeadlockIsCaughtEvenForUnrankedMutexes) {
  UseThreadsafeDeathTests();
  EXPECT_DEATH(
      {
        Mutex mu;
        // Re-acquiring a held non-reentrant mutex: guaranteed deadlock. The
        // child process dies at the second Lock, so no Unlock can pair it.
        // smn-lint: allow(unpaired-lock)
        mu.Lock();
        mu.Lock();  // smn-lint: allow(unpaired-lock)
      },
      "self-deadlock");
}

TEST(LockRankDeathTest, BlockingBelowATryHeldLockFailStops) {
  UseThreadsafeDeathTests();
  // TryLock skips the check for itself but still lands on the held stack:
  // later blocking acquisitions must respect it.
  Mutex low("test.low", 100);
  Mutex high("test.high", 200);
  EXPECT_DEATH(
      {
        if (high.TryLock()) {
          MutexLock inner(low);
        }
      },
      "rank not strictly above every held lock");
}

TEST(LockRankTest, EdgesContainCycleFindsSyntheticCycleWithWitness) {
  std::string cycle;
  const std::vector<LockEdge> cyclic = {
      {"a", "b"}, {"b", "c"}, {"c", "a"}};
  EXPECT_TRUE(lock_debug::EdgesContainCycle(cyclic, &cycle));
  EXPECT_EQ(cycle, "a -> b -> c -> a");

  const std::vector<LockEdge> diamond = {
      {"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}};
  EXPECT_FALSE(lock_debug::EdgesContainCycle(diamond, nullptr));
  EXPECT_FALSE(lock_debug::EdgesContainCycle({}, nullptr));
}

TEST(LockRankTest, DumpEdgesWritesTheMergeScriptFormat) {
  lock_debug::ResetGraphForTest();
  Mutex low("test.low", 100);
  Mutex high("test.high", 200);
  {
    MutexLock outer(low);
    MutexLock inner(high);
  }
  {
    MutexLock outer(low);
    MutexLock inner(high);
  }
  const std::string path =
      ::testing::TempDir() + "/lock_rank_test_edges.tsv";
  std::remove(path.c_str());
  ASSERT_TRUE(lock_debug::DumpEdges(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "test.low\ttest.high\t2\n");
  std::remove(path.c_str());
  // Leave the process-global graph clean: with SMN_LOCK_GRAPH_OUT set the
  // atexit dump would otherwise append these synthetic test.* edges into
  // the merged production lock-order graph.
  lock_debug::ResetGraphForTest();
}

#else  // !SMN_LOCK_DEBUG_ENABLED

TEST(LockRankTest, DebugLayerCompilesOutEntirely) {
  // Release builds carry no per-mutex identity: a ranked Mutex is
  // byte-identical to the raw std::mutex it wraps (the acceptance bar for
  // "no measurable bench_server_load regression").
  // The std::mutex mention is a compile-time size probe, not a lock.
  // smn-lint: allow(raw-sync)
  static_assert(sizeof(Mutex) == sizeof(std::mutex),
                "lock-debug identity must compile out of release builds");
  GTEST_SKIP() << "Built without -DSMN_LOCK_DEBUG=ON; the ranked-mutex "
                  "checker is compiled out. Configure with it to run these.";
}

#endif  // SMN_LOCK_DEBUG_ENABLED

}  // namespace
}  // namespace smn
