// Pins the central guarantee of the component-decomposed reconciliation
// engine: with per-component RNG streams forked purely from (anchor,
// generation), the incremental mode (re-sample only the touched component)
// and the full-resample mode (recompute every component on every assertion)
// produce bit-identical probabilities, H(C, P), information gains, and
// reconciliation traces — in the exact-enumeration regime *and* in the
// sampling regime. A third axis checks the decomposition itself against
// whole-network exhaustive enumeration (Equation 1 ground truth).

#include <vector>

#include <gtest/gtest.h>

#include "core/matching_instance.h"
#include "core/probabilistic_network.h"
#include "core/reconciler.h"
#include "core/selection_strategy.h"
#include "tests/testing/exact_enumerator.h"
#include "tests/testing/test_networks.h"

namespace smn {
namespace {

ProbabilisticNetworkOptions ModeOptions(bool incremental, bool sampling) {
  ProbabilisticNetworkOptions options;
  options.incremental = incremental;
  if (sampling) {
    options.store.exact_threshold = 0;  // Force the sampling path everywhere.
    options.store.target_samples = 120;
    options.store.min_samples = 30;
  }
  return options;
}

/// Runs both modes in lockstep with identical seeds and a shared
/// ground-truth oracle, comparing every observable after every step.
void ExpectModesBitIdentical(const testing::RandomNetwork& net, bool sampling,
                             StrategyKind kind, uint64_t seed) {
  const size_t n = net.network.correspondence_count();

  // A consistent oracle: membership in one fixed matching instance.
  Rng truth_rng(seed);
  ProbabilisticNetwork scratch =
      ProbabilisticNetwork::Create(net.network, net.constraints,
                                   ModeOptions(true, sampling), &truth_rng)
          .value();
  ASSERT_FALSE(scratch.samples().empty());
  const DynamicBitset truth = scratch.samples()[0];
  const AssertionOracle oracle = [&truth](CorrespondenceId c) {
    return truth.Test(c);
  };

  Rng rng_a(seed);
  Rng rng_b(seed);
  ProbabilisticNetwork incremental =
      ProbabilisticNetwork::Create(net.network, net.constraints,
                                   ModeOptions(true, sampling), &rng_a)
          .value();
  ProbabilisticNetwork full =
      ProbabilisticNetwork::Create(net.network, net.constraints,
                                   ModeOptions(false, sampling), &rng_b)
          .value();

  auto strategy_a = MakeStrategy(kind);
  auto strategy_b = MakeStrategy(kind);
  Reconciler reconciler_a(&incremental, strategy_a.get(), oracle);
  Reconciler reconciler_b(&full, strategy_b.get(), oracle);

  ASSERT_EQ(incremental.probabilities(), full.probabilities());
  EXPECT_DOUBLE_EQ(incremental.Uncertainty(), full.Uncertainty());

  for (size_t step = 0; step < n; ++step) {
    const auto step_a = reconciler_a.Step(&rng_a);
    const auto step_b = reconciler_b.Step(&rng_b);
    ASSERT_EQ(step_a.ok(), step_b.ok()) << "diverged at step " << step;
    if (!step_a.ok()) {
      ASSERT_EQ(step_a.status().code(), StatusCode::kNotFound);
      break;  // Both converged.
    }
    ASSERT_EQ(step_a->correspondence, step_b->correspondence)
        << "selection diverged at step " << step;
    ASSERT_EQ(step_a->approved, step_b->approved);
    EXPECT_DOUBLE_EQ(step_a->uncertainty_after, step_b->uncertainty_after);
    EXPECT_DOUBLE_EQ(step_a->effort_after, step_b->effort_after);
    ASSERT_EQ(incremental.probabilities(), full.probabilities())
        << "marginals diverged at step " << step;
    ASSERT_EQ(incremental.InformationGains(), full.InformationGains())
        << "gains diverged at step " << step;
    EXPECT_EQ(incremental.exhausted(), full.exhausted());
  }
  EXPECT_DOUBLE_EQ(incremental.Uncertainty(), full.Uncertainty());
}

class IncrementalEquivalenceTest : public ::testing::Test {
 protected:
  IncrementalEquivalenceTest()
      : clustered_(testing::MakeClusteredNetwork({3, 3, 2, 0.45, 29})) {}

  testing::RandomNetwork clustered_;
};

TEST_F(IncrementalEquivalenceTest, NetworkIsGenuinelyMultiComponent) {
  Rng rng(1);
  ProbabilisticNetwork pmn =
      ProbabilisticNetwork::Create(clustered_.network, clustered_.constraints,
                                   ModeOptions(true, false), &rng)
          .value();
  EXPECT_GE(pmn.component_count(), 3u);
}

TEST_F(IncrementalEquivalenceTest, ExactRegimeBitIdentical) {
  for (StrategyKind kind : {StrategyKind::kInformationGain,
                            StrategyKind::kSequential, StrategyKind::kRandom}) {
    SCOPED_TRACE(StrategyKindName(kind));
    ExpectModesBitIdentical(clustered_, /*sampling=*/false, kind, 97);
  }
}

TEST_F(IncrementalEquivalenceTest, SamplingRegimeBitIdentical) {
  for (StrategyKind kind : {StrategyKind::kInformationGain,
                            StrategyKind::kSequential}) {
    SCOPED_TRACE(StrategyKindName(kind));
    ExpectModesBitIdentical(clustered_, /*sampling=*/true, kind, 131);
  }
}

TEST_F(IncrementalEquivalenceTest, MatchesWholeNetworkEnumeration) {
  // The per-component assembly must reproduce Equation 1 exactly: compare
  // marginals against a monolithic exhaustive enumeration of the *whole*
  // network after every assertion.
  const size_t n = clustered_.network.correspondence_count();
  ASSERT_LE(n, 26u) << "spec grew beyond exhaustive enumeration";
  ExactEnumerator enumerator(clustered_.network, clustered_.constraints);

  Rng rng(41);
  ProbabilisticNetwork pmn =
      ProbabilisticNetwork::Create(clustered_.network, clustered_.constraints,
                                   ModeOptions(true, false), &rng)
          .value();
  const auto initial = enumerator.Enumerate(Feedback(n)).value();
  ASSERT_FALSE(initial.instances.empty());
  const DynamicBitset truth = initial.instances.back();

  auto strategy = MakeStrategy(StrategyKind::kInformationGain);
  Reconciler reconciler(
      &pmn, strategy.get(),
      [&truth](CorrespondenceId c) { return truth.Test(c); });

  for (size_t step = 0; step <= n; ++step) {
    const auto exact = enumerator.Enumerate(pmn.feedback()).value();
    for (CorrespondenceId c = 0; c < n; ++c) {
      EXPECT_DOUBLE_EQ(pmn.probability(c), exact.probabilities[c])
          << "correspondence " << c << " at step " << step;
    }
    // The exhausted product view is exactly Ω.
    ASSERT_TRUE(pmn.exhausted());
    EXPECT_EQ(pmn.samples().size(), exact.instances.size());
    for (const DynamicBitset& instance : pmn.samples()) {
      EXPECT_TRUE(
          IsMatchingInstance(clustered_.constraints, pmn.feedback(), instance));
    }
    const auto next = reconciler.Step(&rng);
    if (!next.ok()) {
      ASSERT_EQ(next.status().code(), StatusCode::kNotFound);
      break;
    }
  }
  EXPECT_DOUBLE_EQ(pmn.Uncertainty(), 0.0);
}

TEST_F(IncrementalEquivalenceTest, SamplingMarginalsStayNormalized) {
  Rng rng(59);
  ProbabilisticNetwork pmn =
      ProbabilisticNetwork::Create(clustered_.network, clustered_.constraints,
                                   ModeOptions(true, true), &rng)
          .value();
  ASSERT_FALSE(pmn.samples().empty());
  const DynamicBitset truth = pmn.samples()[0];
  auto strategy = MakeStrategy(StrategyKind::kMaxEntropy);
  Reconciler reconciler(&pmn, strategy.get(),
                        [&truth](CorrespondenceId c) { return truth.Test(c); });
  const auto trace = reconciler.Run(ReconcileGoal{}, &rng);
  ASSERT_TRUE(trace.ok());
  for (double p : pmn.probabilities()) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_DOUBLE_EQ(pmn.Uncertainty(), 0.0);
}

}  // namespace
}  // namespace smn
