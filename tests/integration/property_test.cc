// Property-based sweeps over random networks: the cross-module invariants
// that must hold for every seed and shape, exercised via parameterized gtest.

#include <unordered_set>

#include <gtest/gtest.h>

#include "core/instantiation.h"
#include "core/matching_instance.h"
#include "core/probabilistic_network.h"
#include "core/reconciler.h"
#include "core/repair.h"
#include "tests/testing/exact_enumerator.h"
#include "tests/testing/test_networks.h"

namespace smn {
namespace {

struct PropertyCase {
  size_t schema_count;
  size_t attributes_per_schema;
  double density;
  uint64_t seed;
};

void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << c.schema_count << "schemas_" << c.attributes_per_schema << "attrs_d"
      << static_cast<int>(c.density * 100) << "_s" << c.seed;
}

class NetworkPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  NetworkPropertyTest()
      : random_(testing::MakeRandomNetwork(
            {GetParam().schema_count, GetParam().attributes_per_schema,
             GetParam().density, GetParam().seed})),
        feedback_(random_.network.correspondence_count()) {}

  testing::RandomNetwork random_;
  Feedback feedback_;
};

TEST_P(NetworkPropertyTest, ExactInstancesSatisfyDefinitionAndAreUnique) {
  if (random_.network.correspondence_count() > 18) GTEST_SKIP();
  ExactEnumerator enumerator(random_.network, random_.constraints);
  const auto exact = enumerator.Enumerate(feedback_);
  ASSERT_TRUE(exact.ok());
  std::unordered_set<DynamicBitset, DynamicBitsetHash> seen;
  for (const DynamicBitset& instance : exact->instances) {
    EXPECT_TRUE(IsMatchingInstance(random_.constraints, feedback_, instance));
    EXPECT_TRUE(seen.insert(instance).second) << "duplicate instance";
  }
  for (double p : exact->probabilities) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_P(NetworkPropertyTest, RepairAlwaysRestoresConsistency) {
  Rng rng(GetParam().seed * 13 + 1);
  const size_t n = random_.network.correspondence_count();
  if (n == 0) GTEST_SKIP();
  DynamicBitset instance(n);
  WalkScratch scratch(n);
  for (int step = 0; step < 60; ++step) {
    const CorrespondenceId c = static_cast<CorrespondenceId>(rng.Index(n));
    if (instance.Test(c)) continue;
    ASSERT_TRUE(RepairInstance(random_.constraints, feedback_, c, &instance,
                               &scratch)
                    .ok());
    EXPECT_TRUE(random_.constraints.IsSatisfied(instance));
    EXPECT_TRUE(instance.Test(c)) << "added correspondence must survive";
  }
}

TEST_P(NetworkPropertyTest, SamplesAreAlwaysMatchingInstances) {
  Rng rng(GetParam().seed * 13 + 2);
  Sampler sampler(random_.network, random_.constraints);
  std::vector<DynamicBitset> samples;
  WalkScratch scratch;
  ASSERT_TRUE(
      sampler.SampleChain(feedback_, 60, &rng, &samples, &scratch).ok());
  for (const DynamicBitset& sample : samples) {
    EXPECT_TRUE(IsMatchingInstance(random_.constraints, feedback_, sample));
  }
}

TEST_P(NetworkPropertyTest, StoreRespectsFeedbackThroughAssertions) {
  Rng rng(GetParam().seed * 13 + 3);
  const size_t n = random_.network.correspondence_count();
  if (n < 4) GTEST_SKIP();
  ProbabilisticNetworkOptions options;
  options.store.target_samples = 120;
  options.store.min_samples = 30;
  auto pmn = ProbabilisticNetwork::Create(random_.network, random_.constraints,
                                          options, &rng);
  ASSERT_TRUE(pmn.ok());
  // Assert half of the uncertain correspondences with arbitrary answers that
  // follow one surviving sample (so F+ stays satisfiable).
  const DynamicBitset guide = pmn->samples().front();
  for (int i = 0; i < 8; ++i) {
    const auto uncertain = pmn->UncertainCorrespondences();
    if (uncertain.empty()) break;
    const CorrespondenceId c = uncertain[rng.Index(uncertain.size())];
    ASSERT_TRUE(pmn->Assert(c, guide.Test(c), &rng).ok());
    for (const DynamicBitset& sample : pmn->samples()) {
      EXPECT_TRUE(pmn->feedback().IsRespectedBy(sample));
      EXPECT_TRUE(random_.constraints.IsSatisfied(sample));
    }
    for (double p : pmn->probabilities()) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST_P(NetworkPropertyTest, InformationGainsNonNegative) {
  Rng rng(GetParam().seed * 13 + 4);
  ProbabilisticNetworkOptions options;
  options.store.target_samples = 100;
  options.store.min_samples = 25;
  auto pmn = ProbabilisticNetwork::Create(random_.network, random_.constraints,
                                          options, &rng);
  ASSERT_TRUE(pmn.ok());
  for (double gain : pmn->InformationGains()) {
    EXPECT_GE(gain, -1e-9);
  }
}

TEST_P(NetworkPropertyTest, InstantiationNeverWorseThanBestSample) {
  Rng rng(GetParam().seed * 13 + 5);
  ProbabilisticNetworkOptions options;
  options.store.target_samples = 100;
  options.store.min_samples = 25;
  auto pmn = ProbabilisticNetwork::Create(random_.network, random_.constraints,
                                          options, &rng);
  ASSERT_TRUE(pmn.ok());
  size_t best_sample_size = 0;
  for (const DynamicBitset& sample : pmn->samples()) {
    best_sample_size = std::max(best_sample_size, sample.Count());
  }
  const Instantiator instantiator;
  const auto result = instantiator.Instantiate(*pmn, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(
      IsMatchingInstance(random_.constraints, pmn->feedback(), result->instance));
  EXPECT_GE(result->instance.Count(), best_sample_size);
}

TEST_P(NetworkPropertyTest, ReconciliationConvergesWithAnyOracle) {
  Rng rng(GetParam().seed * 13 + 6);
  ProbabilisticNetworkOptions options;
  options.store.target_samples = 100;
  options.store.min_samples = 25;
  auto pmn = ProbabilisticNetwork::Create(random_.network, random_.constraints,
                                          options, &rng);
  ASSERT_TRUE(pmn.ok());
  // Oracle follows one fixed matching instance, so its answers are mutually
  // consistent.
  const DynamicBitset truth = pmn->samples().front();
  auto strategy = MakeStrategy(StrategyKind::kInformationGain);
  Reconciler reconciler(
      &*pmn, strategy.get(),
      [&truth](CorrespondenceId c) { return truth.Test(c); });
  const auto trace = reconciler.Run(ReconcileGoal{}, &rng);
  ASSERT_TRUE(trace.ok());
  EXPECT_DOUBLE_EQ(pmn->Uncertainty(), 0.0);
  // The surviving instance is exactly the oracle's truth.
  ASSERT_GE(pmn->samples().size(), 1u);
  for (const DynamicBitset& sample : pmn->samples()) {
    EXPECT_EQ(sample, truth);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetworks, NetworkPropertyTest,
    ::testing::Values(PropertyCase{3, 3, 0.3, 1}, PropertyCase{3, 3, 0.5, 2},
                      PropertyCase{3, 4, 0.3, 3}, PropertyCase{4, 3, 0.25, 4},
                      PropertyCase{4, 4, 0.3, 5}, PropertyCase{5, 3, 0.2, 6},
                      PropertyCase{3, 5, 0.35, 7}, PropertyCase{4, 5, 0.2, 8},
                      PropertyCase{5, 4, 0.25, 9}, PropertyCase{6, 3, 0.2, 10}));

}  // namespace
}  // namespace smn
