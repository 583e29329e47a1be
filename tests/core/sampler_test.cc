#include "core/sampler.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "core/matching_instance.h"
#include "tests/testing/exact_enumerator.h"
#include "tests/testing/test_networks.h"

namespace smn {
namespace {

class SamplerTest : public ::testing::Test {
 protected:
  SamplerTest()
      : fig1_(testing::MakeFig1Network()),
        feedback_(fig1_.network.correspondence_count()) {}

  testing::Fig1Network fig1_;
  Feedback feedback_;
  WalkScratch scratch_;
};

TEST_F(SamplerTest, SamplesAreMatchingInstances) {
  Sampler sampler(fig1_.network, fig1_.constraints);
  Rng rng(1);
  std::vector<DynamicBitset> samples;
  ASSERT_TRUE(
      sampler.SampleChain(feedback_, 200, &rng, &samples, &scratch_).ok());
  ASSERT_EQ(samples.size(), 200u);
  for (const DynamicBitset& sample : samples) {
    EXPECT_TRUE(IsMatchingInstance(fig1_.constraints, feedback_, sample))
        << sample.ToString();
  }
}

TEST_F(SamplerTest, VisitsTheMainInstancesOfFig1) {
  Sampler sampler(fig1_.network, fig1_.constraints);
  Rng rng(2);
  std::vector<DynamicBitset> samples;
  ASSERT_TRUE(
      sampler.SampleChain(feedback_, 400, &rng, &samples, &scratch_).ok());
  std::unordered_set<DynamicBitset, DynamicBitsetHash> distinct(samples.begin(),
                                                                samples.end());
  // Fig. 1 has five matching instances. The add-and-repair walk must visit
  // the four substantial ones — in particular the two closed triangles I1
  // and I2, which a removal-only repair can never assemble. (The fifth, the
  // singleton {c1}, has a vanishing basin under any add-based walk; the
  // sample store covers it via exact enumeration on networks this small.)
  EXPECT_GE(distinct.size(), 4u);
  auto contains = [&](std::initializer_list<CorrespondenceId> ids) {
    DynamicBitset target(fig1_.network.correspondence_count());
    for (CorrespondenceId id : ids) target.Set(id);
    return distinct.count(target) > 0;
  };
  EXPECT_TRUE(contains({fig1_.c1, fig1_.c2, fig1_.c3}));
  EXPECT_TRUE(contains({fig1_.c1, fig1_.c4, fig1_.c5}));
  EXPECT_TRUE(contains({fig1_.c3, fig1_.c4}));
  EXPECT_TRUE(contains({fig1_.c2, fig1_.c5}));
}

TEST_F(SamplerTest, RespectsApprovals) {
  ASSERT_TRUE(feedback_.Approve(fig1_.c2).ok());
  Sampler sampler(fig1_.network, fig1_.constraints);
  Rng rng(3);
  std::vector<DynamicBitset> samples;
  ASSERT_TRUE(
      sampler.SampleChain(feedback_, 100, &rng, &samples, &scratch_).ok());
  for (const DynamicBitset& sample : samples) {
    EXPECT_TRUE(sample.Test(fig1_.c2));
  }
}

TEST_F(SamplerTest, RespectsDisapprovals) {
  ASSERT_TRUE(feedback_.Disapprove(fig1_.c1).ok());
  Sampler sampler(fig1_.network, fig1_.constraints);
  Rng rng(4);
  std::vector<DynamicBitset> samples;
  ASSERT_TRUE(
      sampler.SampleChain(feedback_, 100, &rng, &samples, &scratch_).ok());
  for (const DynamicBitset& sample : samples) {
    EXPECT_FALSE(sample.Test(fig1_.c1));
  }
}

TEST_F(SamplerTest, InconsistentApprovalsRejected) {
  ASSERT_TRUE(feedback_.Approve(fig1_.c3).ok());
  ASSERT_TRUE(feedback_.Approve(fig1_.c5).ok());  // 1-1 conflict.
  Sampler sampler(fig1_.network, fig1_.constraints);
  Rng rng(5);
  std::vector<DynamicBitset> samples;
  EXPECT_EQ(
      sampler.SampleChain(feedback_, 10, &rng, &samples, &scratch_).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SamplerTest, NonMaximalizedSamplesAreStillConsistent) {
  SamplerOptions options;
  options.maximalize = false;
  Sampler sampler(fig1_.network, fig1_.constraints, options);
  Rng rng(6);
  std::vector<DynamicBitset> samples;
  ASSERT_TRUE(
      sampler.SampleChain(feedback_, 100, &rng, &samples, &scratch_).ok());
  for (const DynamicBitset& sample : samples) {
    EXPECT_TRUE(fig1_.constraints.IsSatisfied(sample));
    EXPECT_TRUE(feedback_.IsRespectedBy(sample));
  }
}

TEST_F(SamplerTest, NextInstanceKeepsConsistency) {
  Sampler sampler(fig1_.network, fig1_.constraints);
  Rng rng(7);
  DynamicBitset state = feedback_.approved();
  for (int step = 0; step < 50; ++step) {
    auto next = sampler.NextInstance(state, feedback_, &rng);
    ASSERT_TRUE(next.ok());
    state = *next;
    EXPECT_TRUE(fig1_.constraints.IsSatisfied(state));
  }
}

TEST(SamplerPropertyTest, SampledInstancesMatchExactEnumerationSupport) {
  // On random networks every sampled instance must be one of the exactly
  // enumerated instances (the sampler explores Ω, nothing outside it).
  for (uint64_t seed : {11u, 22u, 33u}) {
    const testing::RandomNetwork random =
        testing::MakeRandomNetwork({3, 3, 0.4, seed});
    Feedback feedback(random.network.correspondence_count());
    ExactEnumerator enumerator(random.network, random.constraints);
    const auto exact = enumerator.Enumerate(feedback);
    ASSERT_TRUE(exact.ok());
    std::unordered_set<DynamicBitset, DynamicBitsetHash> support(
        exact->instances.begin(), exact->instances.end());

    Sampler sampler(random.network, random.constraints);
    Rng rng(seed);
    std::vector<DynamicBitset> samples;
    WalkScratch scratch;
    ASSERT_TRUE(
        sampler.SampleChain(feedback, 150, &rng, &samples, &scratch).ok());
    for (const DynamicBitset& sample : samples) {
      EXPECT_TRUE(support.count(sample) > 0) << sample.ToString();
    }
  }
}

}  // namespace
}  // namespace smn
