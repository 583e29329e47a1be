#include "core/soft_feedback.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "util/dynamic_bitset.h"

namespace smn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SoftEvidenceTest, RecordValidatesInputs) {
  SoftEvidence evidence(4);
  EXPECT_EQ(evidence.Record(4, true, 0.1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(evidence.Record(0, true, -0.1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(evidence.Record(0, true, 0.6).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(evidence.Record(0, true, std::nan("")).code(),
            StatusCode::kInvalidArgument);
  // Boundary rates are legal: 0 is a hard answer, 0.5 an uninformative one.
  EXPECT_TRUE(evidence.Record(0, true, 0.0).ok());
  EXPECT_TRUE(evidence.Record(0, true, 0.5).ok());
  EXPECT_EQ(evidence.total_answers(), 2u);
}

TEST(SoftEvidenceTest, TalliesAndLogLikelihoods) {
  SoftEvidence evidence(3);
  ASSERT_TRUE(evidence.Record(1, true, 0.2).ok());
  ASSERT_TRUE(evidence.Record(1, true, 0.2).ok());
  ASSERT_TRUE(evidence.Record(1, false, 0.2).ok());
  EXPECT_TRUE(evidence.HasEvidence(1));
  EXPECT_FALSE(evidence.HasEvidence(0));
  EXPECT_EQ(evidence.answer_count(1), 3u);
  EXPECT_EQ(evidence.approvals(1), 2u);
  EXPECT_EQ(evidence.disapprovals(1), 1u);
  // L_in = 2 log(0.8) + log(0.2); L_out = 2 log(0.2) + log(0.8).
  EXPECT_NEAR(evidence.LogLikelihoodIn(1),
              2 * std::log(0.8) + std::log(0.2), 1e-12);
  EXPECT_NEAR(evidence.LogLikelihoodOut(1),
              2 * std::log(0.2) + std::log(0.8), 1e-12);
  // Net one approval: LLR = log(0.8/0.2) = log 4.
  EXPECT_NEAR(evidence.LogLikelihoodRatio(1), std::log(4.0), 1e-12);
  // Untouched correspondences carry zero evidence either way.
  EXPECT_DOUBLE_EQ(evidence.LogLikelihoodRatio(0), 0.0);
}

TEST(SoftEvidenceTest, HeterogeneousWorkerRatesAccumulate) {
  SoftEvidence evidence(2);
  ASSERT_TRUE(evidence.Record(0, true, 0.1).ok());
  ASSERT_TRUE(evidence.Record(0, false, 0.3).ok());
  EXPECT_NEAR(evidence.LogLikelihoodIn(0), std::log(0.9) + std::log(0.3),
              1e-12);
  EXPECT_NEAR(evidence.LogLikelihoodOut(0), std::log(0.1) + std::log(0.7),
              1e-12);
  // The reliable approval outweighs the unreliable disapproval.
  EXPECT_GT(evidence.LogLikelihoodRatio(0), 0.0);
}

TEST(SoftEvidenceTest, HardAnswersYieldInfiniteLikelihoodRatios) {
  SoftEvidence evidence(2);
  ASSERT_TRUE(evidence.Record(0, true, 0.0).ok());
  EXPECT_DOUBLE_EQ(evidence.LogLikelihoodIn(0), 0.0);
  EXPECT_EQ(evidence.LogLikelihoodOut(0), -kInf);
  EXPECT_EQ(evidence.LogLikelihoodRatio(0), kInf);
  EXPECT_FALSE(evidence.Contradictory(0));
  ASSERT_TRUE(evidence.Record(1, false, 0.0).ok());
  EXPECT_EQ(evidence.LogLikelihoodRatio(1), -kInf);
}

TEST(SoftEvidenceTest, ContradictoryHardAnswersAreUninformative) {
  SoftEvidence evidence(1);
  ASSERT_TRUE(evidence.Record(0, true, 0.0).ok());
  ASSERT_TRUE(evidence.Record(0, false, 0.0).ok());
  EXPECT_TRUE(evidence.Contradictory(0));
  EXPECT_DOUBLE_EQ(evidence.LogLikelihoodRatio(0), 0.0);
  EXPECT_DOUBLE_EQ(evidence.Posterior(0, 0.3), 0.3);  // Prior unchanged.
}

TEST(SoftEvidenceTest, PosteriorMatchesBayesRule) {
  SoftEvidence evidence(1);
  ASSERT_TRUE(evidence.Record(0, true, 0.2).ok());
  // Posterior odds = prior odds * (0.8 / 0.2).
  const double prior = 0.5;
  EXPECT_NEAR(evidence.Posterior(0, prior), 0.8, 1e-12);
  const double prior2 = 0.25;
  const double odds = (prior2 / (1 - prior2)) * 4.0;
  EXPECT_NEAR(evidence.Posterior(0, prior2), odds / (1 + odds), 1e-12);
  // Degenerate priors pass through.
  EXPECT_DOUBLE_EQ(evidence.Posterior(0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(evidence.Posterior(0, 1.0), 1.0);
}

TEST(SoftEvidenceTest, PosteriorStableUnderLongHistories) {
  SoftEvidence evidence(1);
  // 600 answers push both log-likelihoods far below exp() range; the
  // max-shifted posterior must stay finite and sane (net 100 approvals).
  for (int i = 0; i < 350; ++i) ASSERT_TRUE(evidence.Record(0, true, 0.3).ok());
  for (int i = 0; i < 250; ++i) {
    ASSERT_TRUE(evidence.Record(0, false, 0.3).ok());
  }
  const double posterior = evidence.Posterior(0, 0.5);
  EXPECT_TRUE(std::isfinite(posterior));
  EXPECT_GT(posterior, 0.999);
}

TEST(SoftEvidenceTest, PosteriorUnderHardEvidence) {
  SoftEvidence evidence(2);
  ASSERT_TRUE(evidence.Record(0, true, 0.0).ok());
  EXPECT_DOUBLE_EQ(evidence.Posterior(0, 0.3), 1.0);
  ASSERT_TRUE(evidence.Record(1, false, 0.0).ok());
  EXPECT_DOUBLE_EQ(evidence.Posterior(1, 0.3), 0.0);
}

std::vector<DynamicBitset> MakeSamples(
    size_t bits, const std::vector<std::vector<size_t>>& members) {
  std::vector<DynamicBitset> samples;
  for (const auto& instance : members) {
    DynamicBitset sample(bits);
    for (size_t bit : instance) sample.Set(bit);
    samples.push_back(sample);
  }
  return samples;
}

/// Importance weights under the evidence on every correspondence, with the
/// samples in global coordinates (correspondence c is bit c).
std::vector<double> AllEvidenceWeights(
    const SoftEvidence& evidence, const std::vector<DynamicBitset>& samples) {
  std::vector<CorrespondenceId> ids(evidence.correspondence_count());
  std::iota(ids.begin(), ids.end(), CorrespondenceId{0});
  return ComputeImportanceWeights(evidence, samples, ids, ids);
}

TEST(ImportanceWeightsTest, NoEvidenceGivesUniformWeights) {
  SoftEvidence evidence(3);
  const auto samples = MakeSamples(3, {{0}, {1}, {0, 2}});
  const std::vector<double> weights =
      AllEvidenceWeights(evidence, samples);
  ASSERT_EQ(weights.size(), 3u);
  for (double w : weights) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(ImportanceWeightsTest, WeightsAreMaxShiftedLikelihoods) {
  SoftEvidence evidence(3);
  ASSERT_TRUE(evidence.Record(0, true, 0.2).ok());
  const auto samples = MakeSamples(3, {{0}, {1}, {0, 2}});
  const std::vector<double> weights =
      AllEvidenceWeights(evidence, samples);
  ASSERT_EQ(weights.size(), 3u);
  // Samples containing c0 have likelihood 0.8, the other 0.2; max-shift
  // normalizes the former to exactly 1.
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  EXPECT_NEAR(weights[1], 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(weights[2], 1.0);
}

TEST(ImportanceWeightsTest, HardEvidenceZeroesInconsistentSamples) {
  SoftEvidence evidence(3);
  ASSERT_TRUE(evidence.Record(0, true, 0.0).ok());
  const auto samples = MakeSamples(3, {{0}, {1}, {0, 2}});
  const std::vector<double> weights =
      AllEvidenceWeights(evidence, samples);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  EXPECT_DOUBLE_EQ(weights[1], 0.0);  // Violates the hard approval.
  EXPECT_DOUBLE_EQ(weights[2], 1.0);
}

TEST(ImportanceWeightsTest, MembersRestrictTheEvidence) {
  SoftEvidence evidence(3);
  ASSERT_TRUE(evidence.Record(0, true, 0.0).ok());
  ASSERT_TRUE(evidence.Record(1, true, 0.0).ok());
  const std::vector<CorrespondenceId> members = {1};  // Only c1 counts.
  const auto samples = MakeSamples(3, {{0}, {1}, {0, 2}});
  const std::vector<double> weights =
      ComputeImportanceWeights(evidence, samples, members, members);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_DOUBLE_EQ(weights[0], 0.0);
  EXPECT_DOUBLE_EQ(weights[1], 1.0);
  EXPECT_DOUBLE_EQ(weights[2], 0.0);
}

TEST(ImportanceWeightsTest, MemberBitsReadSamplesInLocalCoordinates) {
  // A component's samples are narrower than the network: member c4 is
  // local bit 1, member c2 local bit 0. Evidence is looked up by global id.
  SoftEvidence evidence(5);
  ASSERT_TRUE(evidence.Record(4, true, 0.2).ok());
  ASSERT_TRUE(evidence.Record(3, true, 0.0).ok());  // Not a member.
  const std::vector<CorrespondenceId> members = {2, 4};
  const std::vector<CorrespondenceId> bits = {0, 1};
  const auto samples = MakeSamples(2, {{1}, {0}, {}});
  const std::vector<double> weights =
      ComputeImportanceWeights(evidence, samples, members, bits);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  EXPECT_NEAR(weights[1], 0.25, 1e-12);
  EXPECT_NEAR(weights[2], 0.25, 1e-12);
}

TEST(ImportanceWeightsTest, AllZeroLikelihoodReturnsEmpty) {
  SoftEvidence evidence(3);
  ASSERT_TRUE(evidence.Record(2, true, 0.0).ok());  // No sample contains c2...
  const auto samples = MakeSamples(3, {{0}, {1}});
  EXPECT_TRUE(AllEvidenceWeights(evidence, samples).empty());
  EXPECT_TRUE(AllEvidenceWeights(evidence, {}).empty());
}

TEST(ImportanceWeightsTest, ContradictoryEvidenceIsSkipped) {
  SoftEvidence evidence(2);
  ASSERT_TRUE(evidence.Record(0, true, 0.0).ok());
  ASSERT_TRUE(evidence.Record(0, false, 0.0).ok());
  const auto samples = MakeSamples(2, {{0}, {1}});
  const std::vector<double> weights =
      AllEvidenceWeights(evidence, samples);
  ASSERT_EQ(weights.size(), 2u);  // Not empty: contradiction excluded.
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  EXPECT_DOUBLE_EQ(weights[1], 1.0);
}

TEST(EffectiveSampleSizeTest, KishFormula) {
  EXPECT_DOUBLE_EQ(EffectiveSampleSize({}), 0.0);
  EXPECT_DOUBLE_EQ(EffectiveSampleSize({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(EffectiveSampleSize({1.0, 1.0, 1.0, 1.0}), 4.0);
  // Scale invariance.
  EXPECT_DOUBLE_EQ(EffectiveSampleSize({0.3, 0.3, 0.3, 0.3}), 4.0);
  // One dominant weight collapses the ESS toward 1.
  EXPECT_NEAR(EffectiveSampleSize({1.0, 1e-9, 1e-9}), 1.0, 1e-6);
  // Two equal + one zero = 2 effective samples.
  EXPECT_DOUBLE_EQ(EffectiveSampleSize({1.0, 1.0, 0.0}), 2.0);
}

TEST(EffectiveSampleSizeTest, NonFiniteWeightsGiveZeroNotNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Regression: inf*inf (or NaN) made sum_squares NaN, NaN slipped past the
  // old `sum_squares <= 0.0` guard, and the ESS came back NaN — which then
  // failed every `ess < threshold` resample trigger downstream.
  EXPECT_DOUBLE_EQ(EffectiveSampleSize({1.0, kInf}), 0.0);
  EXPECT_DOUBLE_EQ(EffectiveSampleSize({1.0, nan}), 0.0);
  EXPECT_DOUBLE_EQ(EffectiveSampleSize({-kInf}), 0.0);
  EXPECT_DOUBLE_EQ(EffectiveSampleSize({nan, nan, nan}), 0.0);
  // Finite vectors are untouched by the guard.
  EXPECT_DOUBLE_EQ(EffectiveSampleSize({1.0, 1.0}), 2.0);
}

TEST(ImportanceWeightsTest, NonFiniteLogWeightsDoNotPoisonTheShift) {
  // Error rate 1.0 gives log-likelihood log(0) = -inf for an approved-but-
  // absent correspondence; stacking evidence the other way can push a
  // log-weight to +inf/NaN through caller-side accumulation. The max-shift
  // must ignore non-finite entries and map them to weight zero instead of
  // normalizing every sample by a non-finite maximum.
  SoftEvidence evidence(2);
  ASSERT_TRUE(evidence.Record(0, true, 0.0).ok());   // log_out = -inf.
  const auto samples = MakeSamples(2, {{0}, {1}});
  const std::vector<double> weights =
      AllEvidenceWeights(evidence, samples);
  ASSERT_EQ(weights.size(), 2u);
  for (double w : weights) EXPECT_TRUE(std::isfinite(w));
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  EXPECT_DOUBLE_EQ(weights[1], 0.0);
  const double ess = EffectiveSampleSize(weights);
  EXPECT_TRUE(std::isfinite(ess));
  EXPECT_DOUBLE_EQ(ess, 1.0);
}

}  // namespace
}  // namespace smn
