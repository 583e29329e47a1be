#include "core/probabilistic_network.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/entropy.h"
#include "core/matching_instance.h"
#include "tests/testing/exact_enumerator.h"
#include "tests/testing/test_networks.h"

namespace smn {
namespace {

ProbabilisticNetworkOptions SmallOptions() {
  ProbabilisticNetworkOptions options;
  options.store.target_samples = 100;
  options.store.min_samples = 20;
  return options;
}

class ProbabilisticNetworkTest : public ::testing::Test {
 protected:
  ProbabilisticNetworkTest() : fig1_(testing::MakeFig1Network()), rng_(17) {}

  ProbabilisticNetwork MakePmn() {
    return ProbabilisticNetwork::Create(fig1_.network, fig1_.constraints,
                                        SmallOptions(), &rng_)
        .value();
  }

  testing::Fig1Network fig1_;
  Rng rng_;
};

TEST_F(ProbabilisticNetworkTest, InitialProbabilitiesAreExactOnFig1) {
  ProbabilisticNetwork pmn = MakePmn();
  EXPECT_TRUE(pmn.exhausted());
  // Five instances: c1 in 3 of them, the rest in 2 each.
  EXPECT_DOUBLE_EQ(pmn.probability(fig1_.c1), 0.6);
  for (CorrespondenceId c : {fig1_.c2, fig1_.c3, fig1_.c4, fig1_.c5}) {
    EXPECT_DOUBLE_EQ(pmn.probability(c), 0.4);
  }
  // H = 5 * h(0.4) = 4.8548 bits.
  EXPECT_NEAR(pmn.Uncertainty(), 4.854752972273347, 1e-12);
  EXPECT_EQ(pmn.UncertainCorrespondences().size(), 5u);
}

TEST_F(ProbabilisticNetworkTest, AssertPinsProbabilities) {
  ProbabilisticNetwork pmn = MakePmn();
  ASSERT_TRUE(pmn.Assert(fig1_.c2, true, &rng_).ok());
  EXPECT_DOUBLE_EQ(pmn.probability(fig1_.c2), 1.0);
  // Approving c2 rules out {c1,c4,c5} and {c3,c4}: c4 becomes impossible.
  EXPECT_DOUBLE_EQ(pmn.probability(fig1_.c4), 0.0);
  EXPECT_DOUBLE_EQ(pmn.Uncertainty(), 3.0);
}

TEST_F(ProbabilisticNetworkTest, ContradictingAssertionFails) {
  ProbabilisticNetwork pmn = MakePmn();
  ASSERT_TRUE(pmn.Assert(fig1_.c2, true, &rng_).ok());
  EXPECT_FALSE(pmn.Assert(fig1_.c2, false, &rng_).ok());
}

TEST_F(ProbabilisticNetworkTest, InformationGainFollowsExampleOne) {
  // The paper's Example 1 insight: asking about c1 first is the worst
  // choice, because both large instances contain c1. Under the exact
  // five-instance semantics IG(c1) ≈ 1.0508 bits while IG(c2..c5) is
  // exactly 0.4 bits higher.
  ProbabilisticNetwork pmn = MakePmn();
  const std::vector<double> gains = pmn.InformationGains();
  EXPECT_NEAR(gains[fig1_.c1], 1.050842970542570, 1e-9);
  for (CorrespondenceId c : {fig1_.c2, fig1_.c3, fig1_.c4, fig1_.c5}) {
    EXPECT_NEAR(gains[c], 1.450842970542570, 1e-9);
    EXPECT_GT(gains[c], gains[fig1_.c1]);
  }
}

TEST_F(ProbabilisticNetworkTest, InformationGainZeroForCertain) {
  ProbabilisticNetwork pmn = MakePmn();
  ASSERT_TRUE(pmn.Assert(fig1_.c2, true, &rng_).ok());
  const std::vector<double> gains = pmn.InformationGains();
  EXPECT_DOUBLE_EQ(gains[fig1_.c2], 0.0);  // Asserted.
  EXPECT_DOUBLE_EQ(gains[fig1_.c4], 0.0);  // Certainly out.
  EXPECT_GT(gains[fig1_.c1], 0.0);
}

TEST_F(ProbabilisticNetworkTest, InformationGainNonNegative) {
  // IG(c) = Σ_x [h(p_x) - (p_c h(p_x|c) + (1-p_c) h(p_x|¬c))] and binary
  // entropy is concave, so every term is non-negative (Jensen).
  for (uint64_t seed : {5u, 6u, 7u}) {
    const testing::RandomNetwork random =
        testing::MakeRandomNetwork({3, 4, 0.4, seed});
    Rng rng(seed);
    ProbabilisticNetwork pmn =
        ProbabilisticNetwork::Create(random.network, random.constraints,
                                     SmallOptions(), &rng)
            .value();
    for (double gain : pmn.InformationGains()) {
      EXPECT_GE(gain, -1e-9);
    }
  }
}

TEST_F(ProbabilisticNetworkTest, FullAssertionDrivesUncertaintyToZero) {
  ProbabilisticNetwork pmn = MakePmn();
  // Assert part of the truth I1 = {c1, c2, c3}: approving c1 keeps
  // {I1, I2, {c1}}; approving c2 then leaves only I1.
  ASSERT_TRUE(pmn.Assert(fig1_.c1, true, &rng_).ok());
  ASSERT_TRUE(pmn.Assert(fig1_.c2, true, &rng_).ok());
  EXPECT_DOUBLE_EQ(pmn.Uncertainty(), 0.0);
  EXPECT_TRUE(pmn.UncertainCorrespondences().empty());
  // Exactly one instance remains: I1.
  ASSERT_EQ(pmn.samples().size(), 1u);
  EXPECT_TRUE(pmn.samples()[0].Test(fig1_.c3));
  EXPECT_FALSE(pmn.samples()[0].Test(fig1_.c4));
}

TEST_F(ProbabilisticNetworkTest, ProbabilitiesStayInUnitInterval) {
  const testing::RandomNetwork random =
      testing::MakeRandomNetwork({4, 3, 0.5, 123});
  Rng rng(9);
  ProbabilisticNetwork pmn =
      ProbabilisticNetwork::Create(random.network, random.constraints,
                                   SmallOptions(), &rng)
          .value();
  for (double p : pmn.probabilities()) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(ProbabilisticNetworkTest, AssertSoftReweightsExactMarginals) {
  // Fig. 1 is exhaustively enumerated (5 instances; c1 in 3 of them), so
  // the likelihood-reweighted marginals have closed forms: one approving
  // answer on c1 at ε = 0.2 weights c1-instances 0.8 and the rest 0.2.
  //   p(c1) = 3·0.8 / (3·0.8 + 2·0.2) = 6/7
  //   p(c2) = (w(I1) + w(I4)) / 2.8 = (0.8 + 0.2) / 2.8 = 5/14, same for
  //   c3, c4, c5 by symmetry of the instance list.
  ProbabilisticNetwork pmn = MakePmn();
  ASSERT_TRUE(pmn.AssertSoft(fig1_.c1, true, 0.2, &rng_).ok());
  EXPECT_NEAR(pmn.probability(fig1_.c1), 6.0 / 7.0, 1e-12);
  for (CorrespondenceId c : {fig1_.c2, fig1_.c3, fig1_.c4, fig1_.c5}) {
    EXPECT_NEAR(pmn.probability(c), 5.0 / 14.0, 1e-12);
  }
  // No hard feedback, no closure change, everything still uncertain.
  EXPECT_EQ(pmn.feedback().asserted_count(), 0u);
  EXPECT_EQ(pmn.soft_evidence().total_answers(), 1u);
  EXPECT_EQ(pmn.UncertainCorrespondences().size(), 5u);
  // Uncertainty is the entropy of the weighted marginals.
  const double expected =
      BinaryEntropy(6.0 / 7.0) + 4.0 * BinaryEntropy(5.0 / 14.0);
  EXPECT_NEAR(pmn.Uncertainty(), expected, 1e-12);
}

TEST_F(ProbabilisticNetworkTest, AssertSoftBumpsRevisionAndShrinksEss) {
  ProbabilisticNetwork pmn = MakePmn();
  ASSERT_EQ(pmn.component_count(), 1u);
  EXPECT_EQ(pmn.component_evidence_revision(0), 0u);
  const double ess_before = pmn.ComponentEffectiveSampleSize(0);
  EXPECT_DOUBLE_EQ(ess_before, 5.0);  // Exhaustive: 5 uniform samples.
  ASSERT_TRUE(pmn.AssertSoft(fig1_.c1, true, 0.2, &rng_).ok());
  EXPECT_EQ(pmn.component_evidence_revision(0), 1u);
  EXPECT_LT(pmn.ComponentEffectiveSampleSize(0), ess_before);
  EXPECT_GT(pmn.ComponentEffectiveSampleSize(0), 1.0);
  ASSERT_TRUE(pmn.AssertSoft(fig1_.c2, false, 0.3, &rng_).ok());
  EXPECT_EQ(pmn.component_evidence_revision(0), 2u);
}

TEST_F(ProbabilisticNetworkTest, AssertSoftZeroErrorDelegatesToHardAssert) {
  Rng rng_a(55);
  Rng rng_b(55);
  ProbabilisticNetwork hard =
      ProbabilisticNetwork::Create(fig1_.network, fig1_.constraints,
                                   SmallOptions(), &rng_a)
          .value();
  ProbabilisticNetwork soft =
      ProbabilisticNetwork::Create(fig1_.network, fig1_.constraints,
                                   SmallOptions(), &rng_b)
          .value();
  ASSERT_TRUE(hard.Assert(fig1_.c2, true, &rng_a).ok());
  ASSERT_TRUE(soft.AssertSoft(fig1_.c2, true, 0.0, &rng_b).ok());
  // Bit-identical: same feedback, same closure, same marginals.
  EXPECT_EQ(soft.feedback().asserted_count(), 1u);
  EXPECT_EQ(soft.soft_evidence().total_answers(), 0u);
  ASSERT_EQ(hard.probabilities().size(), soft.probabilities().size());
  for (size_t c = 0; c < hard.probabilities().size(); ++c) {
    EXPECT_EQ(hard.probabilities()[c], soft.probabilities()[c]);
  }
  EXPECT_EQ(hard.Uncertainty(), soft.Uncertainty());
}

TEST_F(ProbabilisticNetworkTest, AssertSoftValidatesInputs) {
  ProbabilisticNetwork pmn = MakePmn();
  EXPECT_EQ(pmn.AssertSoft(99, true, 0.2, &rng_).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(pmn.AssertSoft(fig1_.c1, true, 0.7, &rng_).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pmn.AssertSoft(fig1_.c1, true, std::nan(""), &rng_).code(),
            StatusCode::kInvalidArgument);
  // Negative rates are invalid, not a route onto the hard-assert path.
  EXPECT_EQ(pmn.AssertSoft(fig1_.c1, true, -0.1, &rng_).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pmn.feedback().asserted_count(), 0u);
  // Failed records leave the marginals untouched.
  EXPECT_DOUBLE_EQ(pmn.probability(fig1_.c1), 0.6);
}

TEST_F(ProbabilisticNetworkTest, AssertSoftOnDeterminedIsLedgerOnly) {
  ProbabilisticNetwork pmn = MakePmn();
  ASSERT_TRUE(pmn.Assert(fig1_.c2, true, &rng_).ok());
  ASSERT_DOUBLE_EQ(pmn.probability(fig1_.c4), 0.0);  // Closure-forced out.
  // A contradicting noisy answer on a determined correspondence cannot move
  // its pinned probability, but it still lands in the ledger (it cost an
  // elicitation and the effort accounting wants it).
  ASSERT_TRUE(pmn.AssertSoft(fig1_.c4, true, 0.2, &rng_).ok());
  EXPECT_DOUBLE_EQ(pmn.probability(fig1_.c4), 0.0);
  EXPECT_EQ(pmn.soft_evidence().total_answers(), 1u);
}

TEST_F(ProbabilisticNetworkTest, HardAssertAfterSoftRebuildsConsistently) {
  ProbabilisticNetwork pmn = MakePmn();
  ASSERT_TRUE(pmn.AssertSoft(fig1_.c1, true, 0.2, &rng_).ok());
  ASSERT_TRUE(pmn.Assert(fig1_.c2, true, &rng_).ok());
  // Approving c2 leaves instances I1 = {c1,c2,c3} and I4 = {c2,c5}; the
  // standing c1 evidence reweights them 0.8 : 0.2.
  EXPECT_NEAR(pmn.probability(fig1_.c1), 0.8, 1e-12);
  EXPECT_NEAR(pmn.probability(fig1_.c3), 0.8, 1e-12);
  EXPECT_NEAR(pmn.probability(fig1_.c5), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(pmn.probability(fig1_.c2), 1.0);
  EXPECT_DOUBLE_EQ(pmn.probability(fig1_.c4), 0.0);
}

TEST_F(ProbabilisticNetworkTest, SoftEvidenceInvalidatesInformationGains) {
  ProbabilisticNetwork pmn = MakePmn();
  const std::vector<double> gains_before = pmn.InformationGains();
  ASSERT_TRUE(pmn.AssertSoft(fig1_.c1, true, 0.2, &rng_).ok());
  const std::vector<double> gains_after = pmn.InformationGains();
  ASSERT_EQ(gains_before.size(), gains_after.size());
  // Reweighting must flow into the gains, not serve a stale cache.
  bool changed = false;
  for (size_t c = 0; c < gains_after.size(); ++c) {
    EXPECT_GE(gains_after[c], -1e-9);  // Gains stay non-negative.
    if (std::abs(gains_after[c] - gains_before[c]) > 1e-9) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST_F(ProbabilisticNetworkTest,
       IncrementalAndFullResampleAgreeUnderSoftEvidence) {
  // The determinism contract extends to the soft layer: interleaved hard
  // and soft assertions produce bit-identical marginals, gains, and
  // (generation, evidence revision) cache keys whether untouched components
  // are cached or recomputed from frozen projections. The clustered network
  // guarantees the hard assertion lands in a *different* component than the
  // soft evidence — regression for the full-resample rebuild resetting an
  // untouched component's evidence revision to 0, which reissued a stale
  // (generation, 0) key for a post-evidence gain state.
  const testing::RandomNetwork random =
      testing::MakeClusteredNetwork({3, 3, 2, 0.5, 11});
  ProbabilisticNetworkOptions incremental_options = SmallOptions();
  incremental_options.incremental = true;
  ProbabilisticNetworkOptions full_options = SmallOptions();
  full_options.incremental = false;
  Rng rng_a(7);
  Rng rng_b(7);
  ProbabilisticNetwork incremental =
      ProbabilisticNetwork::Create(random.network, random.constraints,
                                   incremental_options, &rng_a)
          .value();
  ProbabilisticNetwork full =
      ProbabilisticNetwork::Create(random.network, random.constraints,
                                   full_options, &rng_b)
          .value();
  const auto uncertain = incremental.UncertainCorrespondences();
  ASSERT_GE(uncertain.size(), 2u);
  const CorrespondenceId soft_target = uncertain[0];
  const size_t soft_component = incremental.ComponentOf(soft_target);
  CorrespondenceId hard_target = kInvalidCorrespondence;
  for (CorrespondenceId c : uncertain) {
    if (incremental.ComponentOf(c) != soft_component) {
      hard_target = c;
      break;
    }
  }
  ASSERT_NE(hard_target, kInvalidCorrespondence);  // Clustered: multi-comp.
  for (ProbabilisticNetwork* pmn : {&incremental, &full}) {
    Rng* rng = pmn == &incremental ? &rng_a : &rng_b;
    ASSERT_TRUE(pmn->AssertSoft(soft_target, true, 0.2, rng).ok());
    ASSERT_TRUE(pmn->Assert(hard_target, false, rng).ok());
    ASSERT_TRUE(pmn->AssertSoft(soft_target, false, 0.3, rng).ok());
  }
  ASSERT_EQ(incremental.probabilities().size(), full.probabilities().size());
  for (size_t c = 0; c < incremental.probabilities().size(); ++c) {
    EXPECT_EQ(incremental.probabilities()[c], full.probabilities()[c]);
  }
  EXPECT_EQ(incremental.Uncertainty(), full.Uncertainty());
  const std::vector<double> gains_incremental = incremental.InformationGains();
  const std::vector<double> gains_full = full.InformationGains();
  for (size_t c = 0; c < gains_incremental.size(); ++c) {
    EXPECT_EQ(gains_incremental[c], gains_full[c]);
  }
  // Cache keys agree per component, and the evidence-laden component's
  // revision survived the full-resample rebuild of untouched caches.
  ASSERT_EQ(incremental.component_count(), full.component_count());
  bool saw_positive_revision = false;
  for (size_t i = 0; i < incremental.component_count(); ++i) {
    EXPECT_EQ(incremental.component(i).anchor, full.component(i).anchor);
    EXPECT_EQ(incremental.component_generation(i),
              full.component_generation(i));
    EXPECT_EQ(incremental.component_evidence_revision(i),
              full.component_evidence_revision(i));
    if (incremental.component_evidence_revision(i) > 0) {
      saw_positive_revision = true;
    }
  }
  EXPECT_TRUE(saw_positive_revision);
}

TEST_F(ProbabilisticNetworkTest, SharedArtifactCreateIsBitIdenticalToBorrowing) {
  // The derived state is a pure function of (network, constraints, options,
  // rng stream), so constructing over a prebuilt shared artifact must give
  // exactly the network the borrowing Create gives.
  Rng borrowing_rng(99);
  ProbabilisticNetwork borrowing =
      ProbabilisticNetwork::Create(fig1_.network, fig1_.constraints,
                                   SmallOptions(), &borrowing_rng)
          .value();

  auto artifact = std::make_shared<const CompiledArtifact>(
      CompiledArtifact::Build(fig1_.network, fig1_.constraints).value());
  Rng artifact_rng(99);
  ProbabilisticNetwork shared =
      ProbabilisticNetwork::Create(artifact, SmallOptions(), &artifact_rng)
          .value();

  ASSERT_EQ(shared.probabilities().size(), borrowing.probabilities().size());
  for (size_t c = 0; c < shared.probabilities().size(); ++c) {
    EXPECT_EQ(shared.probabilities()[c], borrowing.probabilities()[c]);
  }
  EXPECT_EQ(shared.Uncertainty(), borrowing.Uncertainty());
  EXPECT_EQ(shared.exhausted(), borrowing.exhausted());

  // And the equivalence survives an assertion on both sides.
  Rng unused_a(0), unused_b(0);
  ASSERT_TRUE(shared.Assert(fig1_.c2, true, &unused_a).ok());
  ASSERT_TRUE(borrowing.Assert(fig1_.c2, true, &unused_b).ok());
  for (size_t c = 0; c < shared.probabilities().size(); ++c) {
    EXPECT_EQ(shared.probabilities()[c], borrowing.probabilities()[c]);
  }
}

TEST_F(ProbabilisticNetworkTest, SessionsShareOneArtifactButNotState) {
  auto artifact = std::make_shared<const CompiledArtifact>(
      CompiledArtifact::Build(fig1_.network, fig1_.constraints).value());
  Rng rng_a(1), rng_b(2);
  ProbabilisticNetwork a =
      ProbabilisticNetwork::Create(artifact, SmallOptions(), &rng_a).value();
  ProbabilisticNetwork b =
      ProbabilisticNetwork::Create(artifact, SmallOptions(), &rng_b).value();

  // Same immutable artifact object underneath...
  EXPECT_EQ(a.artifact().get(), artifact.get());
  EXPECT_EQ(b.artifact().get(), artifact.get());
  // ...but fully private mutable state: feedback in one session never leaks
  // into the other.
  Rng unused(0);
  ASSERT_TRUE(a.Assert(fig1_.c1, false, &unused).ok());
  EXPECT_DOUBLE_EQ(a.probability(fig1_.c1), 0.0);
  EXPECT_DOUBLE_EQ(b.probability(fig1_.c1), 0.6);
  EXPECT_EQ(b.assertion_count(), 0u);
}

// The sampling path with the member-exact path switched off: what the
// engine does for every component larger than exact_threshold.
ProbabilisticNetworkOptions SampledOptions() {
  ProbabilisticNetworkOptions options = SmallOptions();
  options.store.exact_threshold = 0;
  return options;
}

TEST_F(ProbabilisticNetworkTest, SampledFig1IsExhaustedByTheTwoRoundRule) {
  // Fig. 1 has only 5 matching instances — far fewer than n_min = 20 — so
  // two sampling rounds cannot produce 20 distinct instances, and the
  // component is declared exhausted (Section III-B). The rule is a
  // heuristic: the add-and-repair walk never holds the narrow-basin
  // singleton {c1}, so Ω* is the other four instances. This gap is why
  // small components are enumerated by default (exact_threshold).
  ProbabilisticNetwork pmn =
      ProbabilisticNetwork::Create(fig1_.network, fig1_.constraints,
                                   SampledOptions(), &rng_)
          .value();
  ASSERT_EQ(pmn.component_count(), 1u);
  EXPECT_TRUE(pmn.ComponentExhausted(0));
  EXPECT_TRUE(pmn.exhausted());
  EXPECT_FALSE(pmn.chain_diagnostics().exact);  // Sampled, not enumerated.
  const std::vector<DynamicBitset>& samples = pmn.samples();
  ASSERT_EQ(samples.size(), 4u);
  const std::vector<DynamicBitset> omega =
      ExactEnumerator(fig1_.network, fig1_.constraints)
          .Enumerate(Feedback(fig1_.network.correspondence_count()))
          .value()
          .instances;
  DynamicBitset just_c1(fig1_.network.correspondence_count());
  just_c1.Set(fig1_.c1);
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_NE(std::find(omega.begin(), omega.end(), samples[i]), omega.end());
    EXPECT_FALSE(samples[i] == just_c1);
    for (size_t j = 0; j < i; ++j) EXPECT_FALSE(samples[i] == samples[j]);
  }
  // Equation 2 over the four distinct instances.
  for (CorrespondenceId c :
       {fig1_.c1, fig1_.c2, fig1_.c3, fig1_.c4, fig1_.c5}) {
    EXPECT_DOUBLE_EQ(pmn.probability(c), 0.5);
  }
}

TEST_F(ProbabilisticNetworkTest, SampledComponentsKeepTheTargetSampleCount) {
  const testing::RandomNetwork random =
      testing::MakeRandomNetwork({4, 4, 0.5, 77});
  ProbabilisticNetworkOptions options = SampledOptions();
  options.store.target_samples = 60;
  options.store.min_samples = 5;
  ProbabilisticNetwork pmn =
      ProbabilisticNetwork::Create(random.network, random.constraints,
                                   options, &rng_)
          .value();
  size_t sampled = 0;
  for (size_t i = 0; i < pmn.component_count(); ++i) {
    if (pmn.ComponentExhausted(i)) continue;
    ++sampled;
    EXPECT_EQ(pmn.ComponentEffectiveSampleSize(i), 60.0) << "component " << i;
  }
  ASSERT_GT(sampled, 0u);
  ASSERT_FALSE(pmn.exhausted());
  EXPECT_EQ(pmn.samples().size(), 60u);
  const Feedback feedback(random.network.correspondence_count());
  for (const DynamicBitset& sample : pmn.samples()) {
    EXPECT_TRUE(IsMatchingInstance(random.constraints, feedback, sample));
  }
}

TEST_F(ProbabilisticNetworkTest, EmptyNetworkIsTriviallyExhausted) {
  NetworkBuilder builder;
  builder.AddSchema("A");
  builder.AddSchema("B");
  builder.AddCompleteGraph();
  const Network network = builder.Build().value();
  const ConstraintSet constraints = testing::MakeStandardConstraints(network);
  ProbabilisticNetwork pmn =
      ProbabilisticNetwork::Create(network, constraints, SmallOptions(), &rng_)
          .value();
  EXPECT_EQ(pmn.component_count(), 0u);
  EXPECT_TRUE(pmn.probabilities().empty());
  EXPECT_EQ(pmn.Uncertainty(), 0.0);
  EXPECT_TRUE(pmn.UncertainCorrespondences().empty());
  EXPECT_TRUE(pmn.InformationGains().empty());
  EXPECT_TRUE(pmn.exhausted());
  // Ω holds exactly one instance: the empty selection.
  ASSERT_EQ(pmn.samples().size(), 1u);
  EXPECT_EQ(pmn.samples()[0].size(), 0u);
  EXPECT_TRUE(pmn.chain_diagnostics().exact);
  EXPECT_EQ(pmn.Assert(0, true, &rng_).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pmn.assertion_count(), 0u);
}

TEST_F(ProbabilisticNetworkTest, ComponentsBeyondSixtyThreeMembersAreSampled) {
  // The member-exact path is capped at 63 members whatever exact_threshold
  // says: a larger component takes the sampling path, bit for bit as if
  // enumeration were switched off.
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const testing::RandomNetwork random =
        testing::MakeRandomNetwork({4, 6, 0.9, seed});
    ProbabilisticNetworkOptions capped = SmallOptions();
    capped.store.exact_threshold = 64;
    Rng rng_capped(seed);
    Rng rng_sampled(seed);
    ProbabilisticNetwork pmn =
        ProbabilisticNetwork::Create(random.network, random.constraints,
                                     capped, &rng_capped)
            .value();
    ProbabilisticNetwork sampled =
        ProbabilisticNetwork::Create(random.network, random.constraints,
                                     SampledOptions(), &rng_sampled)
            .value();
    size_t largest = 0;
    for (size_t i = 0; i < pmn.component_count(); ++i) {
      largest = std::max(largest, pmn.component(i).members.size());
    }
    ASSERT_GT(largest, 63u);
    EXPECT_FALSE(pmn.chain_diagnostics().exact);
    ASSERT_EQ(pmn.probabilities().size(), sampled.probabilities().size());
    for (size_t c = 0; c < pmn.probabilities().size(); ++c) {
      EXPECT_EQ(pmn.probabilities()[c], sampled.probabilities()[c]) << c;
    }
    EXPECT_EQ(pmn.Uncertainty(), sampled.Uncertainty());
  }
}

}  // namespace
}  // namespace smn
