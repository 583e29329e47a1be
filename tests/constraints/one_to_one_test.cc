#include "constraints/one_to_one.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/test_networks.h"
#include "tests/testing/violation_oracle.h"
#include "util/rng.h"

namespace smn {
namespace {

class OneToOneTest : public ::testing::Test {
 protected:
  OneToOneTest() : fig1_(testing::MakeFig1Network()) {
    constraint_.Compile(fig1_.network);
  }

  DynamicBitset Selection(std::initializer_list<CorrespondenceId> ids) const {
    DynamicBitset selection(fig1_.network.correspondence_count());
    for (CorrespondenceId id : ids) selection.Set(id);
    return selection;
  }

  testing::Fig1Network fig1_;
  OneToOneConstraint constraint_;
};

TEST_F(OneToOneTest, DetectsSharedEndpointConflictsInFig1) {
  // c3 and c5 both map SA.productionDate into SC: the paper's one-to-one
  // violation example.
  EXPECT_FALSE(constraint_.IsSatisfied(Selection({fig1_.c3, fig1_.c5})));
  // c2 and c4 both map SB.date into SC.
  EXPECT_FALSE(constraint_.IsSatisfied(Selection({fig1_.c2, fig1_.c4})));
}

TEST_F(OneToOneTest, AcceptsNonConflictingSelections) {
  EXPECT_TRUE(constraint_.IsSatisfied(Selection({})));
  EXPECT_TRUE(constraint_.IsSatisfied(Selection({fig1_.c1, fig1_.c2, fig1_.c3})));
  EXPECT_TRUE(constraint_.IsSatisfied(Selection({fig1_.c3, fig1_.c4})));
}

TEST_F(OneToOneTest, DifferentTargetSchemasDoNotConflict) {
  // c1 (SA->SB) and c3 (SA->SC) share SA.productionDate but map into
  // different schemas: allowed.
  EXPECT_TRUE(constraint_.IsSatisfied(Selection({fig1_.c1, fig1_.c3})));
}

TEST_F(OneToOneTest, AppendConflictsReportsEachPairOnce) {
  std::vector<KernelViolation> violations;
  constraint_.AppendConflicts(Selection({fig1_.c3, fig1_.c5, fig1_.c1}),
                              &violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_TRUE(violations[0].Involves(fig1_.c3));
  EXPECT_TRUE(violations[0].Involves(fig1_.c5));
  EXPECT_EQ(violations[0].missing, kInvalidCorrespondence);
}

TEST_F(OneToOneTest, AppendConflictsInvolvingListsNeighbors) {
  std::vector<KernelViolation> violations;
  const auto selection = Selection({fig1_.c2, fig1_.c4, fig1_.c5});
  constraint_.AppendConflictsInvolving(selection, fig1_.c4, &violations);
  // c4 conflicts with c2 (SB.date mapped to two SC attributes). c5 shares
  // SC.screenDate with c4 but maps it into a *different* schema (SA), which
  // is cycle-constraint territory, not a one-to-one conflict.
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_TRUE(violations[0].Involves(fig1_.c2));
}

TEST_F(OneToOneTest, AdditionViolates) {
  const auto selection = Selection({fig1_.c3});
  EXPECT_TRUE(constraint_.AdditionViolates(selection, fig1_.c5));
  EXPECT_FALSE(constraint_.AdditionViolates(selection, fig1_.c1));
  EXPECT_FALSE(constraint_.AdditionViolates(selection, fig1_.c4));
}

TEST_F(OneToOneTest, CountViolationsInvolving) {
  const auto selection = Selection({fig1_.c2, fig1_.c4, fig1_.c5});
  EXPECT_EQ(constraint_.CountViolationsInvolving(selection, fig1_.c4), 1u);
  EXPECT_EQ(constraint_.CountViolationsInvolving(selection, fig1_.c2), 1u);
  EXPECT_EQ(constraint_.CountViolationsInvolving(selection, fig1_.c5), 0u);
  const auto both_pairs =
      Selection({fig1_.c2, fig1_.c3, fig1_.c4, fig1_.c5});
  EXPECT_EQ(constraint_.CountViolationsInvolving(both_pairs, fig1_.c3), 1u);
  EXPECT_EQ(constraint_.CountViolationsInvolving(both_pairs, fig1_.c5), 1u);
}

TEST_F(OneToOneTest, RemovalNeverCreatesViolations) {
  std::vector<KernelViolation> violations;
  auto selection = Selection({fig1_.c1, fig1_.c2});
  constraint_.AppendConflictsCreatedByRemoval(selection, fig1_.c3, &violations);
  EXPECT_TRUE(violations.empty());
}

TEST_F(OneToOneTest, ConflictPairCountMatchesFig1) {
  // Conflicting pairs in Fig. 1: {c3,c5} and {c2,c4}.
  EXPECT_EQ(constraint_.conflict_pair_count(), 2u);
}

TEST(OneToOneStandaloneTest, ConflictAcrossBothEndpoints) {
  // Two attributes in each schema; a~x and b~x conflict through x.
  NetworkBuilder builder;
  const SchemaId s0 = builder.AddSchema("A");
  const SchemaId s1 = builder.AddSchema("B");
  const AttributeId a = builder.AddAttribute(s0, "a").value();
  const AttributeId b = builder.AddAttribute(s0, "b").value();
  const AttributeId x = builder.AddAttribute(s1, "x").value();
  builder.AddCompleteGraph();
  const CorrespondenceId ax = builder.AddCorrespondence(a, x, 0.5).value();
  const CorrespondenceId bx = builder.AddCorrespondence(b, x, 0.5).value();
  Network network = builder.Build().value();
  OneToOneConstraint constraint;
  ASSERT_TRUE(constraint.Compile(network).ok());
  DynamicBitset selection(2);
  selection.Set(ax);
  selection.Set(bx);
  EXPECT_FALSE(constraint.IsSatisfied(selection));
}

/// Checks every kernel query of a one-to-one-only set against the naive
/// oracle on `selection`, in report order.
void ExpectKernelMatchesOracle(const Network& network,
                               const ConstraintSet& constraints,
                               const DynamicBitset& selection) {
  const testing::ViolationOracle oracle(network, constraints);
  std::vector<KernelViolation> kernel;
  constraints.AppendConflicts(selection, &kernel);
  EXPECT_EQ(testing::Triples(kernel),
            testing::Triples(oracle.FindViolations(selection)));
  EXPECT_EQ(constraints.IsSatisfied(selection), oracle.IsSatisfied(selection));
  for (CorrespondenceId c = 0; c < selection.size(); ++c) {
    if (selection.Test(c)) {
      kernel.clear();
      constraints.AppendConflictsInvolving(selection, c, &kernel);
      EXPECT_EQ(testing::Triples(kernel),
                testing::Triples(oracle.FindViolationsInvolving(selection, c)))
          << "involving c=" << c;
      EXPECT_EQ(constraints.CountViolationsInvolving(selection, c),
                kernel.size());
    } else {
      EXPECT_EQ(constraints.AdditionViolates(selection, c),
                oracle.AdditionViolates(selection, c))
          << "addition of c=" << c;
    }
  }
}

ConstraintSet OneToOneOnly(const Network& network, size_t dense_row_limit) {
  ConstraintSet constraints;
  constraints.Add(std::make_unique<OneToOneConstraint>(dense_row_limit));
  EXPECT_TRUE(constraints.Compile(network).ok());
  return constraints;
}

TEST(OneToOneOracleTest, EveryFig1SelectionMatchesOracle) {
  const testing::Fig1Network fig1 = testing::MakeFig1Network();
  const ConstraintSet dense =
      OneToOneOnly(fig1.network, OneToOneConstraint::kDefaultDenseRowLimit);
  const ConstraintSet csr = OneToOneOnly(fig1.network, 0);
  const size_t n = fig1.network.correspondence_count();
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    DynamicBitset selection(n);
    for (size_t c = 0; c < n; ++c) {
      if ((mask >> c) & 1ULL) selection.Set(c);
    }
    ExpectKernelMatchesOracle(fig1.network, dense, selection);
    ExpectKernelMatchesOracle(fig1.network, csr, selection);
  }
}

TEST(OneToOneOracleTest, DenseAndCsrFormsMatchOracle) {
  // The dense word-matrix and the CSR-only compilation answer the same
  // queries from different tables; both must report what the oracle
  // derives from the network, in the same order.
  for (uint64_t seed : {4u, 44u}) {
    const testing::RandomNetwork random =
        testing::MakeRandomNetwork({4, 4, 0.5, seed});
    const size_t n = random.network.correspondence_count();
    if (n == 0) continue;
    const ConstraintSet dense = OneToOneOnly(
        random.network, OneToOneConstraint::kDefaultDenseRowLimit);
    const ConstraintSet csr = OneToOneOnly(random.network, 0);
    ASSERT_TRUE(static_cast<const OneToOneConstraint&>(dense.constraint(0))
                    .dense_compiled());
    ASSERT_FALSE(static_cast<const OneToOneConstraint&>(csr.constraint(0))
                     .dense_compiled());
    Rng rng(seed);
    for (int trial = 0; trial < 20; ++trial) {
      DynamicBitset selection(n);
      for (size_t c = 0; c < n; ++c) {
        if (rng.Bernoulli(0.4)) selection.Set(c);
      }
      ExpectKernelMatchesOracle(random.network, dense, selection);
      ExpectKernelMatchesOracle(random.network, csr, selection);
    }
  }
}

}  // namespace
}  // namespace smn
