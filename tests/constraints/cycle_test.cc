#include "constraints/cycle.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/test_networks.h"
#include "tests/testing/violation_oracle.h"

namespace smn {
namespace {

class CycleTest : public ::testing::Test {
 protected:
  CycleTest() : fig1_(testing::MakeFig1Network()) {
    constraint_.Compile(fig1_.network);
  }

  DynamicBitset Selection(std::initializer_list<CorrespondenceId> ids) const {
    DynamicBitset selection(fig1_.network.correspondence_count());
    for (CorrespondenceId id : ids) selection.Set(id);
    return selection;
  }

  testing::Fig1Network fig1_;
  CycleConstraint constraint_;
};

TEST_F(CycleTest, OpenChainsViolate) {
  // The paper's example: {c1, c2} chains SA->SB->SC but the closing c3 is
  // absent, so {c1, c2, c5} (and {c1, c2} itself) violate the constraint.
  EXPECT_FALSE(constraint_.IsSatisfied(Selection({fig1_.c1, fig1_.c2})));
  EXPECT_FALSE(
      constraint_.IsSatisfied(Selection({fig1_.c1, fig1_.c2, fig1_.c5})));
}

TEST_F(CycleTest, ClosedTrianglesSatisfy) {
  EXPECT_TRUE(
      constraint_.IsSatisfied(Selection({fig1_.c1, fig1_.c2, fig1_.c3})));
  EXPECT_TRUE(
      constraint_.IsSatisfied(Selection({fig1_.c1, fig1_.c4, fig1_.c5})));
}

TEST_F(CycleTest, ChainFreeSelectionsSatisfy) {
  EXPECT_TRUE(constraint_.IsSatisfied(Selection({})));
  EXPECT_TRUE(constraint_.IsSatisfied(Selection({fig1_.c2})));
  // c3 and c4 share no attribute: no chain, no violation.
  EXPECT_TRUE(constraint_.IsSatisfied(Selection({fig1_.c3, fig1_.c4})));
}

TEST_F(CycleTest, AppendConflictsNamesTheMissingClosing) {
  std::vector<KernelViolation> violations;
  constraint_.AppendConflicts(Selection({fig1_.c1, fig1_.c2}), &violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_TRUE(violations[0].Involves(fig1_.c1));
  EXPECT_TRUE(violations[0].Involves(fig1_.c2));
  EXPECT_EQ(violations[0].missing, fig1_.c3);
}

TEST_F(CycleTest, AdditionViolatesForOpenChains) {
  EXPECT_TRUE(constraint_.AdditionViolates(Selection({fig1_.c1}), fig1_.c2));
  EXPECT_TRUE(constraint_.AdditionViolates(Selection({fig1_.c1}), fig1_.c4));
  // Adding the closing correspondence of an already-closed pair is fine.
  EXPECT_FALSE(constraint_.AdditionViolates(Selection({fig1_.c2, fig1_.c3}),
                                            fig1_.c1));
  // Unrelated additions are fine.
  EXPECT_FALSE(constraint_.AdditionViolates(Selection({fig1_.c3}), fig1_.c4));
}

TEST_F(CycleTest, RemovalOfClosingReopensTriangle) {
  auto selection = Selection({fig1_.c1, fig1_.c2});  // c3 just removed.
  std::vector<KernelViolation> violations;
  constraint_.AppendConflictsCreatedByRemoval(selection, fig1_.c3,
                                              &violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_TRUE(violations[0].Involves(fig1_.c1));
  EXPECT_TRUE(violations[0].Involves(fig1_.c2));
}

TEST_F(CycleTest, CountViolationsInvolving) {
  const auto selection = Selection({fig1_.c1, fig1_.c2, fig1_.c4});
  // c1 chains with c2 (missing c3) and with c4 (missing c5).
  EXPECT_EQ(constraint_.CountViolationsInvolving(selection, fig1_.c1), 2u);
  EXPECT_EQ(constraint_.CountViolationsInvolving(selection, fig1_.c2), 1u);
}

TEST(CycleOracleTest, EveryFig1SelectionMatchesOracle) {
  // Exhaustive over the 2^5 selections of Fig. 1: every kernel query of a
  // cycle-only set against the naive oracle, in report order.
  const testing::Fig1Network fig1 = testing::MakeFig1Network();
  ConstraintSet constraints;
  constraints.Add(std::make_unique<CycleConstraint>());
  ASSERT_TRUE(constraints.Compile(fig1.network).ok());
  const testing::ViolationOracle oracle(fig1.network, constraints);
  const size_t n = fig1.network.correspondence_count();
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    DynamicBitset selection(n);
    for (size_t c = 0; c < n; ++c) {
      if ((mask >> c) & 1ULL) selection.Set(c);
    }
    std::vector<KernelViolation> kernel;
    constraints.AppendConflicts(selection, &kernel);
    EXPECT_EQ(testing::Triples(kernel),
              testing::Triples(oracle.FindViolations(selection)))
        << "mask " << mask;
    for (CorrespondenceId c = 0; c < n; ++c) {
      kernel.clear();
      if (selection.Test(c)) {
        constraints.AppendConflictsInvolving(selection, c, &kernel);
        EXPECT_EQ(
            testing::Triples(kernel),
            testing::Triples(oracle.FindViolationsInvolving(selection, c)))
            << "mask " << mask << " involving c=" << c;
      } else {
        constraints.AppendConflictsCreatedByRemoval(selection, c, &kernel);
        EXPECT_EQ(testing::Triples(kernel),
                  testing::Triples(
                      oracle.FindViolationsCreatedByRemoval(selection, c)))
            << "mask " << mask << " removal of c=" << c;
        EXPECT_EQ(constraints.AdditionViolates(selection, c),
                  oracle.AdditionViolates(selection, c))
            << "mask " << mask << " addition of c=" << c;
      }
    }
  }
}

TEST(CycleStandaloneTest, NoTrianglesNoChains) {
  // A ring of 4 schemas has no triangles, so chains never form.
  NetworkBuilder builder;
  std::vector<AttributeId> attrs;
  for (int s = 0; s < 4; ++s) {
    const SchemaId schema = builder.AddSchema("S" + std::to_string(s));
    attrs.push_back(builder.AddAttribute(schema, "a").value());
  }
  for (SchemaId s = 0; s < 4; ++s) builder.AddEdge(s, (s + 1) % 4).ok();
  builder.AddCorrespondence(attrs[0], attrs[1], 0.5).value();
  builder.AddCorrespondence(attrs[1], attrs[2], 0.5).value();
  Network network = builder.Build().value();
  CycleConstraint constraint;
  ASSERT_TRUE(constraint.Compile(network).ok());
  EXPECT_TRUE(constraint.chains().empty());
  DynamicBitset all(2);
  all.Set(0);
  all.Set(1);
  EXPECT_TRUE(constraint.IsSatisfied(all));
}

TEST(CycleStandaloneTest, MissingClosingCandidateIsHardConflict) {
  // Triangle of schemas, chain a~b, b~c, but C contains no a~c candidate:
  // the pair can never be consistent together.
  NetworkBuilder builder;
  const SchemaId s0 = builder.AddSchema("A");
  const SchemaId s1 = builder.AddSchema("B");
  const SchemaId s2 = builder.AddSchema("C");
  const AttributeId a = builder.AddAttribute(s0, "a").value();
  const AttributeId b = builder.AddAttribute(s1, "b").value();
  const AttributeId c = builder.AddAttribute(s2, "c").value();
  builder.AddCompleteGraph();
  const CorrespondenceId ab = builder.AddCorrespondence(a, b, 0.5).value();
  const CorrespondenceId bc = builder.AddCorrespondence(b, c, 0.5).value();
  Network network = builder.Build().value();
  CycleConstraint constraint;
  ASSERT_TRUE(constraint.Compile(network).ok());
  ASSERT_EQ(constraint.chains().size(), 1u);
  EXPECT_EQ(constraint.chains()[0].closing, kInvalidCorrespondence);

  DynamicBitset both(2);
  both.Set(ab);
  both.Set(bc);
  EXPECT_FALSE(constraint.IsSatisfied(both));
  std::vector<KernelViolation> violations;
  constraint.AppendConflicts(both, &violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].missing, kInvalidCorrespondence);
}

TEST(CycleStandaloneTest, ChainAcrossAllThreePivotsOfATriangle) {
  // A full triangle of correspondences: each correspondence closes the chain
  // of the other two, so the triple is consistent but every pair is not.
  NetworkBuilder builder;
  const SchemaId s0 = builder.AddSchema("A");
  const SchemaId s1 = builder.AddSchema("B");
  const SchemaId s2 = builder.AddSchema("C");
  const AttributeId a = builder.AddAttribute(s0, "a").value();
  const AttributeId b = builder.AddAttribute(s1, "b").value();
  const AttributeId c = builder.AddAttribute(s2, "c").value();
  builder.AddCompleteGraph();
  const CorrespondenceId ab = builder.AddCorrespondence(a, b, 0.5).value();
  const CorrespondenceId bc = builder.AddCorrespondence(b, c, 0.5).value();
  const CorrespondenceId ac = builder.AddCorrespondence(a, c, 0.5).value();
  Network network = builder.Build().value();
  CycleConstraint constraint;
  ASSERT_TRUE(constraint.Compile(network).ok());
  // Three chains, one per pivot attribute.
  EXPECT_EQ(constraint.chains().size(), 3u);

  DynamicBitset triple(3);
  triple.Set(ab);
  triple.Set(bc);
  triple.Set(ac);
  EXPECT_TRUE(constraint.IsSatisfied(triple));
  for (CorrespondenceId removed : {ab, bc, ac}) {
    DynamicBitset pair = triple;
    pair.Reset(removed);
    EXPECT_FALSE(constraint.IsSatisfied(pair));
  }
}

}  // namespace
}  // namespace smn
