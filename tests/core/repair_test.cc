#include "core/repair.h"

#include <gtest/gtest.h>

#include "core/matching_instance.h"
#include "tests/testing/test_networks.h"

namespace smn {
namespace {

class RepairTest : public ::testing::Test {
 protected:
  RepairTest()
      : fig1_(testing::MakeFig1Network()),
        feedback_(fig1_.network.correspondence_count()) {}

  DynamicBitset Selection(std::initializer_list<CorrespondenceId> ids) const {
    DynamicBitset selection(fig1_.network.correspondence_count());
    for (CorrespondenceId id : ids) selection.Set(id);
    return selection;
  }

  testing::Fig1Network fig1_;
  Feedback feedback_;
  WalkScratch scratch_;
};

TEST_F(RepairTest, NoViolationsIsNoOp) {
  auto instance = Selection({fig1_.c1, fig1_.c2});
  // Adding c3 closes the chain: nothing to repair.
  auto closed = Selection({fig1_.c2, fig1_.c3});
  ASSERT_TRUE(RepairInstance(fig1_.constraints, feedback_, fig1_.c1, &closed,
                             &scratch_)
                  .ok());
  EXPECT_EQ(closed, Selection({fig1_.c1, fig1_.c2, fig1_.c3}));
}

TEST_F(RepairTest, ResolvesOneToOneConflict) {
  auto instance = Selection({fig1_.c3});
  // Adding c5 conflicts with c3 (both map productionDate into SC); the
  // repair must remove one of them and protect the newly added c5.
  ASSERT_TRUE(RepairInstance(fig1_.constraints, feedback_, fig1_.c5, &instance,
                             &scratch_)
                  .ok());
  EXPECT_TRUE(instance.Test(fig1_.c5));
  EXPECT_FALSE(instance.Test(fig1_.c3));
  EXPECT_TRUE(fig1_.constraints.IsSatisfied(instance));
}

TEST_F(RepairTest, ResolvesCycleViolation) {
  auto instance = Selection({fig1_.c1});
  // c2 chains with c1 and the closing c3 is absent: repair removes c1 (the
  // only removable participant since c2 is protected).
  ASSERT_TRUE(RepairInstance(fig1_.constraints, feedback_, fig1_.c2, &instance,
                             &scratch_)
                  .ok());
  EXPECT_TRUE(instance.Test(fig1_.c2));
  EXPECT_TRUE(fig1_.constraints.IsSatisfied(instance));
}

TEST_F(RepairTest, CascadingRemovalStaysConsistent) {
  // Start from the closed triangle {c1,c2,c3}; adding c4 conflicts with c2
  // (one-to-one) and chains with c1 (missing c5). Whatever the greedy order,
  // the result must satisfy all constraints and keep c4.
  auto instance = Selection({fig1_.c1, fig1_.c2, fig1_.c3});
  ASSERT_TRUE(RepairInstance(fig1_.constraints, feedback_, fig1_.c4, &instance,
                             &scratch_)
                  .ok());
  EXPECT_TRUE(instance.Test(fig1_.c4));
  EXPECT_TRUE(fig1_.constraints.IsSatisfied(instance));
}

TEST_F(RepairTest, ApprovedCorrespondencesAreProtected) {
  feedback_.Approve(fig1_.c3);
  auto instance = Selection({fig1_.c3});
  // c5 conflicts with the approved c3; the repair cannot remove c3, so it
  // must drop the added c5 itself.
  ASSERT_TRUE(RepairInstance(fig1_.constraints, feedback_, fig1_.c5, &instance,
                             &scratch_)
                  .ok());
  EXPECT_TRUE(instance.Test(fig1_.c3));
  EXPECT_FALSE(instance.Test(fig1_.c5));
  EXPECT_TRUE(fig1_.constraints.IsSatisfied(instance));
}

TEST_F(RepairTest, AddingPresentCorrespondenceIsNoOp) {
  auto instance = Selection({fig1_.c1, fig1_.c2, fig1_.c3});
  ASSERT_TRUE(RepairInstance(fig1_.constraints, feedback_, fig1_.c1, &instance,
                             &scratch_)
                  .ok());
  EXPECT_EQ(instance, Selection({fig1_.c1, fig1_.c2, fig1_.c3}));
}

TEST_F(RepairTest, OutOfRangeRejected) {
  auto instance = Selection({});
  EXPECT_EQ(RepairInstance(fig1_.constraints, feedback_, 99, &instance,
                     &scratch_).code(),
            StatusCode::kOutOfRange);
}

TEST_F(RepairTest, RepairAllFixesArbitraryMess) {
  // Everything selected at once: maximally inconsistent.
  auto instance = Selection({fig1_.c1, fig1_.c2, fig1_.c3, fig1_.c4, fig1_.c5});
  ASSERT_TRUE(RepairAll(fig1_.constraints, feedback_, &instance).ok());
  EXPECT_TRUE(fig1_.constraints.IsSatisfied(instance));
}

TEST_F(RepairTest, RepairAllReportsInconsistentApprovals) {
  feedback_.Approve(fig1_.c3);
  feedback_.Approve(fig1_.c5);  // 1-1 conflict inside F+ itself.
  auto instance = Selection({fig1_.c3, fig1_.c5});
  EXPECT_EQ(RepairAll(fig1_.constraints, feedback_, &instance).code(),
            StatusCode::kInternal);
}

TEST_F(RepairTest, GreedyPrefersHighestViolationCount) {
  // {c2, c4} both conflict one-to-one; adding c1 chains with both (two cycle
  // violations through c1). c1 is protected, so the repair must remove from
  // {c2, c4}; each is involved in 2 violations (1 one-to-one + 1 cycle), and
  // removing one resolves its cycle violation and the shared one-to-one,
  // leaving one more removal.
  auto instance = Selection({fig1_.c2, fig1_.c4});
  ASSERT_TRUE(RepairInstance(fig1_.constraints, feedback_, fig1_.c1, &instance,
                             &scratch_)
                  .ok());
  EXPECT_TRUE(instance.Test(fig1_.c1));
  EXPECT_TRUE(fig1_.constraints.IsSatisfied(instance));
}

}  // namespace
}  // namespace smn
