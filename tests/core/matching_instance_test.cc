#include "core/matching_instance.h"

#include <gtest/gtest.h>

#include "tests/testing/test_networks.h"

namespace smn {
namespace {

class MatchingInstanceTest : public ::testing::Test {
 protected:
  MatchingInstanceTest()
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

TEST_F(MatchingInstanceTest, PaperInstancesAreMatchingInstances) {
  EXPECT_TRUE(IsMatchingInstance(fig1_.constraints, feedback_,
                                 Selection({fig1_.c1, fig1_.c2, fig1_.c3})));
  EXPECT_TRUE(IsMatchingInstance(fig1_.constraints, feedback_,
                                 Selection({fig1_.c1, fig1_.c4, fig1_.c5})));
}

TEST_F(MatchingInstanceTest, NonMaximalConsistentSetIsNotAnInstance) {
  // {c2} is consistent but extendable by c5, hence not maximal.
  const auto only_c2 = Selection({fig1_.c2});
  EXPECT_TRUE(IsConsistentInstance(fig1_.constraints, feedback_, only_c2));
  EXPECT_FALSE(IsMaximalInstance(fig1_.constraints, feedback_, only_c2));
  EXPECT_FALSE(IsMatchingInstance(fig1_.constraints, feedback_, only_c2));
}

TEST_F(MatchingInstanceTest, InconsistentSetIsNotAnInstance) {
  EXPECT_FALSE(IsConsistentInstance(fig1_.constraints, feedback_,
                                    Selection({fig1_.c3, fig1_.c5})));
  EXPECT_FALSE(IsConsistentInstance(fig1_.constraints, feedback_,
                                    Selection({fig1_.c1, fig1_.c2})));
}

TEST_F(MatchingInstanceTest, FeedbackGatesConsistency) {
  feedback_.Disapprove(fig1_.c3);
  EXPECT_FALSE(IsConsistentInstance(fig1_.constraints, feedback_,
                                    Selection({fig1_.c1, fig1_.c2, fig1_.c3})));
  feedback_.Approve(fig1_.c1);
  // {c3, c4} misses the approved c1.
  EXPECT_FALSE(IsConsistentInstance(fig1_.constraints, feedback_,
                                    Selection({fig1_.c3, fig1_.c4})));
}

TEST_F(MatchingInstanceTest, DisapprovedCorrespondencesDoNotBlockMaximality) {
  // {c2, c5} is maximal; disapproving an unrelated candidate keeps it so.
  feedback_.Disapprove(fig1_.c1);
  EXPECT_TRUE(IsMaximalInstance(fig1_.constraints, feedback_,
                                Selection({fig1_.c2, fig1_.c5})));
}

TEST_F(MatchingInstanceTest, MaximalizeReachesAMaximalInstance) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    DynamicBitset selection(fig1_.network.correspondence_count());
    Maximalize(fig1_.constraints, feedback_, &rng, &selection, &scratch_);
    EXPECT_TRUE(IsMatchingInstance(fig1_.constraints, feedback_, selection))
        << selection.ToString();
  }
}

TEST_F(MatchingInstanceTest, SingletonC1IsMaximal) {
  // A subtle consequence of Definition 1: every single extension of {c1}
  // opens a chain whose closing correspondence is absent, so {c1} is itself
  // a matching instance (the triangle instances are reachable only by adding
  // two correspondences at once — which is why the repair procedure closes
  // cycles; see RepairOptions).
  Rng rng(4);
  DynamicBitset selection = Selection({fig1_.c1});
  EXPECT_TRUE(IsMatchingInstance(fig1_.constraints, feedback_, selection));
  Maximalize(fig1_.constraints, feedback_, &rng, &selection, &scratch_);
  EXPECT_EQ(selection.Count(), 1u);  // Nothing single-addable.
}

TEST_F(MatchingInstanceTest, MaximalizeExtendsFromC2) {
  // From {c2} the only single-addable candidate is c5 ({c2, c5} is one of
  // the five instances).
  Rng rng(4);
  DynamicBitset selection = Selection({fig1_.c2});
  Maximalize(fig1_.constraints, feedback_, &rng, &selection, &scratch_);
  EXPECT_TRUE(IsMatchingInstance(fig1_.constraints, feedback_, selection));
  EXPECT_EQ(selection, Selection({fig1_.c2, fig1_.c5}));
}

TEST_F(MatchingInstanceTest, MaximalizeRespectsDisapprovals) {
  feedback_.Disapprove(fig1_.c2);
  feedback_.Disapprove(fig1_.c4);
  Rng rng(5);
  DynamicBitset selection(fig1_.network.correspondence_count());
  Maximalize(fig1_.constraints, feedback_, &rng, &selection, &scratch_);
  EXPECT_FALSE(selection.Test(fig1_.c2));
  EXPECT_FALSE(selection.Test(fig1_.c4));
  EXPECT_TRUE(IsMatchingInstance(fig1_.constraints, feedback_, selection));
}

TEST_F(MatchingInstanceTest, RepairDistanceIsComplementSize) {
  EXPECT_EQ(RepairDistance(Selection({fig1_.c1, fig1_.c2, fig1_.c3}), 5), 2u);
  EXPECT_EQ(RepairDistance(Selection({}), 5), 5u);
}

}  // namespace
}  // namespace smn
