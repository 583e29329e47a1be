#include "tests/testing/exact_enumerator.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/matching_instance.h"
#include "tests/testing/test_networks.h"

namespace smn {
namespace {

class ExactEnumeratorTest : public ::testing::Test {
 protected:
  ExactEnumeratorTest()
      : fig1_(testing::MakeFig1Network()),
        feedback_(fig1_.network.correspondence_count()),
        enumerator_(fig1_.network, fig1_.constraints) {}

  DynamicBitset Selection(std::initializer_list<CorrespondenceId> ids) const {
    DynamicBitset selection(fig1_.network.correspondence_count());
    for (CorrespondenceId id : ids) selection.Set(id);
    return selection;
  }

  bool ContainsInstance(const std::vector<DynamicBitset>& instances,
                        const DynamicBitset& target) const {
    return std::find(instances.begin(), instances.end(), target) !=
           instances.end();
  }

  testing::Fig1Network fig1_;
  Feedback feedback_;
  ExactEnumerator enumerator_;
};

TEST_F(ExactEnumeratorTest, Fig1HasFiveMatchingInstances) {
  const auto result = enumerator_.Enumerate(feedback_);
  ASSERT_TRUE(result.ok());
  // The paper's Example 1 idealizes this to I1, I2; under the exact
  // Definition-1 semantics {c3,c4}, {c2,c5} and the singleton {c1} are
  // matching instances too (see DESIGN.md).
  EXPECT_EQ(result->instances.size(), 5u);
  EXPECT_TRUE(ContainsInstance(result->instances,
                               Selection({fig1_.c1, fig1_.c2, fig1_.c3})));
  EXPECT_TRUE(ContainsInstance(result->instances,
                               Selection({fig1_.c1, fig1_.c4, fig1_.c5})));
  EXPECT_TRUE(
      ContainsInstance(result->instances, Selection({fig1_.c3, fig1_.c4})));
  EXPECT_TRUE(
      ContainsInstance(result->instances, Selection({fig1_.c2, fig1_.c5})));
  EXPECT_TRUE(ContainsInstance(result->instances, Selection({fig1_.c1})));
}

TEST_F(ExactEnumeratorTest, ProbabilitiesAreInstanceFractions) {
  const auto result = enumerator_.Enumerate(feedback_);
  ASSERT_TRUE(result.ok());
  // c1 appears in 3 of the 5 instances, every other correspondence in 2.
  EXPECT_DOUBLE_EQ(result->probabilities[fig1_.c1], 0.6);
  for (CorrespondenceId c : {fig1_.c2, fig1_.c3, fig1_.c4, fig1_.c5}) {
    EXPECT_DOUBLE_EQ(result->probabilities[c], 0.4);
  }
}

TEST_F(ExactEnumeratorTest, ApprovalFiltersInstances) {
  // Example 1 of the paper: approving c2 keeps only the instances that
  // contain c2.
  ASSERT_TRUE(feedback_.Approve(fig1_.c2).ok());
  const auto result = enumerator_.Enumerate(feedback_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->instances.size(), 2u);
  EXPECT_TRUE(ContainsInstance(result->instances,
                               Selection({fig1_.c1, fig1_.c2, fig1_.c3})));
  EXPECT_TRUE(
      ContainsInstance(result->instances, Selection({fig1_.c2, fig1_.c5})));
  EXPECT_DOUBLE_EQ(result->probabilities[fig1_.c2], 1.0);
  EXPECT_DOUBLE_EQ(result->probabilities[fig1_.c4], 0.0);
}

TEST_F(ExactEnumeratorTest, DisapprovalFiltersInstances) {
  // Disapproving c1 kills I1 and I2; {c2,c5} and {c3,c4} survive. ({c2,c3}
  // is NOT an instance: its chain through releaseDate demands the now-dead
  // closing c1.)
  ASSERT_TRUE(feedback_.Disapprove(fig1_.c1).ok());
  const auto result = enumerator_.Enumerate(feedback_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->instances.size(), 2u);
  EXPECT_TRUE(
      ContainsInstance(result->instances, Selection({fig1_.c2, fig1_.c5})));
  EXPECT_TRUE(
      ContainsInstance(result->instances, Selection({fig1_.c3, fig1_.c4})));
  for (const DynamicBitset& instance : result->instances) {
    EXPECT_FALSE(instance.Test(fig1_.c1));
    EXPECT_TRUE(IsMatchingInstance(fig1_.constraints, feedback_, instance));
  }
}

TEST_F(ExactEnumeratorTest, DisapprovalCanCreateNewMaximalInstances) {
  // Disapproving c5 leaves {c1,c2,c3}, {c3,c4} and {c1} by filtering — but
  // it also makes the singleton {c2} maximal (every extension of {c2} either
  // one-to-one-conflicts with c4 or opens a chain whose closing is missing).
  // Pure view-maintenance filtering would miss {c2}; the enumerator finds it.
  ASSERT_TRUE(feedback_.Disapprove(fig1_.c5).ok());
  const auto result = enumerator_.Enumerate(feedback_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->instances.size(), 4u);
  EXPECT_TRUE(ContainsInstance(result->instances,
                               Selection({fig1_.c1, fig1_.c2, fig1_.c3})));
  EXPECT_TRUE(
      ContainsInstance(result->instances, Selection({fig1_.c3, fig1_.c4})));
  EXPECT_TRUE(ContainsInstance(result->instances, Selection({fig1_.c1})));
  EXPECT_TRUE(ContainsInstance(result->instances, Selection({fig1_.c2})));
}

TEST_F(ExactEnumeratorTest, AllEnumeratedInstancesSatisfyDefinition) {
  const auto result = enumerator_.Enumerate(feedback_);
  ASSERT_TRUE(result.ok());
  for (const DynamicBitset& instance : result->instances) {
    EXPECT_TRUE(IsMatchingInstance(fig1_.constraints, feedback_, instance));
  }
}

TEST_F(ExactEnumeratorTest, CountMatchesEnumerate) {
  EXPECT_EQ(enumerator_.CountInstances(feedback_).value(), 5u);
}

TEST_F(ExactEnumeratorTest, RefusesOversizedNetworks) {
  ExactEnumerator tight(fig1_.network, fig1_.constraints,
                        /*max_candidates=*/3);
  EXPECT_EQ(tight.Enumerate(feedback_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExactEnumeratorRandomTest, InstancesAreExactlyTheDefinitionOnes) {
  // Cross-check the enumerator against a brute-force loop using the
  // Definition-1 predicates on a random network.
  const testing::RandomNetwork random =
      testing::MakeRandomNetwork({3, 3, 0.4, 99});
  const size_t n = random.network.correspondence_count();
  ASSERT_LE(n, 16u);
  Feedback feedback(n);
  ExactEnumerator enumerator(random.network, random.constraints);
  const auto result = enumerator.Enumerate(feedback);
  ASSERT_TRUE(result.ok());

  size_t brute_count = 0;
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    const DynamicBitset selection = DynamicBitset::FromWord(n, mask);
    if (IsMatchingInstance(random.constraints, feedback, selection)) {
      ++brute_count;
    }
  }
  EXPECT_EQ(result->instances.size(), brute_count);
}

}  // namespace
}  // namespace smn
