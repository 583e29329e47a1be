// Differential tests of the compiled walk-kernel violation queries
// (AppendConflicts / AppendConflictsInvolving / AppendConflictsCreatedByRemoval,
// CountViolationsInvolving and AdditionViolates) against the naive
// testing::ViolationOracle, on seeded random networks under one-to-one-only,
// cycle-only, and mixed constraint sets. Selections are arbitrary random
// subsets — the queries must agree even on wildly inconsistent states, which
// is exactly what the repair worklist feeds them.

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/cycle.h"
#include "constraints/one_to_one.h"
#include "core/constraint_set.h"
#include "tests/testing/test_networks.h"
#include "tests/testing/violation_oracle.h"
#include "util/rng.h"

namespace smn {
namespace {

using testing::Violation;

// Report order matters as much as content: the repair loop's closure choice
// follows worklist order, so the full-scan, involving and removal queries
// are compared element by element (testing::Triples); the multiset forms
// below cross-check them against filtered and differenced full scans.

/// Order-free normal form of a violation: (low participant, high participant,
/// missing). Sorting a vector of these compares multisets.
using NormalViolation = std::tuple<CorrespondenceId, CorrespondenceId,
                                   CorrespondenceId>;

NormalViolation Normalize(const Violation& v) {
  CorrespondenceId a = v.participants.empty() ? kInvalidCorrespondence
                                              : v.participants[0];
  CorrespondenceId b = v.participants.size() > 1 ? v.participants[1]
                                                 : kInvalidCorrespondence;
  if (b < a) std::swap(a, b);
  return {a, b, v.missing};
}

NormalViolation Normalize(const KernelViolation& v) {
  CorrespondenceId a = v.a;
  CorrespondenceId b = v.b;
  if (b < a) std::swap(a, b);
  return {a, b, v.missing};
}

std::vector<NormalViolation> NormalizeAll(const std::vector<Violation>& in) {
  std::vector<NormalViolation> out;
  out.reserve(in.size());
  for (const Violation& v : in) out.push_back(Normalize(v));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NormalViolation> NormalizeAll(
    const std::vector<KernelViolation>& in) {
  std::vector<NormalViolation> out;
  out.reserve(in.size());
  for (const KernelViolation& v : in) out.push_back(Normalize(v));
  std::sort(out.begin(), out.end());
  return out;
}

/// Multiset difference `after \ before` of normalized violations.
std::vector<NormalViolation> MultisetDifference(
    std::vector<NormalViolation> after, std::vector<NormalViolation> before) {
  std::vector<NormalViolation> diff;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(diff));
  return diff;
}

DynamicBitset RandomSelection(size_t n, double density, Rng* rng) {
  DynamicBitset selection(n);
  for (size_t c = 0; c < n; ++c) {
    if (rng->Bernoulli(density)) selection.Set(c);
  }
  return selection;
}

enum class Kind { kOneToOne, kCycle, kMixed };

ConstraintSet MakeConstraints(const Network& network, Kind kind) {
  ConstraintSet constraints;
  if (kind == Kind::kOneToOne || kind == Kind::kMixed) {
    constraints.Add(std::make_unique<OneToOneConstraint>());
  }
  if (kind == Kind::kCycle || kind == Kind::kMixed) {
    constraints.Add(std::make_unique<CycleConstraint>());
  }
  EXPECT_TRUE(constraints.Compile(network).ok());
  return constraints;
}

class WalkKernelDifferentialTest : public ::testing::TestWithParam<Kind> {};

TEST_P(WalkKernelDifferentialTest, KernelQueriesMatchNaiveOracle) {
  for (uint64_t seed : {3u, 17u, 91u}) {
    const testing::RandomNetwork random = testing::MakeRandomNetwork(
        {/*schema_count=*/4, /*attributes_per_schema=*/3,
         /*candidate_density=*/0.45, seed});
    const Network& network = random.network;
    const size_t n = network.correspondence_count();
    if (n == 0) continue;
    const ConstraintSet constraints = MakeConstraints(network, GetParam());
    const testing::ViolationOracle oracle(network, constraints);

    Rng rng(seed * 7919 + 1);
    for (double density : {0.2, 0.5, 0.8}) {
      for (int trial = 0; trial < 25; ++trial) {
        const DynamicBitset selection = RandomSelection(n, density, &rng);

        // Full-scan query.
        const std::vector<Violation> oracle_all =
            oracle.FindViolations(selection);
        std::vector<KernelViolation> kernel_all;
        constraints.AppendConflicts(selection, &kernel_all);
        EXPECT_EQ(testing::Triples(kernel_all), testing::Triples(oracle_all))
            << "full scan, density " << density;

        // Involving-c query, for every selected correspondence: checked
        // against the oracle's own involving query and against the full
        // naive scan filtered to the violations touching c.
        selection.ForEachSetBit([&](size_t c_index) {
          const CorrespondenceId c = static_cast<CorrespondenceId>(c_index);
          std::vector<Violation> filtered;
          for (const Violation& v : oracle_all) {
            if (v.Involves(c)) filtered.push_back(v);
          }
          std::vector<KernelViolation> kernel_involving;
          constraints.AppendConflictsInvolving(selection, c,
                                               &kernel_involving);
          EXPECT_EQ(NormalizeAll(kernel_involving), NormalizeAll(filtered))
              << "involving c=" << c << ", density " << density;
          EXPECT_EQ(
              testing::Triples(kernel_involving),
              testing::Triples(oracle.FindViolationsInvolving(selection, c)))
              << "oracle involving c=" << c;
          EXPECT_EQ(constraints.CountViolationsInvolving(selection, c),
                    kernel_involving.size())
              << "count involving c=" << c;
        });

        // Removal-created query: clearing c may only surface violations that
        // were masked by c's presence — the multiset difference between the
        // naive scans after and before the removal.
        selection.ForEachSetBit([&](size_t c_index) {
          const CorrespondenceId c = static_cast<CorrespondenceId>(c_index);
          DynamicBitset after = selection;
          after.Reset(c);
          const std::vector<NormalViolation> oracle_created =
              MultisetDifference(NormalizeAll(oracle.FindViolations(after)),
                                 NormalizeAll(oracle_all));
          std::vector<KernelViolation> kernel_created;
          constraints.AppendConflictsCreatedByRemoval(after, c,
                                                      &kernel_created);
          EXPECT_EQ(NormalizeAll(kernel_created), oracle_created)
              << "removal of c=" << c << ", density " << density;
          EXPECT_EQ(testing::Triples(kernel_created),
                    testing::Triples(
                        oracle.FindViolationsCreatedByRemoval(after, c)))
              << "oracle removal of c=" << c;
        });

        // Addition probe, for every unselected correspondence.
        for (CorrespondenceId c = 0; c < n; ++c) {
          if (selection.Test(c)) continue;
          EXPECT_EQ(constraints.AdditionViolates(selection, c),
                    oracle.AdditionViolates(selection, c))
              << "addition of c=" << c << ", density " << density;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConstraintKinds, WalkKernelDifferentialTest,
                         ::testing::Values(Kind::kOneToOne, Kind::kCycle,
                                           Kind::kMixed),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           switch (info.param) {
                             case Kind::kOneToOne:
                               return "OneToOne";
                             case Kind::kCycle:
                               return "Cycle";
                             default:
                               return "Mixed";
                           }
                         });

TEST_P(WalkKernelDifferentialTest, AdditionBlockCountersStayExactUnderDeltas) {
  // The addition-tracker counters: a fresh SeedAdditionBlockCounts of any
  // selection must agree with counters maintained incrementally through the
  // compiled delta table across a random flip walk — and "both counters
  // zero" must coincide with the oracle's AdditionViolates for unselected
  // candidates at every point.
  for (uint64_t seed : {7u, 70u}) {
    const testing::RandomNetwork random = testing::MakeRandomNetwork(
        {/*schema_count=*/4, /*attributes_per_schema=*/3,
         /*candidate_density=*/0.45, seed});
    const Network& network = random.network;
    const size_t n = network.correspondence_count();
    if (n == 0) continue;
    const ConstraintSet constraints = MakeConstraints(network, GetParam());
    const testing::ViolationOracle oracle(network, constraints);

    Rng rng(seed + 5);
    DynamicBitset selection = RandomSelection(n, 0.4, &rng);
    std::vector<uint32_t> monotone(n, 0), reversible(n, 0);
    constraints.SeedAdditionBlockCounts(selection, monotone.data(),
                                        reversible.data());
    for (int flip = 0; flip < 120; ++flip) {
      // Check against a fresh seed and the AdditionViolates oracle.
      std::vector<uint32_t> fresh_monotone(n, 0), fresh_reversible(n, 0);
      constraints.SeedAdditionBlockCounts(selection, fresh_monotone.data(),
                                          fresh_reversible.data());
      ASSERT_EQ(monotone, fresh_monotone) << "flip " << flip;
      ASSERT_EQ(reversible, fresh_reversible) << "flip " << flip;
      for (CorrespondenceId c = 0; c < n; ++c) {
        if (selection.Test(c)) continue;
        EXPECT_EQ(monotone[c] == 0 && reversible[c] == 0,
                  !oracle.AdditionViolates(selection, c))
            << "candidate " << c << " at flip " << flip;
      }
      // Random flip, maintained through the delta table.
      const CorrespondenceId changed =
          static_cast<CorrespondenceId>(rng.Index(n));
      const bool added = !selection.Test(changed);
      selection.Assign(changed, added);
      bool unblocked = false;
      constraints.ApplyAdditionBlockDelta(selection, changed, added,
                                          monotone.data(), reversible.data(),
                                          &unblocked);
    }
  }
}

}  // namespace
}  // namespace smn
