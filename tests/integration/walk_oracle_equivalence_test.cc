// Oracle-equivalence suite for the compiled walk kernel: a reference
// implementation of the pre-kernel engine (the naive allocating repair loop
// and NextInstance, preserved here verbatim) is run side by side with the
// kernel engine on identical RNG streams. The reference answers every
// violation query through testing::ViolationOracle, which shares none of
// the compiled constraint tables the kernel reads. Every repaired instance, every
// chain state, and every emitted sample must be bit-identical — the kernel
// is a pure mechanical optimization, never a behavioral change. Together
// with the parallel-scaling determinism digest this pins the determinism
// contract of ARCHITECTURE.md across the kernel rewrite.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/matching_instance.h"
#include "core/parallel_sampler.h"
#include "core/repair.h"
#include "core/sampler.h"
#include "tests/testing/test_networks.h"
#include "tests/testing/violation_oracle.h"

namespace smn {
namespace {

using testing::Violation;
using testing::ViolationOracle;

/// The pre-kernel repair loop, kept bit-for-bit: per-call violation vectors,
/// full-n victim counts, ascending full-n victim scan with a strict `>`.
Status ReferenceRepairLoop(const ViolationOracle& oracle,
                           const Feedback& feedback,
                           CorrespondenceId protected_added,
                           std::vector<Violation> violations,
                           DynamicBitset* instance,
                           const RepairOptions& options,
                           bool allow_cascade_closures) {
  const size_t n = instance->size();
  std::vector<uint32_t> counts(n, 0);
  bool added_protected = protected_added != kInvalidCorrespondence;
  DynamicBitset closure_tried(n);

  while (!violations.empty()) {
    if (options.close_cycles) {
      bool closed = false;
      for (const bool allow_cascade : {false, true}) {
        if (allow_cascade && !allow_cascade_closures) break;
        for (const Violation& violation : violations) {
          const CorrespondenceId missing = violation.missing;
          if (missing == kInvalidCorrespondence || instance->Test(missing) ||
              feedback.IsDisapproved(missing) || closure_tried.Test(missing)) {
            continue;
          }
          instance->Set(missing);
          std::vector<Violation> introduced =
              oracle.FindViolationsInvolving(*instance, missing);
          if (!introduced.empty() && !allow_cascade) {
            instance->Reset(missing);
            continue;
          }
          closure_tried.Set(missing);
          std::vector<Violation> remaining;
          remaining.reserve(violations.size() + introduced.size());
          for (Violation& v : violations) {
            if (v.missing != missing) remaining.push_back(std::move(v));
          }
          for (Violation& v : introduced) remaining.push_back(std::move(v));
          violations = std::move(remaining);
          closed = true;
          break;
        }
        if (closed) break;
      }
      if (closed) continue;
    }

    std::fill(counts.begin(), counts.end(), 0);
    for (const Violation& v : violations) {
      for (CorrespondenceId p : v.participants) ++counts[p];
    }
    auto pick_victim = [&](bool protect_added) -> CorrespondenceId {
      CorrespondenceId best = kInvalidCorrespondence;
      uint32_t best_count = 0;
      for (CorrespondenceId c = 0; c < n; ++c) {
        if (counts[c] == 0 || !instance->Test(c)) continue;
        if (feedback.IsApproved(c)) continue;
        if (protect_added && c == protected_added) continue;
        if (counts[c] > best_count) {
          best_count = counts[c];
          best = c;
        }
      }
      return best;
    };

    CorrespondenceId victim = pick_victim(added_protected);
    if (victim == kInvalidCorrespondence && added_protected) {
      added_protected = false;
      victim = pick_victim(false);
    }
    if (victim == kInvalidCorrespondence) {
      return Status::Internal("reference repair: F+ inconsistent");
    }

    instance->Reset(victim);
    std::vector<Violation> next;
    next.reserve(violations.size());
    for (Violation& v : violations) {
      if (!v.Involves(victim)) next.push_back(std::move(v));
    }
    for (Violation& v :
         oracle.FindViolationsCreatedByRemoval(*instance, victim)) {
      next.push_back(std::move(v));
    }
    violations = std::move(next);
  }
  return Status::OK();
}

Status ReferenceRepairInstance(const ViolationOracle& oracle,
                               const Feedback& feedback, CorrespondenceId added,
                               DynamicBitset* instance,
                               const RepairOptions& options = {}) {
  if (added >= instance->size()) {
    return Status::OutOfRange("reference: id out of range");
  }
  if (instance->Test(added)) return Status::OK();
  instance->Set(added);
  std::vector<Violation> violations =
      oracle.FindViolationsInvolving(*instance, added);
  return ReferenceRepairLoop(oracle, feedback, added,
                             std::move(violations), instance, options,
                             /*allow_cascade_closures=*/false);
}

Status ReferenceRepairAll(const ViolationOracle& oracle,
                          const Feedback& feedback, DynamicBitset* instance,
                          const RepairOptions& options = {}) {
  return ReferenceRepairLoop(oracle, feedback, kInvalidCorrespondence,
                             oracle.FindViolations(*instance), instance,
                             options, /*allow_cascade_closures=*/true);
}

/// The pre-kernel Maximalize, preserved verbatim: fresh candidate vector,
/// shuffle, then a naive AdditionViolates fixpoint (no addition tracking, no
/// candidate compaction, re-passes whenever anything was added). The kernel
/// engine's tracked fixpoint must reproduce it bit for bit.
void ReferenceMaximalize(const ViolationOracle& oracle,
                         const Feedback& feedback, Rng* rng,
                         DynamicBitset* selection) {
  const size_t n = selection->size();
  std::vector<CorrespondenceId> candidates;
  candidates.reserve(n);
  for (CorrespondenceId c = 0; c < n; ++c) {
    if (!selection->Test(c) && !feedback.IsDisapproved(c)) {
      candidates.push_back(c);
    }
  }
  rng->Shuffle(&candidates);
  bool added = true;
  while (added) {
    added = false;
    for (CorrespondenceId c : candidates) {
      if (selection->Test(c)) continue;
      if (!oracle.AdditionViolates(*selection, c)) {
        selection->Set(c);
        added = true;
      }
    }
  }
}

/// The pre-kernel walk transition, preserved verbatim (fresh-vector candidate
/// fallback included).
StatusOr<DynamicBitset> ReferenceNextInstance(const Network& network,
                                              const ViolationOracle& oracle,
                                              const SamplerOptions& options,
                                              const DynamicBitset& current,
                                              const Feedback& feedback,
                                              Rng* rng) {
  const size_t n = network.correspondence_count();
  CorrespondenceId candidate = kInvalidCorrespondence;
  if (n != 0) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const CorrespondenceId c = static_cast<CorrespondenceId>(rng->Index(n));
      if (!current.Test(c) && !feedback.IsDisapproved(c)) {
        candidate = c;
        break;
      }
    }
    if (candidate == kInvalidCorrespondence) {
      std::vector<CorrespondenceId> eligible;
      for (CorrespondenceId c = 0; c < n; ++c) {
        if (!current.Test(c) && !feedback.IsDisapproved(c)) {
          eligible.push_back(c);
        }
      }
      if (!eligible.empty()) candidate = eligible[rng->Index(eligible.size())];
    }
  }
  if (candidate == kInvalidCorrespondence) return current;

  DynamicBitset next = current;
  const Status repaired = ReferenceRepairInstance(oracle, feedback, candidate,
                                                  &next, options.repair);
  if (!repaired.ok()) return current;
  if (!options.annealing) return next;
  const double delta =
      static_cast<double>(current.SymmetricDifferenceCount(next));
  if (rng->Bernoulli(1.0 - std::exp(-delta))) return next;
  return current;
}

/// The pre-kernel chain: ChainStart (closure repair, no overdispersion here)
/// + walk_steps transitions per emitted sample, maximalized copies out.
Status ReferenceSampleChain(const Network& network,
                            const ViolationOracle& oracle,
                            const SamplerOptions& options,
                            const Feedback& feedback, size_t count, Rng* rng,
                            std::vector<DynamicBitset>* out) {
  DynamicBitset state = feedback.approved();
  if (!oracle.IsSatisfied(state)) {
    SMN_RETURN_IF_ERROR(
        ReferenceRepairAll(oracle, feedback, &state, options.repair));
  }
  for (size_t i = 0; i < count; ++i) {
    for (size_t step = 0; step < options.walk_steps; ++step) {
      SMN_ASSIGN_OR_RETURN(
          DynamicBitset next,
          ReferenceNextInstance(network, oracle, options, state, feedback,
                                rng));
      state = std::move(next);
    }
    if (options.maximalize) {
      DynamicBitset sample = state;
      ReferenceMaximalize(oracle, feedback, rng, &sample);
      out->push_back(std::move(sample));
    } else {
      out->push_back(state);
    }
  }
  return Status::OK();
}

class WalkOracleEquivalenceTest : public ::testing::Test {
 protected:
  static Feedback MakeFeedback(const testing::RandomNetwork& net,
                               uint64_t seed) {
    const size_t n = net.network.correspondence_count();
    Feedback feedback(n);
    // A few random assertions, the way reconciliation leaves them. Approvals
    // are admitted only while F+ stays consistent outright, so every chain
    // start below is well-defined for both engines.
    Rng rng(seed);
    for (size_t i = 0; i < n / 6; ++i) {
      const CorrespondenceId c = static_cast<CorrespondenceId>(rng.Index(n));
      if (feedback.IsAsserted(c)) continue;
      if (rng.Bernoulli(0.5)) {
        DynamicBitset trial = feedback.approved();
        trial.Set(c);
        if (net.constraints.IsSatisfied(trial)) {
          EXPECT_TRUE(feedback.Approve(c).ok());
        }
      } else {
        EXPECT_TRUE(feedback.Disapprove(c).ok());
      }
    }
    return feedback;
  }
};

TEST_F(WalkOracleEquivalenceTest, RepairInstanceMatchesReferenceBitForBit) {
  for (uint64_t seed : {1u, 12u, 123u}) {
    const testing::RandomNetwork random = testing::MakeRandomNetwork(
        {/*schema_count=*/4, /*attributes_per_schema=*/3,
         /*candidate_density=*/0.45, seed});
    const size_t n = random.network.correspondence_count();
    if (n == 0) continue;
    Feedback feedback(n);
    Sampler sampler(random.network, random.constraints);
    const ViolationOracle oracle(random.network, random.constraints);
    WalkScratch scratch(n);

    // Walk a reference chain to visit representative consistent states; at
    // every state try every possible addition through both repair paths.
    Rng walk_rng(seed + 1);
    DynamicBitset state(n);
    for (int visit = 0; visit < 40; ++visit) {
      auto next = ReferenceNextInstance(random.network, oracle,
                                        sampler.options(), state, feedback,
                                        &walk_rng);
      ASSERT_TRUE(next.ok());
      state = *std::move(next);
      for (CorrespondenceId added = 0; added < n; ++added) {
        DynamicBitset reference = state;
        DynamicBitset kernel = state;
        const Status ref_status =
            ReferenceRepairInstance(oracle, feedback, added, &reference);
        const Status kernel_status = RepairInstance(
            random.constraints, feedback, added, &kernel, &scratch);
        ASSERT_EQ(ref_status.code(), kernel_status.code());
        ASSERT_TRUE(reference == kernel)
            << "seed " << seed << " added " << added << "\nref:    "
            << reference.ToString() << "\nkernel: " << kernel.ToString();
      }
    }
  }
}

TEST_F(WalkOracleEquivalenceTest, RepairAllMatchesReferenceBitForBit) {
  for (uint64_t seed : {5u, 55u}) {
    const testing::RandomNetwork random =
        testing::MakeRandomNetwork({4, 3, 0.5, seed});
    const size_t n = random.network.correspondence_count();
    if (n == 0) continue;
    Feedback feedback(n);
    const ViolationOracle oracle(random.network, random.constraints);
    WalkScratch scratch(n);
    Rng rng(seed);
    for (int trial = 0; trial < 60; ++trial) {
      DynamicBitset mess(n);
      for (size_t c = 0; c < n; ++c) {
        if (rng.Bernoulli(0.5)) mess.Set(c);
      }
      DynamicBitset reference = mess;
      DynamicBitset kernel = mess;
      const Status ref_status =
          ReferenceRepairAll(oracle, feedback, &reference);
      const Status kernel_status =
          RepairAll(random.constraints, feedback, &kernel, &scratch);
      ASSERT_EQ(ref_status.code(), kernel_status.code());
      ASSERT_TRUE(reference == kernel) << "trial " << trial;
    }
  }
}

TEST_F(WalkOracleEquivalenceTest, MaximalizeMatchesReferenceBitForBit) {
  // The tracked fixpoint (incrementally synced block counters, compacted
  // candidate list, unblock-gated re-passes) against the naive
  // shuffle-and-probe loop, across a walk's worth of consistent states
  // sharing one scratch — exactly how ContinueChain drives it.
  for (uint64_t seed : {9u, 90u}) {
    const testing::RandomNetwork random =
        testing::MakeRandomNetwork({4, 3, 0.5, seed});
    const size_t n = random.network.correspondence_count();
    if (n == 0) continue;
    Feedback feedback(n);
    ASSERT_TRUE(feedback.Disapprove(static_cast<CorrespondenceId>(n / 2)).ok());
    Sampler sampler(random.network, random.constraints);
    const ViolationOracle oracle(random.network, random.constraints);
    WalkScratch scratch(n);
    Rng walk_rng(seed + 3);
    DynamicBitset state(n);
    for (int visit = 0; visit < 60; ++visit) {
      ASSERT_TRUE(sampler.Step(feedback, &walk_rng, &state, &scratch).ok());
      DynamicBitset reference = state;
      DynamicBitset kernel = state;
      Rng reference_rng(seed * 17 + static_cast<uint64_t>(visit));
      Rng kernel_rng(seed * 17 + static_cast<uint64_t>(visit));
      ReferenceMaximalize(oracle, feedback, &reference_rng, &reference);
      Maximalize(random.constraints, feedback, &kernel_rng, &kernel, &scratch);
      ASSERT_TRUE(reference == kernel)
          << "visit " << visit << "\nref:    " << reference.ToString()
          << "\nkernel: " << kernel.ToString();
    }
  }
}

TEST_F(WalkOracleEquivalenceTest, ScratchReuseAcrossNetworksReseedsTracker) {
  // One scratch serving two different networks with the same candidate
  // count — a long-lived caller-owned scratch (a bench holding one across
  // settings) does exactly this across consecutive SampleChain calls. The
  // incremental tracker must detect the foreign compiled set (compile id mismatch) and reseed instead of
  // diff-syncing against the other network's counters.
  std::vector<testing::RandomNetwork> nets;
  for (uint64_t seed = 1; seed < 64 && nets.size() < 2; ++seed) {
    testing::RandomNetwork net = testing::MakeRandomNetwork({3, 4, 0.3, seed});
    const size_t n = net.network.correspondence_count();
    if (n == 0) continue;
    if (nets.empty() ||
        nets.front().network.correspondence_count() == n) {
      nets.push_back(std::move(net));
    }
  }
  ASSERT_EQ(nets.size(), 2u) << "no same-size network pair found";
  const size_t n = nets.front().network.correspondence_count();
  Feedback feedback(n);
  WalkScratch scratch(n);
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    for (const testing::RandomNetwork& net : nets) {
      // A random consistent state: closure-repair a random subset.
      DynamicBitset state(n);
      for (size_t c = 0; c < n; ++c) {
        if (rng.Bernoulli(0.35)) state.Set(c);
      }
      ASSERT_TRUE(RepairAll(net.constraints, feedback, &state, &scratch).ok());
      const ViolationOracle oracle(net.network, net.constraints);
      DynamicBitset reference = state;
      DynamicBitset kernel = state;
      Rng reference_rng(round * 101 + 13);
      Rng kernel_rng(round * 101 + 13);
      ReferenceMaximalize(oracle, feedback, &reference_rng, &reference);
      Maximalize(net.constraints, feedback, &kernel_rng, &kernel, &scratch);
      ASSERT_TRUE(reference == kernel) << "round " << round;
    }
  }
}

TEST_F(WalkOracleEquivalenceTest, SampleChainMatchesReferenceBitForBit) {
  for (uint64_t seed : {2u, 21u, 210u}) {
    const testing::RandomNetwork random =
        testing::MakeRandomNetwork({4, 3, 0.45, seed});
    if (random.network.correspondence_count() == 0) continue;
    const Feedback feedback = MakeFeedback(random, seed + 13);
    const ViolationOracle oracle(random.network, random.constraints);

    for (const bool maximalize : {true, false}) {
      SamplerOptions options;
      options.maximalize = maximalize;
      Sampler sampler(random.network, random.constraints, options);

      Rng reference_rng(seed * 31 + 7);
      Rng kernel_rng(seed * 31 + 7);
      std::vector<DynamicBitset> reference;
      std::vector<DynamicBitset> kernel;
      ASSERT_TRUE(ReferenceSampleChain(random.network, oracle, options,
                                       feedback, 120, &reference_rng,
                                       &reference)
                      .ok());
      WalkScratch scratch;
      ASSERT_TRUE(
          sampler.SampleChain(feedback, 120, &kernel_rng, &kernel, &scratch)
              .ok());
      ASSERT_EQ(reference.size(), kernel.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_TRUE(reference[i] == kernel[i])
            << "sample " << i << " diverged (seed " << seed << ", maximalize "
            << maximalize << ")";
      }
    }
  }
}

TEST_F(WalkOracleEquivalenceTest, ParallelChainsMatchReferencePerChainStreams) {
  // The multi-chain engine forks one stream per chain; each chain must
  // reproduce the reference serial walk on its forked stream, regardless of
  // the worker thread count.
  const testing::RandomNetwork random = testing::MakeRandomNetwork({4, 3, 0.5, 77});
  const size_t n = random.network.correspondence_count();
  ASSERT_GT(n, 0u);
  Feedback feedback(n);
  const ViolationOracle oracle(random.network, random.constraints);

  ParallelSamplerOptions options;
  options.num_chains = 4;
  options.burn_in = 3;
  options.overdispersed_starts = false;  // Reference covers the plain start.
  for (const size_t threads : {size_t{1}, size_t{3}}) {
    options.num_threads = threads;
    ParallelSampler parallel(random.network, random.constraints, options);
    Rng rng(4242);
    auto chains = parallel.SampleChains(feedback, 40, &rng);
    ASSERT_TRUE(chains.ok());

    // Reproduce the per-chain streams exactly as ParallelSampler forks them.
    Rng reference_parent(4242);
    Rng fork_base = reference_parent.Split();
    std::vector<size_t> quotas(options.num_chains, 40 / options.num_chains);
    for (size_t i = 0; i < 40 % options.num_chains; ++i) ++quotas[i];
    for (size_t chain = 0; chain < options.num_chains; ++chain) {
      Rng chain_rng = fork_base.Fork(chain);
      std::vector<DynamicBitset> reference;
      ASSERT_TRUE(ReferenceSampleChain(
                      random.network, oracle,
                      parallel.sampler().options(), feedback,
                      options.burn_in + quotas[chain], &chain_rng, &reference)
                      .ok());
      reference.erase(reference.begin(),
                      reference.begin() +
                          static_cast<std::ptrdiff_t>(options.burn_in));
      ASSERT_EQ(reference.size(), (*chains)[chain].size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_TRUE(reference[i] == (*chains)[chain][i])
            << "chain " << chain << " sample " << i << " at " << threads
            << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace smn
