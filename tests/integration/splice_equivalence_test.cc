// Referee for the in-place component splice behind ProbabilisticNetwork's
// Assert: an assertion re-partitions only the touched component and patches
// the probabilities, the exhausted flag and the merged diagnostics for it
// alone. Seeded scripts of hard asserts (splits, rejections), soft answers
// (valid, zero-error and rejected) run in incremental and full-resample
// mode on multi-component networks with exact and sampled components. After
// every step:
//   - the maintained partition equals a from-scratch ComponentIndex::Build
//     over the undetermined set (components, order and ComponentOf);
//   - the step is folded into a digest of the step status, every
//     probability, the uncertainty, exhausted() and chain_diagnostics().
// The final digest of each script is pinned to a golden value recorded
// from the engine that rebuilt the whole partition and derived state after
// every assertion, so the splice must reproduce it bit for bit.

#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "core/component_index.h"
#include "core/probabilistic_network.h"
#include "datasets/clustered_stream.h"
#include "tests/testing/test_networks.h"
#include "util/rng.h"

namespace smn {
namespace {

struct Script {
  testing::ClusteredNetworkSpec network;
  uint64_t seed;
  size_t steps;
  /// Golden final digest (identical in both modes).
  uint64_t golden;
};

ProbabilisticNetworkOptions ScriptOptions(bool incremental) {
  ProbabilisticNetworkOptions options;
  options.incremental = incremental;
  // Components above six members take the sampling path, so the scripts
  // exercise exact and sampled components (and non-trivial diagnostics).
  options.store.exact_threshold = 6;
  options.store.target_samples = 120;
  options.store.min_samples = 30;
  options.store.sampling.num_threads = 1;
  return options;
}

void MixState(const ProbabilisticNetwork& pmn, datasets::NetworkDigest* d) {
  for (double p : pmn.probabilities()) d->MixDouble(p);
  d->MixDouble(pmn.Uncertainty());
  d->Mix(pmn.exhausted() ? 1 : 0);
  const ChainDiagnostics& diagnostics = pmn.chain_diagnostics();
  d->Mix(diagnostics.exact ? 1 : 0);
  d->Mix(diagnostics.usable_chains);
  d->Mix(diagnostics.min_chain_length);
  d->MixDouble(diagnostics.max_psrf);
  for (double r : diagnostics.psrf) d->MixDouble(r);
}

/// The maintained partition must equal a fresh Build over the undetermined
/// correspondences.
void ExpectPartitionMatchesBuild(const ProbabilisticNetwork& pmn,
                                 size_t step) {
  const size_t n = pmn.network().correspondence_count();
  DynamicBitset active(n);
  for (CorrespondenceId c = 0; c < n; ++c) {
    if (!pmn.determined().IsDetermined(c)) active.Set(c);
  }
  const ComponentIndex fresh =
      ComponentIndex::Build(pmn.constraints().CouplingGroups(), active, n);
  ASSERT_EQ(pmn.component_count(), fresh.component_count()) << "step " << step;
  for (size_t i = 0; i < fresh.component_count(); ++i) {
    EXPECT_EQ(pmn.component(i).anchor, fresh.component(i).anchor)
        << "step " << step << " component " << i;
    EXPECT_EQ(pmn.component(i).members, fresh.component(i).members)
        << "step " << step << " component " << i;
  }
  for (CorrespondenceId c = 0; c < n; ++c) {
    EXPECT_EQ(pmn.ComponentOf(c), fresh.ComponentOf(c))
        << "step " << step << " correspondence " << c;
  }
}

/// Runs `script` in one mode and returns its final digest.
uint64_t RunScript(const Script& script, bool incremental) {
  const testing::RandomNetwork net =
      testing::MakeClusteredNetwork(script.network);
  const size_t n = net.network.correspondence_count();
  Rng rng(script.seed);
  ProbabilisticNetwork pmn =
      ProbabilisticNetwork::Create(net.network, net.constraints,
                                   ScriptOptions(incremental), &rng)
          .value();
  Rng choices(script.seed ^ 0x5EEDULL);
  datasets::NetworkDigest digest;
  MixState(pmn, &digest);
  ExpectPartitionMatchesBuild(pmn, 0);
  for (size_t step = 1; step <= script.steps; ++step) {
    const std::vector<CorrespondenceId> uncertain =
        pmn.UncertainCorrespondences();
    // Ops 0-2: hard assert; 3-5: soft answer at error 0.1, 0.25 and 0
    // (which delegates to the hard path); 6: hard assert on any
    // correspondence, so determined and contradicting targets get rejected;
    // 7: a soft answer with an out-of-range error rate (always rejected).
    static constexpr double kSoftRates[] = {0.1, 0.25, 0.0};
    const uint64_t op = choices.UniformUint64(8);
    const bool any = uncertain.empty() || op >= 6;
    const CorrespondenceId c =
        any ? static_cast<CorrespondenceId>(choices.Index(n))
            : uncertain[choices.Index(uncertain.size())];
    const bool approved = choices.Bernoulli(0.5);
    Status status;
    if (op < 3 || op == 6) {
      status = pmn.Assert(c, approved, &rng);
    } else if (op < 6) {
      status = pmn.AssertSoft(c, approved, kSoftRates[op - 3], &rng);
    } else {
      status = pmn.AssertSoft(c, approved, 0.7, &rng);
    }
    digest.Mix(static_cast<uint64_t>(status.code()));
    MixState(pmn, &digest);
    ExpectPartitionMatchesBuild(pmn, step);
  }
  return digest.value();
}

// Golden digests recorded from the rebuild-everything engine (see the file
// comment); the specs span few large clusters, many small ones, and dense
// components that take the sampling path.
const Script kScripts[] = {
    {{3, 3, 2, 0.5, 7}, 101, 24, 0x0F5FD87BC8BAFDBFULL},
    {{4, 3, 2, 0.45, 29}, 202, 24, 0x76EBAEE1CBB90F93ULL},
    {{6, 2, 3, 0.6, 13}, 303, 30, 0xC30F646A863AB13EULL},
    {{2, 4, 2, 0.55, 41}, 404, 20, 0xB682AF4DD04877F9ULL},
    {{8, 3, 1, 0.7, 5}, 505, 30, 0x973B8733070B8602ULL},
    {{3, 3, 3, 0.35, 77}, 606, 24, 0x44CAA97D39273B52ULL},
    {{10, 3, 2, 0.5, 17}, 707, 48, 0xC58E1B49F279A431ULL},
    {{3, 4, 3, 0.4, 23}, 808, 40, 0xB3E05D614F81583AULL},
};

class SpliceEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SpliceEquivalenceTest, IncrementalMatchesGolden) {
  const Script& script = kScripts[GetParam()];
  EXPECT_EQ(RunScript(script, /*incremental=*/true), script.golden);
}

TEST_P(SpliceEquivalenceTest, FullResampleMatchesGolden) {
  const Script& script = kScripts[GetParam()];
  EXPECT_EQ(RunScript(script, /*incremental=*/false), script.golden);
}

INSTANTIATE_TEST_SUITE_P(Scripts, SpliceEquivalenceTest,
                         ::testing::Range<size_t>(0, std::size(kScripts)));

}  // namespace
}  // namespace smn
