// Reproduces Fig. 7 of the paper: sampling effectiveness measured as the
// normalized K-L divergence KLratio = D(P||Q) / D(P||U), where P is the
// exact instance distribution (the engine's member-exact enumeration), Q
// the sampled distribution with 2^(|C|/2) samples, and U the max-entropy
// baseline (u_c = 0.5). |C| ranges over 10..20; the paper reports KLratio
// below ~2%.

#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "bench/synthetic_networks.h"
#include "core/feedback.h"
#include "core/parallel_sampler.h"
#include "sim/metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace smn {
namespace {

/// Equation 2 over a sample multiset: the fraction of samples holding each
/// correspondence.
std::vector<double> SampleMarginals(const std::vector<DynamicBitset>& samples,
                                    size_t correspondence_count) {
  std::vector<size_t> counts(correspondence_count, 0);
  for (const DynamicBitset& sample : samples) {
    sample.ForEachSetBit([&](size_t c) { ++counts[c]; });
  }
  std::vector<double> probabilities(correspondence_count, 0.0);
  const double denom = static_cast<double>(samples.size());
  for (size_t c = 0; c < correspondence_count; ++c) {
    probabilities[c] = static_cast<double>(counts[c]) / denom;
  }
  return probabilities;
}

int Run() {
  bench::BenchReporter reporter("fig7_kl_divergence");
  std::cout << "=== Fig. 7: sampling effectiveness (KLratio %) ===\n";
  TablePrinter table({"#Correspondences", "#Samples", "#Instances(exact)",
                      "KLratio (%)", "KLratio@4096 (%)"});
  for (size_t candidates = 10; candidates <= 20; ++candidates) {
    const size_t paper_samples = 1ULL << (candidates / 2);
    Stopwatch watch;
    double ratio_sum = 0.0;
    double ratio4k_sum = 0.0;
    double instances_sum = 0.0;
    size_t settings = 0;
    for (uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
      bench::SyntheticNetwork synthetic =
          bench::BuildTinyNetwork(candidates, seed);
      const auto exact = bench::BuildExactNetwork(synthetic);
      if (!exact.ok()) return 1;
      const size_t instances = exact->samples().size();
      if (instances == 0) continue;

      // Two sampling budgets: the paper's 2^(|C|/2) (tiny at small |C|) and
      // a fixed 4096 to show the estimate converging toward exact. One plain
      // multi-chain round per budget: no exhaustion shortcut, no exact path.
      const Feedback feedback(candidates);
      ParallelSamplerOptions options;
      // Longer walks decorrelate the chain on these tiny, cycle-heavy
      // networks (see EXPERIMENTS.md for the fidelity discussion).
      options.sampler.walk_steps = 16;
      const ParallelSampler sampler(synthetic.network, synthetic.constraints,
                                    options);
      double ratios[2] = {0.0, 0.0};
      const size_t budgets[2] = {paper_samples, 4096};
      for (int b = 0; b < 2; ++b) {
        Rng rng(seed * 31 + candidates);
        std::vector<DynamicBitset> samples;
        if (!sampler.SampleMerged(feedback, budgets[b], &rng, &samples).ok()) {
          return 1;
        }
        ratios[b] = KlRatio(exact->probabilities(),
                            SampleMarginals(samples, candidates));
      }
      ratio_sum += ratios[0];
      ratio4k_sum += ratios[1];
      instances_sum += static_cast<double>(instances);
      ++settings;
    }
    if (settings == 0) continue;
    reporter.AddEntry(
        "c" + std::to_string(candidates), watch.ElapsedMillis(),
        {{"correspondences", static_cast<double>(candidates)},
         {"samples", static_cast<double>(paper_samples)},
         {"exact_instances", instances_sum / settings},
         {"klratio_pct", 100.0 * ratio_sum / settings},
         {"klratio_4096_pct", 100.0 * ratio4k_sum / settings}});
    table.AddRow({std::to_string(candidates), std::to_string(paper_samples),
                  FormatDouble(instances_sum / settings, 0),
                  FormatDouble(100.0 * ratio_sum / settings, 2),
                  FormatDouble(100.0 * ratio4k_sum / settings, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nShape to check: KLratio shrinks as |C| (and with it the "
               "2^(|C|/2) sample budget) grows, and collapses further at the "
               "fixed 4096-sample budget — the sampled distribution converges "
               "to the exact one and is far closer to it than the "
               "max-entropy baseline (ratio << 100%). The paper reports <2% "
               "under its protocol.\n";
  return reporter.Write() ? 0 : 1;
}

}  // namespace
}  // namespace smn

int main() { return smn::Run(); }
