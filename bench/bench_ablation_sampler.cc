// Ablation of the sampler design choices DESIGN.md calls out:
//   (1) simulated-annealing acceptance (1 - e^-Δ) vs always-accept walks,
//   (2) maximalization of emitted samples (Definition-1 fidelity),
//   (3) cycle-closing repair vs the literal removal-only Algorithm 4.
// Quality is measured as KLratio against the engine's member-exact
// enumeration on small networks (as in Fig. 7) plus the share of the exact
// instance support the sampler actually visits — the coverage metric that
// exposes the removal-only repair's blind spot for closed triangles.

#include <iostream>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "bench/synthetic_networks.h"
#include "core/sampler.h"
#include "core/walk_scratch.h"
#include "sim/metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace smn {
namespace {

struct Variant {
  const char* name;
  SamplerOptions options;
};

int Run() {
  bench::BenchReporter reporter("ablation_sampler");
  std::cout << "=== Ablation: sampler design choices (KLratio % and support "
               "coverage % vs exact, |C|=16) ===\n";

  std::vector<Variant> variants;
  {
    Variant full{"full (annealing+maximalize+closure)", {}};
    variants.push_back(full);
    Variant no_annealing{"no annealing", {}};
    no_annealing.options.annealing = false;
    variants.push_back(no_annealing);
    Variant no_maximalize{"no maximalize", {}};
    no_maximalize.options.maximalize = false;
    variants.push_back(no_maximalize);
    Variant no_closure{"removal-only repair (literal Alg. 4)", {}};
    no_closure.options.repair.close_cycles = false;
    variants.push_back(no_closure);
  }

  const size_t candidates = 16;
  const size_t samples = 512;
  TablePrinter table({"Variant", "KLratio (%)", "Coverage (%)",
                      "MeanSampleSize"});
  // One walk scratch for every timed chain.
  WalkScratch scratch;
  for (const Variant& variant : variants) {
    Stopwatch watch;
    double ratio_sum = 0.0;
    double coverage_sum = 0.0;
    double size_sum = 0.0;
    size_t settings = 0;
    for (uint64_t seed : {3u, 5u, 8u, 13u, 21u}) {
      bench::SyntheticNetwork synthetic =
          bench::BuildTinyNetwork(candidates, seed);
      Feedback feedback(candidates);
      const auto exact = bench::BuildExactNetwork(synthetic);
      if (!exact.ok() || exact->samples().empty()) continue;
      std::unordered_set<DynamicBitset, DynamicBitsetHash> support(
          exact->samples().begin(), exact->samples().end());

      Sampler sampler(synthetic.network, synthetic.constraints,
                      variant.options);
      Rng rng(seed * 101);
      std::vector<DynamicBitset> out;
      if (!sampler.SampleChain(feedback, samples, &rng, &out, &scratch).ok()) {
        continue;
      }

      std::vector<double> counts(candidates, 0.0);
      std::unordered_set<DynamicBitset, DynamicBitsetHash> visited;
      double size = 0.0;
      for (const DynamicBitset& sample : out) {
        sample.ForEachSetBit([&](size_t c) { counts[c] += 1.0; });
        size += static_cast<double>(sample.Count());
        if (support.count(sample) > 0) visited.insert(sample);
      }
      for (double& count : counts) count /= static_cast<double>(out.size());

      ratio_sum += KlRatio(exact->probabilities(), counts);
      coverage_sum += 100.0 * static_cast<double>(visited.size()) /
                      static_cast<double>(support.size());
      size_sum += size / static_cast<double>(out.size());
      ++settings;
    }
    reporter.AddEntry(variant.name, watch.ElapsedMillis(),
                      {{"klratio_pct", 100.0 * ratio_sum / settings},
                       {"coverage_pct", coverage_sum / settings},
                       {"mean_sample_size", size_sum / settings}});
    table.AddRow({variant.name,
                  FormatDouble(100.0 * ratio_sum / settings, 2),
                  FormatDouble(coverage_sum / settings, 1),
                  FormatDouble(size_sum / settings, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nShape to check: the full sampler has the lowest KLratio "
               "and (near-)complete coverage; removal-only repair leaves "
               "triangle-closing instances unvisited.\n";
  return reporter.Write() ? 0 : 1;
}

}  // namespace
}  // namespace smn

int main() { return smn::Run(); }
