// Reproduces Fig. 6 of the paper: probability-estimation time per sample as
// a function of the number of candidate correspondences (|C| from 2^7 to
// 2^12), on Erdős–Rényi interaction graphs. The paper reports ~2ms/sample at
// 4096 correspondences on a 2.8GHz i7; the shape to check is near-linear
// growth with low-millisecond absolute values.

#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "bench/synthetic_networks.h"
#include "core/feedback.h"
#include "core/parallel_sampler.h"
#include "core/sampler.h"
#include "core/walk_scratch.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace smn {
namespace {

int Run() {
  bench::BenchReporter reporter("fig6_sampling_time");
  const size_t samples = bench::EnvSize("SMN_BENCH_SAMPLES", 1000);
  const size_t hardware = ThreadPool::DefaultThreadCount();
  reporter.AddMetric("samples_per_setting", static_cast<double>(samples));
  reporter.AddMetric("hardware_threads", static_cast<double>(hardware));
  std::cout << "=== Fig. 6: probability-estimation time per sample ("
            << samples << " samples per setting, " << hardware
            << " hardware threads) ===\n";
  TablePrinter table({"#Correspondences", "Time/sample (ms)", "Total (ms)",
                      "Par time/sample (ms)", "Par speedup",
                      "MeanInstanceSize"});
  // One walk scratch for every timed chain, re-sized on demand.
  WalkScratch scratch;
  for (size_t target : {128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    // Average over a few random-graph settings, as the paper does.
    double total_ms = 0.0;
    double parallel_ms = 0.0;
    double mean_size = 0.0;
    size_t settings = 0;
    for (uint64_t seed : {1u, 2u, 3u}) {
      bench::SyntheticNetwork synthetic =
          bench::BuildScalingNetwork(target, 0.5, seed);
      Sampler sampler(synthetic.network, synthetic.constraints);
      Feedback feedback(synthetic.network.correspondence_count());
      Rng rng(seed * 7919);
      std::vector<DynamicBitset> out;
      Stopwatch watch;
      if (!sampler.SampleChain(feedback, samples, &rng, &out, &scratch).ok()) {
        return 1;
      }
      total_ms += watch.ElapsedMillis();
      double setting_size = 0.0;
      for (const DynamicBitset& sample : out) {
        setting_size += static_cast<double>(sample.Count());
      }
      mean_size += setting_size / static_cast<double>(out.size());
      ++settings;

      // Same sample budget through the multi-chain engine, all hardware
      // threads (single- vs multi-thread throughput side by side).
      ParallelSamplerOptions parallel_options;
      parallel_options.num_chains = std::max<size_t>(4, hardware);
      ParallelSampler parallel(synthetic.network, synthetic.constraints,
                               parallel_options);
      Rng parallel_rng(seed * 7919);
      std::vector<DynamicBitset> parallel_out;
      Stopwatch parallel_watch;
      if (!parallel.SampleMerged(feedback, samples, &parallel_rng,
                                 &parallel_out)
               .ok()) {
        return 1;
      }
      parallel_ms += parallel_watch.ElapsedMillis();
    }
    const double per_sample =
        total_ms / static_cast<double>(settings) / static_cast<double>(samples);
    const double par_per_sample = parallel_ms / static_cast<double>(settings) /
                                  static_cast<double>(samples);
    const double speedup = parallel_ms > 0.0 ? total_ms / parallel_ms : 0.0;
    reporter.AddEntry(
        "c" + std::to_string(target), total_ms / settings,
        {{"correspondences", static_cast<double>(target)},
         {"per_sample_ms", per_sample},
         {"par_per_sample_ms", par_per_sample},
         {"parallel_speedup", speedup},
         {"mean_instance_size", mean_size / settings}});
    table.AddRow({std::to_string(target), FormatDouble(per_sample, 3),
                  FormatDouble(total_ms / settings, 1),
                  FormatDouble(par_per_sample, 3), FormatDouble(speedup, 2),
                  FormatDouble(mean_size / settings, 1)});
  }
  table.Print(std::cout);
  std::cout << "\nShape to check: time/sample grows roughly linearly in |C| "
               "and stays in the low-millisecond range (paper: ~2ms at "
               "4096); the parallel column should shrink it by roughly "
               "min(chains, hardware threads).\n";
  return reporter.Write() ? 0 : 1;
}

}  // namespace
}  // namespace smn

int main() { return smn::Run(); }
