// Multi-chain sampling throughput as a function of worker threads, plus the
// determinism guarantee check: for a fixed seed the merged sample stream must
// be bit-identical at every thread count. Chains are embarrassingly parallel,
// so on a machine with >= 4 hardware threads the 4-thread row should show
// near-linear (>= 2.5x) speedup over 1 thread; `hardware_threads` is recorded
// in the JSON so single-core container runs are interpretable.

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

/// Order-sensitive digest of a sample stream, for the determinism check.
uint64_t DigestSamples(const std::vector<DynamicBitset>& samples) {
  uint64_t digest = 0x9E3779B97F4A7C15ULL;
  for (const DynamicBitset& sample : samples) {
    digest ^= static_cast<uint64_t>(sample.Hash()) + 0x9E3779B97F4A7C15ULL +
              (digest << 6) + (digest >> 2);
  }
  return digest;
}

int Run() {
  bench::BenchReporter reporter("parallel_scaling");
  const size_t samples = bench::EnvSize("SMN_BENCH_SAMPLES", 2000);
  const size_t chains = bench::EnvSize("SMN_BENCH_CHAINS", 8);
  const size_t correspondences = bench::EnvSize("SMN_BENCH_CORRESPONDENCES", 1024);
  const size_t hardware = ThreadPool::DefaultThreadCount();
  reporter.AddMetric("samples", static_cast<double>(samples));
  reporter.AddMetric("chains", static_cast<double>(chains));
  reporter.AddMetric("correspondences", static_cast<double>(correspondences));
  reporter.AddMetric("hardware_threads", static_cast<double>(hardware));

  std::cout << "=== Parallel multi-chain sampling scaling (" << samples
            << " samples, " << chains << " chains, |C|=" << correspondences
            << ", " << hardware << " hardware threads) ===\n";

  bench::SyntheticNetwork synthetic =
      bench::BuildScalingNetwork(correspondences, 0.5, 1);
  Feedback feedback(synthetic.network.correspondence_count());

  // Serial single-chain reference: the pre-multi-chain engine.
  {
    Sampler serial(synthetic.network, synthetic.constraints);
    Rng rng(1234);
    std::vector<DynamicBitset> out;
    WalkScratch scratch;
    Stopwatch watch;
    if (!serial.SampleChain(feedback, samples, &rng, &out, &scratch).ok()) {
      return 1;
    }
    const double ms = watch.ElapsedMillis();
    reporter.AddEntry("serial_single_chain", ms,
                      {{"samples_per_sec", 1000.0 * samples / ms}});
  }

  TablePrinter table({"Threads", "Total (ms)", "Samples/s", "Speedup vs 1t",
                      "Deterministic"});
  double baseline_ms = 0.0;
  uint64_t baseline_digest = 0;
  double speedup_at_4t = 0.0;
  bool deterministic = true;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelSamplerOptions options;
    options.num_chains = chains;
    options.num_threads = threads;
    ParallelSampler sampler(synthetic.network, synthetic.constraints, options);
    Rng rng(1234);
    std::vector<DynamicBitset> out;
    Stopwatch watch;
    if (!sampler.SampleMerged(feedback, samples, &rng, &out).ok()) return 1;
    const double ms = watch.ElapsedMillis();
    if (out.size() != samples) return 1;

    const uint64_t digest = DigestSamples(out);
    if (threads == 1) {
      baseline_ms = ms;
      baseline_digest = digest;
    }
    const bool matches = digest == baseline_digest;
    deterministic = deterministic && matches;
    const double speedup = baseline_ms / ms;
    if (threads == 4) speedup_at_4t = speedup;
    reporter.AddEntry("t" + std::to_string(threads), ms,
                      {{"threads", static_cast<double>(threads)},
                       {"samples_per_sec", 1000.0 * samples / ms},
                       {"speedup_vs_1t", speedup},
                       {"determinism_ok", matches ? 1.0 : 0.0}});
    table.AddRow({std::to_string(threads), FormatDouble(ms, 1),
                  FormatDouble(1000.0 * samples / ms, 0),
                  FormatDouble(speedup, 2), matches ? "yes" : "NO"});
  }
  reporter.AddMetric("speedup_at_4t", speedup_at_4t);
  reporter.AddMetric("determinism_ok", deterministic ? 1.0 : 0.0);
  table.Print(std::cout);
  if (hardware < 4) {
    // The regression gate reads hardware_threads from the JSON and
    // downgrades scaling failures on such runners to warnings
    // (check_bench_regress.py --warn-underprovisioned speedup_at_4t=4).
    std::cout << "\nWARNING: only " << hardware
              << " hardware thread(s); the 4-thread speedup row measures the "
                 "runner, not the engine, and is excluded from hard "
                 "regression gating.\n";
  }
  std::cout << "\nShape to check: identical digests at every thread count "
               "(the merge is chain-major and scheduling-independent), and "
               "speedup approaching min(threads, chains, hardware) — on a "
            << hardware
            << "-thread host the 4-thread row tops out near min(4, "
            << hardware << ").\n";
  // Write first: on a determinism regression the per-entry determinism_ok
  // digests are exactly the diagnostic a reader needs.
  const bool wrote = reporter.Write();
  if (!deterministic) return 1;
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace smn

int main() { return smn::Run(); }
