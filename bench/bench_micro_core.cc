// Google-benchmark microbenchmarks of the engine hot paths: the repair of a
// single addition (Algorithm 4 + closure), one random-walk transition through
// the compiled walk kernel, full sample-chain draws, information-gain
// computation over the sample matrix, and the instantiation local search
// (Algorithm 2). A global allocation counter (operator new/delete overrides
// below) feeds the allocs_per_step / allocs_per_sample counters, so the
// kernel's zero-allocation steady state is recorded in the JSON trajectory
// alongside the timings.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench/bench_util.h"
#include "bench/synthetic_networks.h"
#include "core/feedback.h"
#include "core/instantiation.h"
#include "core/probabilistic_network.h"
#include "core/repair.h"
#include "core/sampler.h"
#include "core/walk_scratch.h"

namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

// The replacement operators intentionally pair malloc/free; GCC's
// -Wmismatched-new-delete heuristic cannot see through the global
// replacement and misfires at inlined call sites in this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace smn {
namespace {

uint64_t AllocationCount() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

void BM_RepairSingleAddition(benchmark::State& state) {
  const size_t candidates = static_cast<size_t>(state.range(0));
  bench::SyntheticNetwork synthetic =
      bench::BuildScalingNetwork(candidates, 0.5, 42);
  Feedback feedback(synthetic.network.correspondence_count());
  Sampler sampler(synthetic.network, synthetic.constraints);
  Rng rng(7);
  // Start from a representative mid-walk state.
  const size_t n = synthetic.network.correspondence_count();
  WalkScratch scratch(n);
  std::vector<DynamicBitset> seed_samples;
  sampler.SampleChain(feedback, 1, &rng, &seed_samples, &scratch).ok();
  const DynamicBitset base = seed_samples.front();

  DynamicBitset instance = base;  // Equal-size buffer: assignment reuses it.
  for (auto _ : state) {
    instance = base;
    const CorrespondenceId added = static_cast<CorrespondenceId>(rng.Index(n));
    benchmark::DoNotOptimize(RepairInstance(synthetic.constraints, feedback,
                                            added, &instance, &scratch));
  }
}
BENCHMARK(BM_RepairSingleAddition)->Arg(128)->Arg(512)->Arg(1024)->Arg(2048);

void BM_SamplerWalkStep(benchmark::State& state) {
  const size_t candidates = static_cast<size_t>(state.range(0));
  bench::SyntheticNetwork synthetic =
      bench::BuildScalingNetwork(candidates, 0.5, 43);
  Feedback feedback(synthetic.network.correspondence_count());
  Sampler sampler(synthetic.network, synthetic.constraints);
  Rng rng(11);
  const size_t n = synthetic.network.correspondence_count();
  WalkScratch scratch(n);
  DynamicBitset current(n);
  for (auto _ : state) {
    // Step is an external call mutating `current` through a pointer — the
    // work cannot be elided, so no per-iteration DoNotOptimize overhead.
    sampler.Step(feedback, &rng, &current, &scratch).ok();
  }
  benchmark::DoNotOptimize(current);
  // Steady-state allocation probe, outside the timed loop: the kernel claim
  // is zero allocations per transition once the scratch is warm.
  constexpr size_t kProbeSteps = 4096;
  const uint64_t before = AllocationCount();
  for (size_t i = 0; i < kProbeSteps; ++i) {
    sampler.Step(feedback, &rng, &current, &scratch).ok();
  }
  state.counters["allocs_per_step"] =
      static_cast<double>(AllocationCount() - before) /
      static_cast<double>(kProbeSteps);
}
BENCHMARK(BM_SamplerWalkStep)->Arg(128)->Arg(512)->Arg(1024)->Arg(2048);

void BM_SampleChain(benchmark::State& state) {
  const size_t candidates = static_cast<size_t>(state.range(0));
  bench::SyntheticNetwork synthetic =
      bench::BuildScalingNetwork(candidates, 0.5, 44);
  Feedback feedback(synthetic.network.correspondence_count());
  Sampler sampler(synthetic.network, synthetic.constraints);
  Rng rng(13);
  constexpr size_t kSamplesPerDraw = 10;
  // One scratch held across the timed draws and the allocation probe.
  WalkScratch scratch(synthetic.network.correspondence_count());
  for (auto _ : state) {
    std::vector<DynamicBitset> out;
    sampler.SampleChain(feedback, kSamplesPerDraw, &rng, &out, &scratch).ok();
    benchmark::DoNotOptimize(out);
  }
  // Per-sample allocations for a warm chain draw (emitted sample copies and
  // the output vector dominate; the walk steps themselves are free).
  constexpr size_t kProbeDraws = 16;
  std::vector<DynamicBitset> probe_out;
  probe_out.reserve(kProbeDraws * kSamplesPerDraw);
  const uint64_t before = AllocationCount();
  for (size_t i = 0; i < kProbeDraws; ++i) {
    sampler.SampleChain(feedback, kSamplesPerDraw, &rng, &probe_out, &scratch)
        .ok();
  }
  state.counters["allocs_per_sample"] =
      static_cast<double>(AllocationCount() - before) /
      static_cast<double>(kProbeDraws * kSamplesPerDraw);
}
BENCHMARK(BM_SampleChain)->Arg(128)->Arg(512)->Arg(1024);

void BM_InformationGains(benchmark::State& state) {
  const size_t candidates = static_cast<size_t>(state.range(0));
  bench::SyntheticNetwork synthetic =
      bench::BuildScalingNetwork(candidates, 0.5, 45);
  ProbabilisticNetworkOptions options;
  options.store.target_samples = 500;
  options.store.min_samples = 100;
  Rng rng(17);
  auto pmn = ProbabilisticNetwork::Create(synthetic.network,
                                          synthetic.constraints, options, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmn->InformationGains());
  }
}
BENCHMARK(BM_InformationGains)->Arg(128)->Arg(512);

void BM_Instantiate(benchmark::State& state) {
  const size_t candidates = static_cast<size_t>(state.range(0));
  bench::SyntheticNetwork synthetic =
      bench::BuildScalingNetwork(candidates, 0.5, 46);
  ProbabilisticNetworkOptions options;
  options.store.target_samples = 300;
  options.store.min_samples = 50;
  Rng rng(19);
  auto pmn = ProbabilisticNetwork::Create(synthetic.network,
                                          synthetic.constraints, options, &rng);
  InstantiationOptions instantiation;
  instantiation.iterations = 100;
  const Instantiator instantiator(instantiation);
  for (auto _ : state) {
    benchmark::DoNotOptimize(instantiator.Instantiate(*pmn, &rng));
  }
}
BENCHMARK(BM_Instantiate)->Arg(128)->Arg(512);

/// Console reporter that additionally records every benchmark case into the
/// JSON trajectory (BENCH_micro_core.json) next to the usual table output.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(bench::BenchReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Skip aggregates and errored/skipped runs (zero iterations). Checked
      // via iterations rather than Run::error_occurred, which was replaced
      // by the Skipped enum in google-benchmark 1.8.
      if (run.run_type == Run::RT_Aggregate || run.iterations <= 0) continue;
      const double iterations = static_cast<double>(run.iterations);
      const double real_ms = run.real_accumulated_time * 1e3;
      const double cpu_ms = run.cpu_accumulated_time * 1e3;
      bench::BenchReporter::Fields fields = {
          {"iterations", iterations},
          {"real_ms_per_iter", real_ms / iterations},
          {"cpu_ms_per_iter", cpu_ms / iterations}};
      // User counters (e.g. allocs_per_step) ride along into the JSON.
      for (const auto& [name, counter] : run.counters) {
        fields.emplace_back(name, static_cast<double>(counter.value));
      }
      out_->AddEntry(run.benchmark_name(), real_ms, std::move(fields));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReporter* out_;
};

}  // namespace
}  // namespace smn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  smn::bench::BenchReporter reporter("micro_core");
  smn::JsonCapturingReporter display(&reporter);
  const size_t executed = benchmark::RunSpecifiedBenchmarks(&display);
  reporter.AddMetric("benchmarks_executed", static_cast<double>(executed));
  benchmark::Shutdown();
  return reporter.Write() ? 0 : 1;
}
