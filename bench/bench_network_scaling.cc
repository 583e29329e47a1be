// Network-scaling bench: the reconciliation engine on clustered networks of
// growing size (streamed generator, 8 candidates per cluster), one session
// per size driven by a fixed assertion script. Reports, per size, session
// create time, assert throughput and snapshot latency, plus fitted growth
// exponents across the ladder and two hard correctness bits:
//   digest_ok      — at every size the streaming generator's arithmetic
//                    digest matches the materialized Network, so the
//                    O(cluster)-memory stream and the in-memory builder
//                    define the same network;
//   determinism_ok — a second session over the same artifact and seed with
//                    a single sampling thread reproduces every round digest
//                    (marginals, uncertainty, exhausted flag) and the final
//                    gains digest bit for bit.
//
// Knobs: SMN_BENCH_SCALE (default 0.5) scales the cluster ladder
// {8192, 16384, 32768} — 32,768 to 131,072 correspondences at the default
// — and SMN_BENCH_ROUNDS (default 32) sets the asserts per session.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "constraints/cycle.h"
#include "constraints/one_to_one.h"
#include "core/compiled_artifact.h"
#include "core/constraint_set.h"
#include "core/probabilistic_network.h"
#include "datasets/clustered_stream.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace smn {
namespace {

using datasets::ClusteredStreamSpec;
using datasets::NetworkDigest;

/// The deterministic assertion script: round r scans for the first
/// still-uncertain correspondence at or after a rotating offset (wrapping),
/// approving when its marginal already leans in. The rotation spreads the
/// asserts across the id space instead of draining cluster 0.
struct Pick {
  CorrespondenceId c = kInvalidCorrespondence;
  bool approved = false;
  bool found = false;
};

Pick PickAtOffset(const std::vector<double>& probabilities, size_t offset) {
  Pick pick;
  const size_t n = probabilities.size();
  for (size_t i = 0; i < n; ++i) {
    const CorrespondenceId c = static_cast<CorrespondenceId>((offset + i) % n);
    const double p = probabilities[c];
    if (p > 0.0 && p < 1.0) {
      pick.c = c;
      pick.approved = p >= 0.5;
      pick.found = true;
      return pick;
    }
  }
  return pick;
}

/// Digest of one round's full derived state: every marginal's bit pattern,
/// the network uncertainty, and the exhausted flag. Two runs are
/// bit-identical iff their round digests all match.
uint64_t RoundDigest(const std::vector<double>& probabilities,
                     double uncertainty, bool exhausted) {
  NetworkDigest digest;
  for (const double p : probabilities) digest.MixDouble(p);
  digest.MixDouble(uncertainty);
  digest.Mix(exhausted ? 1 : 0);
  return digest.value();
}

uint64_t GainsDigest(const std::vector<double>& gains) {
  NetworkDigest digest;
  for (const double g : gains) digest.MixDouble(g);
  return digest.value();
}

/// One session driven through the script: one digest per round (taken from
/// a snapshot before each assert, plus one after the last) and the final
/// gains digest, with the create, assert and snapshot timings.
struct Trace {
  std::vector<uint64_t> round_digests;
  uint64_t gains_digest = 0;
  double create_ms = 0.0;
  double assert_ms = 0.0;
  double snapshot_ms = 0.0;
  size_t asserts = 0;
  bool ok = false;
};

Trace RunSession(const std::shared_ptr<const CompiledArtifact>& artifact,
                 const ProbabilisticNetworkOptions& options, uint64_t seed,
                 size_t rounds) {
  Trace trace;
  Rng rng(seed);
  Stopwatch create_watch;
  StatusOr<ProbabilisticNetwork> created =
      ProbabilisticNetwork::Create(artifact, options, &rng);
  trace.create_ms = create_watch.ElapsedMillis();
  if (!created.ok()) {
    std::cerr << "create failed: " << created.status().message() << "\n";
    return trace;
  }
  ProbabilisticNetwork& pmn = created.value();
  const size_t n = artifact->network().correspondence_count();
  for (size_t round = 0;; ++round) {
    // The snapshot a session hands out: a copy of the marginals plus the
    // uncertainty and the exhausted flag.
    Stopwatch snapshot_watch;
    const std::vector<double> probabilities = pmn.probabilities();
    const double uncertainty = pmn.Uncertainty();
    const bool exhausted = pmn.exhausted();
    trace.snapshot_ms += snapshot_watch.ElapsedMillis();
    trace.round_digests.push_back(
        RoundDigest(probabilities, uncertainty, exhausted));
    if (round == rounds) break;
    const Pick pick = PickAtOffset(probabilities, round * n / rounds);
    if (!pick.found) break;
    Stopwatch assert_watch;
    const Status status = pmn.Assert(pick.c, pick.approved, &rng);
    trace.assert_ms += assert_watch.ElapsedMillis();
    ++trace.asserts;
    if (!status.ok()) {
      std::cerr << "assert failed: " << status.message() << "\n";
      return trace;
    }
  }
  trace.gains_digest = GainsDigest(pmn.InformationGains());
  trace.ok = true;
  return trace;
}

/// Least-squares slope of log(cost) over log(size): the growth exponent
/// (1 = linear, 0 = flat). NaN when fewer than two usable points.
double GrowthExponent(const std::vector<double>& sizes,
                      const std::vector<double>& costs) {
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  size_t points = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] <= 0.0 || costs[i] <= 0.0) continue;
    const double x = std::log(sizes[i]);
    const double y = std::log(costs[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++points;
  }
  const double k = static_cast<double>(points);
  const double denominator = k * sxx - sx * sx;
  if (points < 2 || denominator == 0.0) return std::nan("");
  return (k * sxy - sx * sy) / denominator;
}

std::string Hex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

int Run() {
  bench::BenchReporter reporter("network_scaling");
  const double scale = bench::Scale();
  const size_t rounds =
      std::max<size_t>(1, bench::EnvSize("SMN_BENCH_ROUNDS", 32));
  const size_t hardware = ThreadPool::DefaultThreadCount();
  const uint64_t session_seed = 1000;

  std::cout << "=== Network scaling (scale " << FormatDouble(scale, 3) << ", "
            << rounds << " rounds, " << hardware
            << " hardware threads) ===\n";

  TablePrinter table({"Correspondences", "Components", "Create (ms)",
                      "Asserts/s", "Snapshot (ms)", "Trace digest",
                      "Deterministic"});
  bool digest_ok = true;
  bool determinism_ok = true;
  std::vector<double> sizes, create_costs, assert_costs;
  for (const size_t base_clusters : {8192, 16384, 32768}) {
    Stopwatch size_watch;
    ClusteredStreamSpec spec;
    spec.clusters = std::max<size_t>(
        8, static_cast<size_t>(std::llround(scale * base_clusters)));
    spec.candidates_per_cluster = 8;
    spec.seed = 11;

    // Streaming-generator gate: the digest computed arithmetically from the
    // stream must equal the digest of the materialized Network the bench
    // reconciles.
    const uint64_t stream_digest = datasets::DigestClusteredStream(spec);
    StatusOr<Network> network = datasets::MaterializeClusteredStream(spec);
    if (!network.ok()) {
      std::cerr << "materialize failed: " << network.status().message()
                << "\n";
      return 1;
    }
    digest_ok = digest_ok &&
                stream_digest == datasets::DigestNetwork(network.value());

    auto constraints = std::make_unique<ConstraintSet>();
    constraints->Add(std::make_unique<OneToOneConstraint>());
    constraints->Add(std::make_unique<CycleConstraint>());
    const Status compiled = constraints->Compile(network.value());
    if (!compiled.ok()) {
      std::cerr << "constraint compile failed: " << compiled.message() << "\n";
      return 1;
    }
    StatusOr<std::shared_ptr<const CompiledArtifact>> artifact =
        CompiledArtifact::TakeOwnership(
            std::make_unique<const Network>(std::move(network).value()),
            std::move(constraints));
    if (!artifact.ok()) {
      std::cerr << "artifact build failed: " << artifact.status().message()
                << "\n";
      return 1;
    }
    const size_t correspondences =
        artifact.value()->network().correspondence_count();
    const size_t components =
        artifact.value()->initial_index().component_count();

    const Trace measured = RunSession(
        artifact.value(), ProbabilisticNetworkOptions{}, session_seed, rounds);
    ProbabilisticNetworkOptions single_thread;
    single_thread.store.sampling.num_threads = 1;
    const Trace replay =
        RunSession(artifact.value(), single_thread, session_seed, rounds);
    if (!measured.ok || !replay.ok) return 1;
    const bool deterministic =
        measured.round_digests == replay.round_digests &&
        measured.gains_digest == replay.gains_digest;
    determinism_ok = determinism_ok && deterministic;

    NetworkDigest trace_digest;
    for (const uint64_t d : measured.round_digests) trace_digest.Mix(d);
    trace_digest.Mix(measured.gains_digest);
    const double asserts_per_sec =
        measured.assert_ms > 0.0
            ? 1000.0 * static_cast<double>(measured.asserts) /
                  measured.assert_ms
            : 0.0;
    const double snapshot_avg_ms =
        measured.snapshot_ms /
        static_cast<double>(measured.round_digests.size());
    reporter.AddEntry("size/" + std::to_string(correspondences),
                      size_watch.ElapsedMillis(),
                      {{"create_ms", measured.create_ms},
                       {"asserts_per_sec", asserts_per_sec},
                       {"snapshot_avg_ms", snapshot_avg_ms}});
    table.AddRow({std::to_string(correspondences), std::to_string(components),
                  FormatDouble(measured.create_ms, 0),
                  FormatDouble(asserts_per_sec, 1),
                  FormatDouble(snapshot_avg_ms, 3),
                  Hex(trace_digest.value()), deterministic ? "yes" : "NO"});
    sizes.push_back(static_cast<double>(correspondences));
    create_costs.push_back(measured.create_ms);
    assert_costs.push_back(measured.asserts > 0
                               ? measured.assert_ms /
                                     static_cast<double>(measured.asserts)
                               : 0.0);
  }

  reporter.AddMetric("rounds", static_cast<double>(rounds));
  reporter.AddMetric("hardware_threads", static_cast<double>(hardware));
  reporter.AddMetric("create_growth_exponent",
                     GrowthExponent(sizes, create_costs));
  reporter.AddMetric("assert_growth_exponent",
                     GrowthExponent(sizes, assert_costs));
  reporter.AddMetric("digest_ok", digest_ok ? 1.0 : 0.0);
  reporter.AddMetric("determinism_ok", determinism_ok ? 1.0 : 0.0);

  table.Print(std::cout);
  std::cout << "\ngrowth exponents: create "
            << FormatDouble(GrowthExponent(sizes, create_costs), 2)
            << ", per assert "
            << FormatDouble(GrowthExponent(sizes, assert_costs), 2)
            << "\nstream digests " << (digest_ok ? "match" : "MISMATCH")
            << "\n";
  if (hardware < 4) {
    // Throughput on an underprovisioned host measures the host, not the
    // engine; the regression gate demotes the rate fields to warnings
    // (check_bench_regress.py --warn-underprovisioned ...=4) while
    // determinism_ok and digest_ok stay hard everywhere.
    std::cout << "\nWARNING: only " << hardware
              << " hardware thread(s); throughput rows measure the runner "
                 "and are excluded from hard regression gating.\n";
  }
  std::cout << "\nShape to check: determinism_ok = 1 and digest_ok = 1 "
               "unconditionally; per-assert cost close to flat across sizes "
               "(growth exponent near 0), create close to linear.\n";
  const bool wrote = reporter.Write();
  if (!digest_ok || !determinism_ok) return 1;
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace smn

int main() { return smn::Run(); }
