#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "constraints/cycle.h"
#include "constraints/one_to_one.h"
#include "core/compiled_artifact.h"
#include "core/constraint_set.h"
#include "core/probabilistic_network.h"
#include "core/repair.h"
#include "core/selection_strategy.h"
#include "datasets/clustered_stream.h"
#include "datasets/random_graph.h"
#include "datasets/standard.h"
#include "matchers/coma_like.h"
#include "matchers/matching_system.h"
#include "server/reconcile_service.h"
#include "server/session_journal.h"
#include "sim/experiment.h"
#include "sim/oracle.h"

namespace perfbench {
namespace {

using smn::CompiledArtifact;
using smn::ConstraintSet;
using smn::CorrespondenceId;
using smn::DynamicBitset;
using smn::Network;
using smn::ProbabilisticNetwork;
using smn::ProbabilisticNetworkOptions;
using smn::Rng;
using smn::Status;
using smn::StatusOr;
using smn::StrategyKind;
using smn::server::ReconcileService;
using smn::server::ServerOptions;
using smn::server::SessionId;
using smn::server::SessionSnapshot;
using smn::server::TenantId;

// ---------------------------------------------------------------------------
// Workload parameters. Frozen: a later change to any of these is a change of
// the benchmark, not of the program.

/// Sessions every untraced measured pass runs at least (so every p90 rests
/// on at least 100 open samples), and the sessions uncertainty_left averages.
constexpr size_t kFloorSessions = 100;
/// Set-ups per untraced pass: at least kSetupMinRepeats, and more while
/// they take under kSetupMinSeconds in total (a cheap set-up is noisy), up
/// to kSetupMaxRepeats. setup_s is their median.
constexpr int kSetupMinRepeats = 3;
constexpr int kSetupMaxRepeats = 30;
constexpr double kSetupMinSeconds = 1.0;
/// Recovery by replay (expert_loop, cold_start): after every kReplayEvery-th
/// session, rebuild the first kReplaySessions sessions; recover_s is the
/// median over the run.
constexpr size_t kReplayEvery = 10;
constexpr size_t kReplaySessions = 2;

/// expert_loop: the PO-like dataset is one fixed input, like the paper's
/// real PO dataset (generation seed 6 gives about 2.1k candidates in about
/// 290 components); the workload seed drives the sessions.
constexpr uint64_t kPoDatasetSeed = 6;
/// expert_loop: question cycles per expert session.
constexpr size_t kExpertCycles = 8;

/// cold_start: the wide clustered network (about 32k candidates).
constexpr size_t kColdClusters = 4096;
constexpr size_t kColdPerCluster = 8;
/// cold_start: scripted asserts per session.
constexpr size_t kColdAsserts = 3;

/// durable_crowd: the mid-size clustered tenant (about 4k candidates).
constexpr size_t kCrowdClusters = 512;
constexpr size_t kCrowdPerCluster = 8;
/// durable_crowd: live sessions the crowd answers into.
constexpr size_t kCrowdSessions = 32;
/// durable_crowd: experts joining while the crowd writes: open + close of a
/// fresh journaled session, due at evenly spaced times over the load.
constexpr size_t kCrowdJoins = 100;
/// durable_crowd: the load runs in rounds, each ended by a crash and
/// kCrowdRecoversPerRound timed Recover() runs (one in a traced run);
/// recover_s is their median.
constexpr size_t kCrowdRounds = 5;
constexpr int kCrowdRecoversPerRound = 2;
/// durable_crowd: aggregate open-loop assert rate, requests per second.
/// Frozen well below saturation on a 4-thread host (see README.md).
constexpr double kCrowdRate = 100.0;
/// durable_crowd: the service's admission bound and request deadline.
constexpr size_t kCrowdQueueDepth = 64;
constexpr double kCrowdDeadlineMs = 5000.0;
/// durable_crowd traced pass: sessions replayed through the single layers.
constexpr size_t kCrowdShadowSessions = 8;

// ---------------------------------------------------------------------------

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The RNG seed of the session with script ordinal `ordinal`.
uint64_t SessionSeed(uint64_t seed, size_t ordinal) {
  return Mix(seed, 1000 + ordinal);
}

/// Bit-exact digest of a session state: every marginal and H(C, P).
uint64_t DigestState(const std::vector<double>& probabilities,
                     double uncertainty) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  auto mix = [&hash](double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    hash ^= bits;
    hash *= 0x100000001B3ULL;
  };
  for (double p : probabilities) mix(p);
  mix(uncertainty);
  return hash;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB.
    }
  }
  return 0.0;
}

double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// Sleeps, then spins the last 200 µs, until NowNs() reaches `due_ns`.
void SleepUntil(int64_t due_ns) {
  while (NowNs() < due_ns - 200000) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  while (NowNs() < due_ns) {
  }
}

/// Runs sessions by ordinal on `clients` threads: each thread takes the next
/// ordinal and runs `fn(ordinal)` until `seconds` have passed and at least
/// `floor` sessions have started. The ordinals run are always a prefix.
template <typename Fn>
double RunSessions(size_t clients, double seconds, size_t floor, Fn fn) {
  std::atomic<size_t> next{0};
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t ordinal = next.fetch_add(1);
        if (NowNs() >= deadline && ordinal >= floor) return;
        fn(ordinal);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Seconds(start, NowNs());
}

/// One op attempted; `ok` false counts it failed.
void CountOp(Recorder* rec, bool ok) {
  rec->Count("attempted");
  if (!ok) rec->Count("failed");
}

/// One session's script outcome, kept for the checks.
struct SessionResult {
  std::vector<std::pair<CorrespondenceId, bool>> answers;
  std::vector<double> probabilities;  // Final marginals (ordinal 0 only).
  uint64_t digest = 0;
};

class Results {
 public:
  void Put(size_t ordinal, SessionResult result) {
    std::lock_guard<std::mutex> lock(mu_);
    results_[ordinal] = std::move(result);
  }
  std::optional<SessionResult> Get(size_t ordinal) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = results_.find(ordinal);
    if (it == results_.end()) return std::nullopt;
    return it->second;
  }
  std::map<size_t, SessionResult> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(results_);
  }

 private:
  mutable std::mutex mu_;
  std::map<size_t, SessionResult> results_;
};

void RecordComponents(const ProbabilisticNetwork& pmn, Recorder* rec) {
  size_t exhausted = 0;
  for (size_t i = 0; i < pmn.component_count(); ++i) {
    if (pmn.ComponentExhausted(i)) ++exhausted;
  }
  rec->Sample("core.components", static_cast<double>(pmn.component_count()));
  rec->Sample("core.exact_share",
              pmn.component_count() == 0
                  ? 1.0
                  : static_cast<double>(exhausted) /
                        static_cast<double>(pmn.component_count()));
}

/// Drives a fresh batch network with `seed` through `answers` and compares
/// it bit for bit with `expected` (the service's final marginals).
void CheckBatchEquivalence(const std::shared_ptr<const CompiledArtifact>& art,
                           uint64_t seed, const SessionResult& result,
                           const std::string& name, RunReport* report) {
  Rng rng(seed);
  StatusOr<ProbabilisticNetwork> pmn =
      ProbabilisticNetwork::Create(art, ProbabilisticNetworkOptions{}, &rng);
  if (!pmn.ok()) {
    report->AddCheck(name, false, "batch create failed");
    return;
  }
  for (const auto& [c, approved] : result.answers) {
    if (!pmn->Assert(c, approved, &rng).ok()) {
      report->AddCheck(name, false, "batch assert rejected");
      return;
    }
  }
  const bool equal = pmn->probabilities() == result.probabilities &&
                     DigestState(pmn->probabilities(), pmn->Uncertainty()) ==
                         result.digest;
  report->AddCheck(name, equal,
                   std::to_string(result.answers.size()) + " asserts");
}

/// Recovery by replay for the unjournaled workloads: after every
/// kReplayEvery-th session, the client that ran it rebuilds sessions
/// 0..kReplaySessions-1 by reopening each with its seed and re-asserting its
/// answers, one after another (as Recover() replays journals), and checks
/// each rebuilt session bit for bit against its original. Interleaving the
/// replays with the load samples them over the whole run, like every other
/// latency.
void MaybeReplay(ReconcileService* service, TenantId tenant, uint64_t seed,
                 size_t ordinal, const Results& results, Recorder* rec) {
  if ((ordinal + 1) % kReplayEvery != 0) return;
  std::vector<SessionResult> originals;
  for (size_t o = 0; o < kReplaySessions; ++o) {
    std::optional<SessionResult> result = results.Get(o);
    if (!result.has_value()) return;  // Still running on another client.
    originals.push_back(std::move(*result));
  }
  // One rebuilt session alive at a time, so the replay never raises the
  // number of live sessions (and with it peak_rss_mb) above the clients'.
  bool equal = true;
  double seconds = 0.0;
  for (size_t o = 0; o < originals.size(); ++o) {
    const int64_t start = NowNs();
    StatusOr<SessionId> id = service->OpenSession(tenant, SessionSeed(seed, o));
    CountOp(rec, id.ok());
    if (!id.ok()) {
      equal = false;
      continue;
    }
    for (const auto& [c, approved] : originals[o].answers) {
      CountOp(rec, service->Assert(*id, c, approved).ok());
    }
    seconds += Seconds(start, NowNs());
    StatusOr<SessionSnapshot> snap = service->Snapshot(*id);
    if (!snap.ok() || DigestState(snap->probabilities, snap->uncertainty) !=
                          originals[o].digest) {
      equal = false;
    }
    CountOp(rec, service->Close(*id).ok());
  }
  rec->Sample("recover_s", seconds);
  rec->Count("replays");
  if (!equal) rec->Count("replay_mismatches");
}

void CheckReplays(const Recorder& rec, RunReport* report) {
  report->AddCheck("replayed_sessions_equal",
                   rec.counter("replays") > 0 &&
                       rec.counter("replay_mismatches") == 0,
                   std::to_string(static_cast<uint64_t>(rec.counter("replays"))) +
                       " replays of " + std::to_string(kReplaySessions) +
                       " sessions");
}

/// Traced and untraced passes ran the same scripts: every ordinal both ran
/// must end in the same bits.
void CheckTracedEqualsUntraced(RunReport* report) {
  const std::map<uint64_t, uint64_t> a = report->untraced.digests();
  const std::map<uint64_t, uint64_t> b = report->traced.digests();
  size_t common = 0;
  size_t mismatched = 0;
  for (const auto& [ordinal, digest] : a) {
    auto it = b.find(ordinal);
    if (it == b.end()) continue;
    ++common;
    if (it->second != digest) ++mismatched;
  }
  report->AddCheck("traced_marginals_equal_untraced",
                   common > 0 && mismatched == 0,
                   std::to_string(common) + " sessions compared, " +
                       std::to_string(mismatched) + " differ");
}

// ---------------------------------------------------------------------------
// Tenants.

std::unique_ptr<ConstraintSet> PaperConstraints() {
  auto constraints = std::make_unique<ConstraintSet>();
  constraints->Add(std::make_unique<smn::OneToOneConstraint>());
  constraints->Add(std::make_unique<smn::CycleConstraint>());
  return constraints;
}

/// A registered PO-like tenant and its expert ground truth.
struct PoTenant {
  std::unique_ptr<ReconcileService> service;
  TenantId tenant = 0;
  std::shared_ptr<const CompiledArtifact> artifact;
  DynamicBitset truth;
};

/// generate + match + compile + RegisterTenant. Untraced it is the public
/// BuildExperimentSetup; traced it runs the same steps one layer at a time
/// (same RNG stream, so the same network) to time each.
StatusOr<PoTenant> SetupPo(bool traced) {
  PoTenant out;
  out.service = std::make_unique<ReconcileService>(ServerOptions{});
  const smn::StandardDataset po = smn::MakePoDataset();
  Rng rng(kPoDatasetSeed);
  std::unique_ptr<Network> network;
  std::unique_ptr<ConstraintSet> constraints;
  if (!traced) {
    SMN_ASSIGN_OR_RETURN(
        smn::ExperimentSetup setup,
        smn::BuildExperimentSetup(po.config, po.vocabulary,
                                  smn::MatcherKind::kComaLike, &rng));
    out.truth = std::move(setup.oracle_truth);
    network = std::make_unique<Network>(std::move(setup.network));
    constraints = std::make_unique<ConstraintSet>(std::move(setup.constraints));
  } else {
    ScopedSpan root("setup");
    std::optional<smn::GeneratedDataset> dataset;
    {
      ScopedSpan span("datasets.generate");
      SMN_ASSIGN_OR_RETURN(dataset,
                           smn::GenerateDataset(po.config, po.vocabulary, &rng));
    }
    const smn::InteractionGraph graph =
        smn::CompleteGraph(po.config.schema_count);
    {
      ScopedSpan span("matchers.match");
      const smn::MatchingSystem system = smn::MakeComaLikeSystem();
      const auto candidates = system.Run(dataset->schemas, graph);
      SMN_ASSIGN_OR_RETURN(Network built, smn::BuildNetworkFromCandidates(
                                              dataset->schemas, graph,
                                              candidates));
      network = std::make_unique<Network>(std::move(built));
    }
    constraints = PaperConstraints();
    {
      ScopedSpan span("constraints.compile");
      SMN_RETURN_IF_ERROR(constraints->Compile(*network));
    }
    {
      // The expert's answers: the constraint-consistent core of the
      // concept-equality truth, as BuildExperimentSetup derives it.
      ScopedSpan span("sim.truth");
      DynamicBitset truth(network->correspondence_count());
      for (const smn::Correspondence& c : network->correspondences()) {
        const smn::Attribute& left = network->attribute(c.left);
        const smn::Attribute& right = network->attribute(c.right);
        const uint32_t lc =
            dataset->concepts[left.schema]
                             [c.left -
                              network->schema(left.schema).attributes()[0]];
        const uint32_t rc =
            dataset->concepts[right.schema]
                             [c.right -
                              network->schema(right.schema).attributes()[0]];
        if (lc == rc) truth.Set(c.id);
      }
      smn::Feedback none(network->correspondence_count());
      SMN_RETURN_IF_ERROR(smn::RepairAll(*constraints, none, &truth));
      out.truth = std::move(truth);
    }
  }
  {
    ScopedSpan span("core.artifact");
    SMN_ASSIGN_OR_RETURN(out.tenant,
                         out.service->RegisterTenant("po", std::move(network),
                                                     std::move(constraints)));
  }
  SMN_ASSIGN_OR_RETURN(out.artifact, out.service->TenantArtifact(out.tenant));
  return out;
}

smn::datasets::ClusteredStreamSpec ClusteredSpec(uint64_t seed, size_t clusters,
                                                 size_t per_cluster) {
  smn::datasets::ClusteredStreamSpec spec;
  spec.clusters = clusters;
  spec.candidates_per_cluster = per_cluster;
  spec.seed = seed;
  return spec;
}

/// generate + compile + RegisterTenant for a clustered network.
StatusOr<TenantId> RegisterClustered(
    ReconcileService* service,
    const smn::datasets::ClusteredStreamSpec& spec) {
  ScopedSpan root("setup");
  std::unique_ptr<Network> network;
  {
    ScopedSpan span("datasets.generate");
    SMN_ASSIGN_OR_RETURN(Network built,
                         smn::datasets::MaterializeClusteredStream(spec));
    network = std::make_unique<Network>(std::move(built));
  }
  std::unique_ptr<ConstraintSet> constraints = PaperConstraints();
  {
    ScopedSpan span("constraints.compile");
    SMN_RETURN_IF_ERROR(constraints->Compile(*network));
  }
  ScopedSpan span("core.artifact");
  return service->RegisterTenant("clustered", std::move(network),
                                 std::move(constraints));
}

/// Runs `setup` as often as the set-up rule above asks (once when `repeats`
/// is false), records setup_s per run, and keeps the last result.
template <typename T, typename Fn>
StatusOr<T> RepeatSetup(bool repeats, Recorder* rec, Fn setup) {
  std::optional<T> last;
  double total = 0.0;
  for (int i = 0; i < (repeats ? kSetupMaxRepeats : 1); ++i) {
    if (i >= kSetupMinRepeats && total >= kSetupMinSeconds) break;
    last.reset();
    const int64_t start = NowNs();
    StatusOr<T> built = setup();
    const int64_t end = NowNs();
    if (!built.ok()) return built.status();
    rec->Sample("setup_s", Seconds(start, end));
    total += Seconds(start, end);
    last.emplace(std::move(built).value());
  }
  return std::move(*last);
}

// ---------------------------------------------------------------------------
// expert_loop

/// One expert session through the service: open, then kExpertCycles
/// Reconcile(information gain, 1 assertion) cycles, each followed by the
/// snapshot the expert's view refreshes from.
void ExpertSessionServed(const PoTenant& t, uint64_t seed, size_t ordinal,
                         Recorder* rec, Results* results) {
  const uint64_t session_seed = SessionSeed(seed, ordinal);
  smn::Oracle oracle(t.truth);
  int64_t start = NowNs();
  StatusOr<SessionId> id = t.service->OpenSession(t.tenant, session_seed);
  rec->Sample("open_ms", Ms(start, NowNs()));
  CountOp(rec, id.ok());
  if (!id.ok()) return;
  start = NowNs();
  StatusOr<SessionSnapshot> snap = t.service->Snapshot(*id);
  rec->Sample("snapshot_ms", Ms(start, NowNs()));
  CountOp(rec, snap.ok());
  if (!snap.ok()) return;
  const double initial = snap->uncertainty;
  SessionResult result;
  smn::ReconcileGoal goal;
  goal.max_assertions = 1;
  for (size_t k = 0; k < kExpertCycles; ++k) {
    const int64_t t0 = NowNs();
    StatusOr<smn::ReconcileTrace> trace = t.service->Reconcile(
        *id, StrategyKind::kInformationGain, goal, oracle.AsCallback());
    const int64_t t1 = NowNs();
    snap = t.service->Snapshot(*id);
    const int64_t t2 = NowNs();
    CountOp(rec, trace.ok() && trace->rejected_assertions == 0);
    CountOp(rec, snap.ok());
    if (!trace.ok() || !snap.ok()) return;
    rec->Sample("assert_ms", Ms(t0, t1));
    rec->Sample("snapshot_ms", Ms(t1, t2));
    rec->Sample("step_ms", Ms(t0, t2));
    rec->Count("steps");
    for (const smn::ReconcileStep& step : trace->steps) {
      result.answers.emplace_back(step.correspondence, step.approved);
    }
    if (trace->steps.empty()) break;  // Nothing uncertain is left.
  }
  // Every asserted correspondence ends pinned at its ground-truth value.
  size_t wrong = 0;
  for (const auto& [c, approved] : result.answers) {
    const double expected = t.truth.Test(c) ? 1.0 : 0.0;
    if (approved != t.truth.Test(c) || snap->probabilities[c] != expected) {
      ++wrong;
    }
  }
  rec->Count("truth_checked", static_cast<double>(result.answers.size()));
  rec->Count("truth_wrong", static_cast<double>(wrong));
  if (ordinal < kFloorSessions && initial > 0.0) {
    rec->Sample("uncertainty_left", snap->uncertainty / initial);
  }
  result.digest = DigestState(snap->probabilities, snap->uncertainty);
  if (ordinal == 0) result.probabilities = snap->probabilities;
  rec->Digest(ordinal, result.digest);
  results->Put(ordinal, std::move(result));
  CountOp(rec, t.service->Close(*id).ok());
}

/// The same session decomposed into its layers: SelectionStrategy::Select →
/// oracle → ProbabilisticNetwork::Assert on a batch network over the
/// tenant's artifact, each call in its own span.
void ExpertSessionTraced(const PoTenant& t, uint64_t seed, size_t ordinal,
                         Recorder* rec) {
  Tracer::SetRequest(ordinal + 1);
  Rng rng(SessionSeed(seed, ordinal));
  smn::Oracle oracle(t.truth);
  std::optional<ProbabilisticNetwork> pmn;
  {
    ScopedSpan open("expert.open");
    ScopedSpan span("core.create");
    StatusOr<ProbabilisticNetwork> created = ProbabilisticNetwork::Create(
        t.artifact, ProbabilisticNetworkOptions{}, &rng);
    CountOp(rec, created.ok());
    if (!created.ok()) return;
    pmn.emplace(std::move(created).value());
  }
  RecordComponents(*pmn, rec);
  std::vector<double> probabilities;
  double uncertainty = 0.0;
  {
    ScopedSpan span("core.uncertainty");
    uncertainty = pmn->Uncertainty();
    probabilities = pmn->probabilities();
  }
  for (size_t k = 0; k < kExpertCycles; ++k) {
    size_t uncertain = 0;
    for (double p : probabilities) uncertain += (p > 0.0 && p < 1.0) ? 1 : 0;
    rec->Sample("core.select_uncertain", static_cast<double>(uncertain));
    ScopedSpan cycle("expert.cycle");
    std::optional<CorrespondenceId> selected;
    {
      ScopedSpan span("core.select");
      std::unique_ptr<smn::SelectionStrategy> strategy =
          smn::MakeStrategy(StrategyKind::kInformationGain);
      selected = strategy->Select(*pmn, &rng);
    }
    if (!selected.has_value()) break;
    bool approved = false;
    {
      ScopedSpan span("sim.oracle");
      approved = oracle.Assert(*selected);
    }
    Status status;
    {
      ScopedSpan span("core.assert");
      status = pmn->Assert(*selected, approved, &rng);
    }
    CountOp(rec, status.ok());
    if (!status.ok()) {
      rec->Count("core.assert_rejected");
      return;
    }
    ScopedSpan span("core.uncertainty");
    uncertainty = pmn->Uncertainty();
    probabilities = pmn->probabilities();
  }
  rec->Digest(ordinal, DigestState(probabilities, uncertainty));
}

bool RunExpertLoop(const RunOptions& opt, RunReport* report,
                   std::string* error) {
  const bool full = !opt.trace;
  const double seconds = full ? opt.seconds : opt.seconds / 2.0;
  Recorder* rec = &report->untraced;
  StatusOr<PoTenant> tenant = RepeatSetup<PoTenant>(
      full, rec, [&] { return SetupPo(/*traced=*/false); });
  if (!tenant.ok()) {
    *error = "expert_loop setup failed: " + tenant.status().message();
    return false;
  }
  Results results;
  const double elapsed =
      RunSessions(opt.clients, seconds, full ? kFloorSessions : 0,
                  [&](size_t ordinal) {
                    ExpertSessionServed(*tenant, opt.seed, ordinal, rec,
                                        &results);
                    if (full) {
                      MaybeReplay(tenant->service.get(), tenant->tenant,
                                  opt.seed, ordinal, results, rec);
                    }
                  });
  rec->Set("elapsed_s", elapsed);
  std::map<size_t, SessionResult> done = results.Take();
  report->AddCheck(
      "asserted_at_ground_truth", rec->counter("truth_wrong") == 0.0,
      std::to_string(static_cast<uint64_t>(rec->counter("truth_checked"))) +
          " asserted correspondences checked");
  if (done.count(0) == 0) {
    report->AddCheck("service_equals_batch", false, "session 0 incomplete");
  } else {
    CheckBatchEquivalence(tenant->artifact, SessionSeed(opt.seed, 0), done[0],
                          "service_equals_batch", report);
  }
  if (full) {
    CheckReplays(*rec, report);
    report->peak_rss_mb = PeakRssMb();
    return true;
  }

  Recorder* traced = &report->traced;
  Tracer::SetEnabled(true);
  StatusOr<PoTenant> traced_tenant = SetupPo(/*traced=*/true);
  if (!traced_tenant.ok()) {
    Tracer::SetEnabled(false);
    *error = "expert_loop traced setup failed";
    return false;
  }
  traced->Set("matchers.candidates",
              static_cast<double>(
                  traced_tenant->artifact->network().correspondence_count()));
  RunSessions(opt.clients, seconds, 0, [&](size_t ordinal) {
    ExpertSessionTraced(*traced_tenant, opt.seed, ordinal, traced);
  });
  Tracer::SetEnabled(false);
  report->spans = Tracer::Take();
  CheckTracedEqualsUntraced(report);
  return true;
}

// ---------------------------------------------------------------------------
// cold_start

/// Picks the first uncertain correspondence at or after `offset` (wrapping).
std::optional<CorrespondenceId> FirstUncertainFrom(
    const std::vector<double>& probabilities, size_t offset) {
  const size_t n = probabilities.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t c = (offset + i) % n;
    if (probabilities[c] > 0.0 && probabilities[c] < 1.0) {
      return static_cast<CorrespondenceId>(c);
    }
  }
  return std::nullopt;
}

struct ClusteredTenant {
  std::unique_ptr<ReconcileService> service;
  TenantId tenant = 0;
  std::shared_ptr<const CompiledArtifact> artifact;
};

StatusOr<ClusteredTenant> SetupClustered(
    const smn::datasets::ClusteredStreamSpec& spec, ServerOptions options) {
  ClusteredTenant out;
  out.service = std::make_unique<ReconcileService>(std::move(options));
  SMN_ASSIGN_OR_RETURN(out.tenant, RegisterClustered(out.service.get(), spec));
  SMN_ASSIGN_OR_RETURN(out.artifact, out.service->TenantArtifact(out.tenant));
  return out;
}

/// open → snapshot → kColdAsserts × (scripted assert → snapshot) → close.
/// Traced, each service call is mirrored on a batch network with the same
/// seed (the layer below the service), which must end in the same bits.
void ColdSession(const ClusteredTenant& t, uint64_t seed, size_t ordinal,
                 bool traced, Recorder* rec, Results* results) {
  const uint64_t session_seed = SessionSeed(seed, ordinal);
  Tracer::SetRequest(ordinal + 1);
  int64_t start = NowNs();
  StatusOr<SessionId> id = [&] {
    ScopedSpan span("server.open");
    return t.service->OpenSession(t.tenant, session_seed);
  }();
  rec->Sample("open_ms", Ms(start, NowNs()));
  CountOp(rec, id.ok());
  if (!id.ok()) return;
  Rng shadow_rng(session_seed);
  std::optional<ProbabilisticNetwork> shadow;
  if (traced) {
    ScopedSpan span("core.create");
    StatusOr<ProbabilisticNetwork> created = ProbabilisticNetwork::Create(
        t.artifact, ProbabilisticNetworkOptions{}, &shadow_rng);
    if (created.ok()) shadow.emplace(std::move(created).value());
  }
  if (shadow.has_value()) RecordComponents(*shadow, rec);
  auto snapshot = [&]() {
    const int64_t t0 = NowNs();
    StatusOr<SessionSnapshot> snap = [&] {
      ScopedSpan span("server.snapshot");
      return t.service->Snapshot(*id);
    }();
    rec->Sample("snapshot_ms", Ms(t0, NowNs()));
    CountOp(rec, snap.ok());
    if (shadow.has_value()) {
      ScopedSpan span("core.uncertainty");
      volatile double h = shadow->Uncertainty();
      std::vector<double> copy = shadow->probabilities();
      (void)h;
    }
    return snap;
  };
  StatusOr<SessionSnapshot> snap = snapshot();
  if (!snap.ok()) return;
  const double initial = snap->uncertainty;
  SessionResult result;
  for (size_t j = 0; j < kColdAsserts; ++j) {
    const std::optional<CorrespondenceId> c = FirstUncertainFrom(
        snap->probabilities,
        Mix(session_seed, j) % snap->probabilities.size());
    if (!c.has_value()) break;
    const bool approved = snap->probabilities[*c] >= 0.5;
    const int64_t t0 = NowNs();
    Status status;
    {
      ScopedSpan span("server.assert");
      status = t.service->Assert(*id, *c, approved);
    }
    const int64_t t1 = NowNs();
    CountOp(rec, status.ok());
    if (!status.ok()) return;
    result.answers.emplace_back(*c, approved);
    if (shadow.has_value()) {
      ScopedSpan span("core.assert");
      if (!shadow->Assert(*c, approved, &shadow_rng).ok()) {
        rec->Count("core.assert_rejected");
      }
    }
    const int64_t t2 = NowNs();
    snap = snapshot();
    if (!snap.ok()) return;
    rec->Sample("assert_ms", Ms(t0, t1));
    // The shadow's work between the two service calls is not the step's.
    rec->Sample("step_ms", Ms(t0, t1) + Ms(t2, NowNs()));
    rec->Count("steps");
  }
  if (ordinal < kFloorSessions && initial > 0.0) {
    rec->Sample("uncertainty_left", snap->uncertainty / initial);
  }
  result.digest = DigestState(snap->probabilities, snap->uncertainty);
  if (shadow.has_value()) {
    rec->Count("shadow_sessions");
    if (DigestState(shadow->probabilities(), shadow->Uncertainty()) !=
        result.digest) {
      rec->Count("shadow_mismatches");
    }
  }
  if (ordinal == 0) result.probabilities = snap->probabilities;
  rec->Digest(ordinal, result.digest);
  results->Put(ordinal, std::move(result));
  CountOp(rec, t.service->Close(*id).ok());
}

bool RunColdStart(const RunOptions& opt, RunReport* report,
                  std::string* error) {
  const bool full = !opt.trace;
  const double seconds = full ? opt.seconds : opt.seconds / 2.0;
  const smn::datasets::ClusteredStreamSpec spec =
      ClusteredSpec(Mix(opt.seed, 2), kColdClusters, kColdPerCluster);
  Recorder* rec = &report->untraced;
  StatusOr<ClusteredTenant> tenant = RepeatSetup<ClusteredTenant>(
      full, rec, [&] { return SetupClustered(spec, ServerOptions{}); });
  if (!tenant.ok()) {
    *error = "cold_start setup failed: " + tenant.status().message();
    return false;
  }
  Results results;
  rec->Set("elapsed_s",
           RunSessions(opt.clients, seconds, full ? kFloorSessions : 0,
                       [&](size_t ordinal) {
                         ColdSession(*tenant, opt.seed, ordinal, false, rec,
                                     &results);
                         if (full) {
                           MaybeReplay(tenant->service.get(), tenant->tenant,
                                       opt.seed, ordinal, results, rec);
                         }
                       }));
  std::map<size_t, SessionResult> done = results.Take();
  if (done.count(0) == 0) {
    report->AddCheck("service_equals_batch", false, "session 0 incomplete");
  } else {
    CheckBatchEquivalence(tenant->artifact, SessionSeed(opt.seed, 0), done[0],
                          "service_equals_batch", report);
  }
  if (full) {
    CheckReplays(*rec, report);
    report->peak_rss_mb = PeakRssMb();
    return true;
  }

  Recorder* traced = &report->traced;
  Tracer::SetEnabled(true);
  StatusOr<ClusteredTenant> traced_tenant =
      SetupClustered(spec, ServerOptions{});
  if (!traced_tenant.ok()) {
    Tracer::SetEnabled(false);
    *error = "cold_start traced setup failed";
    return false;
  }
  Results traced_results;
  RunSessions(opt.clients, seconds, 0, [&](size_t ordinal) {
    ColdSession(*traced_tenant, opt.seed, ordinal, true, traced,
                &traced_results);
  });
  Tracer::SetEnabled(false);
  report->spans = Tracer::Take();
  report->AddCheck(
      "service_equals_batch_every_traced_session",
      traced->counter("shadow_sessions") > 0 &&
          traced->counter("shadow_mismatches") == 0,
      std::to_string(static_cast<uint64_t>(traced->counter("shadow_sessions"))) +
          " sessions mirrored");
  CheckTracedEqualsUntraced(report);
  return true;
}

// ---------------------------------------------------------------------------
// durable_crowd

ServerOptions CrowdOptions(const std::string& journal_dir, size_t workers) {
  ServerOptions options;
  options.journal_dir = journal_dir;
  // Every assert appends its record (write(2), before the engine mutates);
  // fsync runs at session open and close, the service's default policy. An
  // fsync per record would make the assert metrics measure the host's disk:
  // on a shared virtual disk its latency swings between 0.5 and 2 ms (p50)
  // from one second to the next.
  options.journal_fsync_every = 0;
  options.worker_threads = workers;
  options.max_queue_depth = kCrowdQueueDepth;
  options.request_deadline_ms = kCrowdDeadlineMs;
  return options;
}

/// The open-loop schedule, precomputed from the seed: arrival k is due at
/// k / kCrowdRate seconds and answers correspondence orders[o][k / S] of
/// session o = k mod S from one consistent reference instance.
struct CrowdScript {
  DynamicBitset reference;
  std::vector<std::vector<CorrespondenceId>> orders;
  size_t arrivals = 0;
};

StatusOr<CrowdScript> MakeCrowdScript(const CompiledArtifact& artifact,
                                      uint64_t seed, double seconds) {
  CrowdScript script;
  const size_t n = artifact.network().correspondence_count();
  Rng rng(Mix(seed, 3));
  script.reference = DynamicBitset(n);
  for (size_t c = 0; c < n; ++c) {
    if (rng.Bernoulli(0.5)) script.reference.Set(c);
  }
  smn::Feedback none(n);
  SMN_RETURN_IF_ERROR(
      smn::RepairAll(artifact.constraints(), none, &script.reference));
  script.arrivals = static_cast<size_t>(kCrowdRate * seconds);
  const size_t per_session = script.arrivals / kCrowdSessions + 1;
  std::vector<CorrespondenceId> all(n);
  for (size_t c = 0; c < n; ++c) all[c] = static_cast<CorrespondenceId>(c);
  for (size_t o = 0; o < kCrowdSessions; ++o) {
    Rng order_rng(Mix(seed, 5000 + o));
    std::vector<CorrespondenceId> order = all;
    order_rng.Shuffle(&order);
    order.resize(std::min(per_session, n));
    script.orders.push_back(std::move(order));
  }
  return script;
}

/// Opens the crowd's sessions (closed loop over the clients, untimed: the
/// joins during the load measure OpenSession on this workload).
std::vector<SessionId> OpenCrowd(const ClusteredTenant& t, uint64_t seed,
                                 size_t clients, Recorder* rec,
                                 std::vector<double>* initial) {
  std::vector<SessionId> ids(kCrowdSessions, 0);
  initial->assign(kCrowdSessions, 0.0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (size_t o = next.fetch_add(1); o < kCrowdSessions;
           o = next.fetch_add(1)) {
        StatusOr<SessionId> id =
            t.service->OpenSession(t.tenant, SessionSeed(seed, o));
        CountOp(rec, id.ok());
        if (!id.ok()) continue;
        ids[o] = *id;
        StatusOr<SessionSnapshot> snap = t.service->Snapshot(*id);
        CountOp(rec, snap.ok());
        if (snap.ok()) (*initial)[o] = snap->uncertainty;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return ids;
}

/// Per-arrival outcome of the open loop.
struct Arrival {
  size_t session = 0;
  int64_t due = 0;
  int64_t sent = 0;
  int64_t done = 0;
  bool ok = false;
};

/// The arrivals and joins one round of the open loop covers.
struct Round {
  size_t first_arrival = 0;
  size_t end_arrival = 0;
  size_t first_join = 0;
  size_t end_join = 0;
  double seconds = 0.0;
};

/// Runs one round of the open loop: a generator thread submits each assert
/// at its due time regardless of completions; a collector observes
/// completions, sends the follow-up snapshot read, and records every
/// latency from the due time. A third thread lets the round's experts join
/// (open + close) at their own due times over the same window. Returns the
/// round's length in seconds.
double RunOpenLoop(ReconcileService* service, TenantId tenant,
                   const CrowdScript& script, const std::vector<SessionId>& ids,
                   uint64_t seed, const Round& round,
                   std::vector<Arrival>* arrivals, Recorder* rec) {
  struct Pending {
    size_t k = 0;
    bool is_snapshot = false;
    int64_t sent = 0;
    std::future<Status> assert_result;
    std::future<StatusOr<SessionSnapshot>> snapshot_result;
  };
  std::mutex mu;
  std::deque<Pending> submitted;
  std::atomic<bool> generator_done{false};
  const int64_t start = NowNs() + 1000000;  // First arrival in 1 ms.
  const double period_ns = 1e9 / kCrowdRate;

  std::thread joins([&] {
    const size_t count = round.end_join - round.first_join;
    const double join_period_ns = round.seconds * 1e9 / std::max<size_t>(1, count);
    for (size_t j = round.first_join; j < round.end_join; ++j) {
      const int64_t due = start + static_cast<int64_t>(
                                      (j - round.first_join) * join_period_ns);
      SleepUntil(due);
      Tracer::SetRequest(2000000 + j);
      const int64_t sent = NowNs();
      StatusOr<SessionId> id = [&] {
        ScopedSpan span("server.open");
        return service->OpenSession(tenant, SessionSeed(seed, 10000 + j));
      }();
      rec->Request("open", due, sent, NowNs());
      CountOp(rec, id.ok());
      if (id.ok()) CountOp(rec, service->Close(*id).ok());
    }
  });

  std::thread generator([&] {
    for (size_t k = round.first_arrival; k < round.end_arrival; ++k) {
      const int64_t due = start + static_cast<int64_t>(
                                      (k - round.first_arrival) * period_ns);
      SleepUntil(due);
      const size_t o = k % kCrowdSessions;
      const CorrespondenceId c = script.orders[o][k / kCrowdSessions];
      Pending p;
      p.k = k;
      p.sent = NowNs();
      p.assert_result =
          service->SubmitAssert(ids[o], c, script.reference.Test(c));
      Arrival& a = (*arrivals)[k];
      a.session = o;
      a.due = due;
      a.sent = p.sent;
      std::lock_guard<std::mutex> lock(mu);
      submitted.push_back(std::move(p));
    }
    generator_done.store(true);
  });

  std::vector<Pending> pending;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      while (!submitted.empty()) {
        pending.push_back(std::move(submitted.front()));
        submitted.pop_front();
      }
    }
    if (pending.empty()) {
      if (generator_done.load()) {
        std::lock_guard<std::mutex> lock(mu);
        if (submitted.empty()) break;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    bool progressed = false;
    for (size_t i = 0; i < pending.size();) {
      Pending& p = pending[i];
      const bool ready =
          p.is_snapshot
              ? p.snapshot_result.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready
              : p.assert_result.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready;
      if (!ready) {
        ++i;
        continue;
      }
      const int64_t now = NowNs();
      progressed = true;
      Arrival& a = (*arrivals)[p.k];
      if (!p.is_snapshot) {
        const Status status = p.assert_result.get();
        a.done = now;
        a.ok = status.ok();
        CountOp(rec, a.ok);
        rec->Request("assert", a.due, a.sent, now);
        Tracer::Record("server.request", p.k + 1, a.sent, now);
        // The worker reads the updated session right away.
        p.is_snapshot = true;
        p.sent = NowNs();
        p.snapshot_result = service->SubmitSnapshot(ids[a.session]);
        ++i;
        continue;
      }
      StatusOr<SessionSnapshot> snap = p.snapshot_result.get();
      CountOp(rec, snap.ok());
      rec->Request("snapshot", p.sent, p.sent, now);
      Tracer::Record("server.snapshot", p.k + 1, p.sent, now);
      rec->Request("step", a.due, a.sent, now);
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
    if (!progressed && !pending.empty()) {
      // Block on the oldest request, so that its completion is seen the
      // moment it happens; wake now and then for new submissions.
      const Pending& p = pending.front();
      const auto wait = std::chrono::microseconds(200);
      if (p.is_snapshot) {
        p.snapshot_result.wait_for(wait);
      } else {
        p.assert_result.wait_for(wait);
      }
    }
  }
  generator.join();
  joins.join();
  return Seconds(start, NowNs());
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// The write path one layer at a time, on the first sessions' applied
/// scripts: SessionLog::LogAssert under the workload's fsync policy, then the
/// batch network's Create / Assert / Uncertainty. Each replayed session must
/// end in the service's bits.
bool ReplayLayers(const ClusteredTenant& t,
                  uint64_t seed, const std::string& shadow_dir,
                  uint64_t fsync_every,
                  const std::vector<std::vector<std::pair<CorrespondenceId, bool>>>&
                      applied,
                  const std::vector<uint64_t>& final_digests, Recorder* rec) {
  std::error_code ec;
  std::filesystem::remove_all(shadow_dir, ec);
  std::filesystem::create_directories(shadow_dir, ec);
  for (size_t o = 0; o < kCrowdShadowSessions; ++o) {
    Tracer::SetRequest(1000000 + o);
    const uint64_t session_seed = SessionSeed(seed, o);
    StatusOr<std::unique_ptr<smn::server::SessionLog>> log =
        smn::server::SessionLog::Create(
            smn::server::JournalOptions{shadow_dir, fsync_every}, o + 1,
            t.tenant, session_seed, 0);
    Rng rng(session_seed);
    std::optional<ProbabilisticNetwork> pmn;
    {
      ScopedSpan span("core.create");
      StatusOr<ProbabilisticNetwork> created = ProbabilisticNetwork::Create(
          t.artifact, ProbabilisticNetworkOptions{}, &rng);
      if (created.ok()) pmn.emplace(std::move(created).value());
    }
    if (!log.ok() || !pmn.has_value()) return false;
    RecordComponents(*pmn, rec);
    uint64_t revision = 0;
    for (const auto& [c, approved] : applied[o]) {
      {
        ScopedSpan span("server.journal.append");
        if (!(*log)->LogAssert(c, approved, revision).ok()) return false;
      }
      {
        ScopedSpan span("core.assert");
        if (!pmn->Assert(c, approved, &rng).ok()) {
          rec->Count("core.assert_rejected");
        }
      }
      ++revision;
      ScopedSpan span("core.uncertainty");
      volatile double h = pmn->Uncertainty();
      std::vector<double> copy = pmn->probabilities();
      (void)h;
    }
    if (DigestState(pmn->probabilities(), pmn->Uncertainty()) !=
        final_digests[o]) {
      rec->Count("shadow_mismatches");
    }
    rec->Count("shadow_sessions");
  }
  std::filesystem::remove_all(shadow_dir, ec);
  return true;
}

/// One crowd pass: setup, open the sessions, then kCrowdRounds rounds of
/// open-loop load, each ended by a crash (the service dropped without Close)
/// and a timed Recover() into a fresh service, which the next round keeps
/// loading. Crashing every round samples recover_s over the whole run.
bool CrowdPass(const RunOptions& opt, bool full, bool traced,
               const std::string& journal_dir, Recorder* rec,
               RunReport* report, std::string* error) {
  std::error_code ec;
  std::filesystem::remove_all(journal_dir, ec);
  std::filesystem::create_directories(journal_dir, ec);
  const double seconds = full ? opt.seconds : opt.seconds / 2.0;
  const smn::datasets::ClusteredStreamSpec spec =
      ClusteredSpec(Mix(opt.seed, 4), kCrowdClusters, kCrowdPerCluster);
  const ServerOptions options = CrowdOptions(journal_dir, opt.clients);
  StatusOr<ClusteredTenant> tenant = RepeatSetup<ClusteredTenant>(
      full, rec, [&] { return SetupClustered(spec, options); });
  if (!tenant.ok()) {
    *error = "durable_crowd setup failed: " + tenant.status().message();
    return false;
  }
  StatusOr<CrowdScript> script =
      MakeCrowdScript(*tenant->artifact, opt.seed, seconds);
  if (!script.ok()) {
    *error = "durable_crowd script failed: " + script.status().message();
    return false;
  }
  std::vector<double> initial;
  const std::vector<SessionId> ids =
      OpenCrowd(*tenant, opt.seed, opt.clients, rec, &initial);
  std::unique_ptr<ReconcileService> live = std::move(tenant->service);

  std::vector<Arrival> arrivals(script->arrivals);
  std::vector<std::vector<std::pair<CorrespondenceId, bool>>> applied(
      kCrowdSessions);
  std::vector<uint64_t> pre_crash(kCrowdSessions, 0);
  std::vector<double> final_uncertainty(kCrowdSessions, 0.0);
  std::optional<std::vector<double>> checked_probabilities;
  size_t revision_mismatches = 0;
  bool recovered_equal = true;
  size_t recoveries = 0;
  double elapsed = 0.0;
  double shed = 0.0;
  double expired = 0.0;
  const int recoveries_per_round = full ? kCrowdRecoversPerRound : 1;
  for (size_t r = 0; r < kCrowdRounds; ++r) {
    Round round;
    round.first_arrival = r * script->arrivals / kCrowdRounds;
    round.end_arrival = (r + 1) * script->arrivals / kCrowdRounds;
    round.first_join = r * kCrowdJoins / kCrowdRounds;
    round.end_join = (r + 1) * kCrowdJoins / kCrowdRounds;
    round.seconds = seconds / kCrowdRounds;
    elapsed += RunOpenLoop(live.get(), tenant->tenant, *script, ids, opt.seed,
                           round, &arrivals, rec);
    for (size_t k = round.first_arrival; k < round.end_arrival; ++k) {
      const Arrival& a = arrivals[k];
      const CorrespondenceId c = script->orders[a.session][k / kCrowdSessions];
      if (a.ok) applied[a.session].emplace_back(c, script->reference.Test(c));
    }
    const smn::server::ServerStats stats = live->stats();
    rec->Set("server.exec_ewma_ms", stats.retry_after_ms);
    shed += static_cast<double>(stats.shed_requests);
    expired += static_cast<double>(stats.expired_requests);
    rec->Set("server.journal.bytes",
             static_cast<double>(DirectoryBytes(journal_dir)));

    // Pre-crash state of every session.
    for (size_t o = 0; o < kCrowdSessions; ++o) {
      StatusOr<SessionSnapshot> snap = live->Snapshot(ids[o]);
      CountOp(rec, snap.ok());
      if (!snap.ok()) continue;
      pre_crash[o] = DigestState(snap->probabilities, snap->uncertainty);
      final_uncertainty[o] = snap->uncertainty;
      if (snap->revision != applied[o].size()) ++revision_mismatches;
      if (o == 0) checked_probabilities = snap->probabilities;
    }

    // Crash: drop the service without closing a session. The journals stay.
    live.reset();
    for (int rep = 0; rep < recoveries_per_round; ++rep) {
      auto revived = std::make_unique<ReconcileService>(options);
      {
        // Re-registration is the new process's setup, not its recovery.
        const bool was = Tracer::enabled();
        Tracer::SetEnabled(false);
        StatusOr<TenantId> registered = RegisterClustered(revived.get(), spec);
        Tracer::SetEnabled(was);
        if (!registered.ok() || *registered != tenant->tenant) {
          *error = "durable_crowd re-registration failed";
          return false;
        }
      }
      const int64_t start = NowNs();
      StatusOr<smn::server::RecoveryReport> recovered = [&] {
        ScopedSpan span("server.recover");
        return revived->Recover(journal_dir);
      }();
      rec->Sample("recover_s", Seconds(start, NowNs()));
      CountOp(rec, recovered.ok());
      ++recoveries;
      if (!recovered.ok()) {
        recovered_equal = false;
        continue;
      }
      rec->Set("server.recover.sessions",
               static_cast<double>(recovered->sessions_recovered));
      rec->Set("server.recover.asserts_replayed",
               static_cast<double>(recovered->asserts_replayed));
      if (recovered->sessions_recovered != kCrowdSessions ||
          recovered->failed_sessions != 0) {
        recovered_equal = false;
      }
      for (size_t o = 0; o < kCrowdSessions; ++o) {
        StatusOr<SessionSnapshot> snap = revived->Snapshot(ids[o]);
        if (!snap.ok() || DigestState(snap->probabilities, snap->uncertainty) !=
                              pre_crash[o]) {
          recovered_equal = false;
        }
      }
      live = std::move(revived);  // The last recovery serves the next round.
    }
    if (live == nullptr) {
      *error = "durable_crowd recovery failed";
      return false;
    }
  }
  live.reset();
  rec->Set("elapsed_s", elapsed);
  rec->Set("steps", static_cast<double>(arrivals.size()));
  rec->Set("server.shed", shed);
  rec->Set("server.expired", expired);
  for (size_t o = 0; o < kCrowdSessions; ++o) {
    rec->Digest(o, pre_crash[o]);
    if (initial[o] > 0.0) {
      rec->Sample("uncertainty_left", final_uncertainty[o] / initial[o]);
    }
  }

  const std::string suffix = traced ? "_traced" : "";
  report->AddCheck("revision_equals_accepted_asserts" + suffix,
                   revision_mismatches == 0,
                   std::to_string(revision_mismatches) + " sessions differ");
  report->AddCheck("recovered_equals_pre_crash" + suffix, recovered_equal,
                   std::to_string(kCrowdSessions) + " sessions x " +
                       std::to_string(recoveries) + " recoveries");
  // Session 0 against a batch network, when its requests never overlapped
  // (an overlap would leave the service's apply order undefined).
  bool overlapped = false;
  int64_t last_done = 0;
  for (const Arrival& a : arrivals) {
    if (a.session != 0) continue;
    if (a.sent < last_done) overlapped = true;
    last_done = std::max(last_done, a.done);
  }
  if (overlapped || !checked_probabilities.has_value()) {
    report->AddCheck("service_equals_batch" + suffix, false,
                     "session 0 had overlapping requests");
  } else {
    SessionResult checked;
    checked.answers = applied[0];
    checked.probabilities = *checked_probabilities;
    checked.digest = pre_crash[0];
    CheckBatchEquivalence(tenant->artifact, SessionSeed(opt.seed, 0), checked,
                          "service_equals_batch" + suffix, report);
  }
  if (traced && !ReplayLayers(*tenant, opt.seed,
                              journal_dir + "-layers",
                              options.journal_fsync_every, applied, pre_crash,
                              rec)) {
    *error = "durable_crowd layer replay failed";
    return false;
  }
  std::filesystem::remove_all(journal_dir, ec);
  return true;
}

bool RunDurableCrowd(const RunOptions& opt, RunReport* report,
                     std::string* error) {
  const bool full = !opt.trace;
  const std::string journal_dir = opt.tmp_dir + "/journal";
  if (!CrowdPass(opt, full, false, journal_dir, &report->untraced, report,
                 error)) {
    return false;
  }
  if (full) {
    report->peak_rss_mb = PeakRssMb();
    return true;
  }
  Tracer::SetEnabled(true);
  const bool ok = CrowdPass(opt, false, true, journal_dir + "-traced",
                            &report->traced, report, error);
  Tracer::SetEnabled(false);
  report->spans = Tracer::Take();
  if (!ok) return false;
  Recorder* traced = &report->traced;
  report->AddCheck(
      "service_equals_batch_every_traced_session",
      traced->counter("shadow_sessions") > 0 &&
          traced->counter("shadow_mismatches") == 0,
      std::to_string(static_cast<uint64_t>(traced->counter("shadow_sessions"))) +
          " sessions replayed layer by layer");
  CheckTracedEqualsUntraced(report);
  return true;
}

}  // namespace

void RunReport::AddCheck(std::string name, bool ok, std::string detail) {
  checks.push_back(Check{std::move(name), ok, std::move(detail)});
}

bool RunWorkload(const RunOptions& options, RunReport* report,
                 std::string* error) {
  if (options.workload == "expert_loop") {
    return RunExpertLoop(options, report, error);
  }
  if (options.workload == "cold_start") {
    return RunColdStart(options, report, error);
  }
  if (options.workload == "durable_crowd") {
    return RunDurableCrowd(options, report, error);
  }
  *error = "unknown workload: " + options.workload;
  return false;
}

}  // namespace perfbench
