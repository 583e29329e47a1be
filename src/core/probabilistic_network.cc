#include "core/probabilistic_network.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <unordered_set>
#include <utility>

#include "core/entropy.h"
#include "core/matching_instance.h"

namespace smn {
namespace {

/// Source of process-unique network instance ids (see instance_id()).
std::atomic<uint64_t> g_next_instance_id{1};

/// Pure per-component stream id: distinct (anchor, built_at) pairs map to
/// distinct ids (built_at is bounded by the assertion count, far below 2^32),
/// and Rng::Fork's finalizer decorrelates adjacent ids.
uint64_t StreamId(CorrespondenceId anchor, uint64_t built_at) {
  return (static_cast<uint64_t>(anchor) << 32) ^ built_at;
}

/// ORs a subproblem-local sample into a global-width bitset.
void OrGlobalized(const DynamicBitset& local_sample,
                  const std::vector<CorrespondenceId>& local_to_global,
                  DynamicBitset* global) {
  local_sample.ForEachSetBit(
      [&](size_t local) { global->Set(local_to_global[local]); });
}

/// A sampled component's Ω*_K, whether it provably is all of Ω_K, and the
/// diagnostics of the last sampling round.
struct SampledFill {
  std::vector<DynamicBitset> samples;
  bool exhausted = false;
  ChainDiagnostics diagnostics;
};

/// Number of distinct instances in `samples`.
size_t DistinctCount(const std::vector<DynamicBitset>& samples) {
  std::unordered_set<DynamicBitset, DynamicBitsetHash> seen;
  for (const DynamicBitset& sample : samples) seen.insert(sample);
  return seen.size();
}

/// Drops duplicate instances in place, keeping first occurrences in order.
void Deduplicate(std::vector<DynamicBitset>* samples) {
  std::unordered_set<DynamicBitset, DynamicBitsetHash> seen;
  std::vector<DynamicBitset> unique;
  for (DynamicBitset& sample : *samples) {
    if (seen.insert(sample).second) unique.push_back(std::move(sample));
  }
  *samples = std::move(unique);
}

/// Fills a component's Ω*_K by sampling its subproblem up to
/// target_samples. Two consecutive rounds that cannot produce n_min distinct
/// instances imply the instance space itself is smaller than n_min (Section
/// III-B); Ω*_K is then deduplicated and declared complete. Each round
/// advances `*rng` exactly once (one SampleChains call).
StatusOr<SampledFill> SampleComponent(const ComponentSubproblem& sub,
                                      const SampleStoreOptions& options,
                                      Rng* rng) {
  const ParallelSampler sampler(*sub.network, *sub.constraints,
                                options.sampling);
  SampledFill fill;
  for (int round = 0; round < 2; ++round) {
    const size_t missing = options.target_samples > fill.samples.size()
                               ? options.target_samples - fill.samples.size()
                               : 0;
    if (missing == 0) break;
    SMN_ASSIGN_OR_RETURN(std::vector<std::vector<DynamicBitset>> chains,
                         sampler.SampleChains(sub.feedback, missing, rng));
    fill.diagnostics =
        ComputeChainDiagnostics(chains, sub.network->correspondence_count());
    // Chain-major merge keeps the sample order a pure function of the
    // seed, independent of worker-thread scheduling.
    for (std::vector<DynamicBitset>& chain : chains) {
      for (DynamicBitset& sample : chain) {
        fill.samples.push_back(std::move(sample));
      }
    }
    if (DistinctCount(fill.samples) >= options.min_samples) return fill;
    // Keep only the distinct instances before the second attempt so the
    // next round measures fresh discovery.
    Deduplicate(&fill.samples);
  }
  fill.exhausted = true;
  Deduplicate(&fill.samples);
  return fill;
}

}  // namespace

void ProbabilisticNetwork::ComputeUnweightedMarginals(
    ComponentCache* cache, const ConstraintComponent& component) {
  // Samples are in subproblem-local coordinates: member j of the component
  // is bit member_local_ids[j] of every sample.
  const std::vector<CorrespondenceId>& member_local =
      cache->subproblem.member_local_ids;
  cache->member_probabilities.assign(component.members.size(), 0.0);
  if (!cache->samples.empty()) {
    const double denom = static_cast<double>(cache->samples.size());
    for (size_t j = 0; j < component.members.size(); ++j) {
      size_t count = 0;
      for (const DynamicBitset& sample : cache->samples) {
        if (sample.Test(member_local[j])) ++count;
      }
      cache->member_probabilities[j] = static_cast<double>(count) / denom;
    }
  }
  cache->entropy = 0.0;
  for (double p : cache->member_probabilities) {
    cache->entropy += BinaryEntropy(p);
  }
}

ProbabilisticNetwork::ProbabilisticNetwork(
    std::shared_ptr<const CompiledArtifact> artifact,
    ProbabilisticNetworkOptions options)
    : artifact_(std::move(artifact)),
      options_(options),
      feedback_(artifact_->network().correspondence_count()),
      soft_evidence_(artifact_->network().correspondence_count()),
      lazy_mu_(std::make_unique<Mutex>("pn.sample_view",
                                       LockRank::kSampleView)) {}

StatusOr<ProbabilisticNetwork> ProbabilisticNetwork::Create(
    const Network& network, const ConstraintSet& constraints,
    ProbabilisticNetworkOptions options, Rng* rng) {
  // Borrowing path: compile a private artifact over the caller's objects.
  // The derived state is a pure function of (network, constraints), so this
  // is bit-identical to sharing a prebuilt artifact.
  SMN_ASSIGN_OR_RETURN(CompiledArtifact artifact,
                       CompiledArtifact::Build(network, constraints));
  return Create(std::make_shared<const CompiledArtifact>(std::move(artifact)),
                options, rng);
}

StatusOr<ProbabilisticNetwork> ProbabilisticNetwork::Create(
    std::shared_ptr<const CompiledArtifact> artifact,
    ProbabilisticNetworkOptions options, Rng* rng) {
  if (artifact == nullptr) {
    return Status::InvalidArgument("Create: artifact must be non-null");
  }
  ProbabilisticNetwork pmn(std::move(artifact), options);
  pmn.instance_id_ =
      g_next_instance_id.fetch_add(1, std::memory_order_relaxed);
  pmn.base_ = rng->Split();
  // Seed the session's mutable state from the artifact's empty-feedback
  // baseline: the closure and partition are copied (they diverge as this
  // session's feedback pins variables), the coupling groups are read through
  // the artifact and never duplicated.
  pmn.determined_ = pmn.artifact_->initial_determined();
  pmn.index_ = pmn.artifact_->initial_index();
  pmn.probabilities_.assign(pmn.artifact_->network().correspondence_count(),
                            0.0);
  for (size_t i = 0; i < pmn.index_.component_count(); ++i) {
    SMN_ASSIGN_OR_RETURN(
        std::unique_ptr<ComponentCache> cache,
        pmn.BuildCache(pmn.index_.component(i), nullptr, /*built_at=*/0,
                       pmn.determined_));
    pmn.Publish(*cache);
    pmn.entropies_.push_back(cache->entropy);
    pmn.caches_.push_back(std::move(cache));
  }
  // The feedback closure is ground truth: pin it regardless of sampling.
  pmn.determined_.approved.ForEachSetBit(
      [&](size_t c) { pmn.probabilities_[c] = 1.0; });
  pmn.determined_.disapproved.ForEachSetBit(
      [&](size_t c) { pmn.probabilities_[c] = 0.0; });
  pmn.RefreshExhausted();
  return pmn;
}

StatusOr<std::unique_ptr<ProbabilisticNetwork::ComponentCache>>
ProbabilisticNetwork::BuildCache(
    const ConstraintComponent& component,
    const std::vector<CorrespondenceId>* frozen_candidates,
    uint64_t built_at, const DeterminedSet& determined) const {
  auto cache = std::make_unique<ComponentCache>();
  SMN_ASSIGN_OR_RETURN(
      cache->subproblem,
      BuildComponentSubproblem(artifact_->network(), artifact_->constraints(),
                               artifact_->coupling_groups(), component,
                               determined, frozen_candidates,
                               &artifact_->group_index()));
  cache->built_at = built_at;
  const ComponentSubproblem& sub = cache->subproblem;
  const size_t member_count = sub.member_local_ids.size();

  const size_t exact_threshold = options_.store.exact_threshold;
  if (exact_threshold > 0 && member_count <= exact_threshold &&
      member_count <= 63) {
    // Member-exact path: enumerate the 2^|K| member subsets on top of the
    // approved boundary — exponential only in the member count, not in the
    // boundary size. Consumes no randomness, so exact components are
    // bit-stable across modes by construction.
    const size_t local_n = sub.local_to_global.size();
    DynamicBitset base(local_n);
    sub.feedback.approved().ForEachSetBit([&](size_t c) { base.Set(c); });
    const uint64_t limit = 1ULL << member_count;
    for (uint64_t mask = 0; mask < limit; ++mask) {
      DynamicBitset selection = base;
      for (size_t j = 0; j < member_count; ++j) {
        if ((mask >> j) & 1ULL) selection.Set(sub.member_local_ids[j]);
      }
      if (!sub.constraints->IsSatisfied(selection)) continue;
      if (!IsMaximalInstance(*sub.constraints, sub.feedback, selection)) {
        continue;
      }
      cache->samples.push_back(std::move(selection));
    }
    cache->exhausted = true;
    cache->diagnostics = ChainDiagnostics{};
    cache->diagnostics.exact = true;
  } else {
    Rng stream = base_.Fork(StreamId(component.anchor, built_at));
    SMN_ASSIGN_OR_RETURN(SampledFill fill,
                         SampleComponent(sub, options_.store, &stream));
    cache->samples = std::move(fill.samples);
    cache->exhausted = fill.exhausted;
    cache->diagnostics = std::move(fill.diagnostics);
  }

  // Member marginals and the component's entropy contribution.
  ComputeUnweightedMarginals(cache.get(), component);
  // A rebuilt cache starts from fresh unweighted marginals; standing soft
  // evidence on its members must be reapplied so incremental and
  // full-resample modes derive identical weighted state from identical
  // sample sets.
  ApplyEvidence(cache.get(), component);
  return cache;
}

void ProbabilisticNetwork::ApplyEvidence(
    ComponentCache* cache, const ConstraintComponent& component) const {
  cache->weights.clear();
  cache->evidence_revision = 0;
  if (cache->samples.empty()) return;
  // Evidence-free components keep the exact integer-count marginals: the
  // weighted formula (c·w)/(m·w) is mathematically but not bitwise equal to
  // c/m, and the evidence-free path must stay bit-identical to the pre-soft
  // engine. Contradictory hard evidence is uninformative (every sample gets
  // the same unit weight), so it counts as no evidence here.
  bool any_member_evidence = false;
  for (CorrespondenceId member : component.members) {
    if (soft_evidence_.HasEvidence(member) &&
        !soft_evidence_.Contradictory(member)) {
      any_member_evidence = true;
      break;
    }
  }
  if (!any_member_evidence) return;

  // Member-restricted importance weights: an AssertSoft happens once per
  // elicited answer, so the work must scale with the component, not with
  // the network's evidence ledger.
  const std::vector<CorrespondenceId>& member_local =
      cache->subproblem.member_local_ids;
  cache->weights = ComputeImportanceWeights(soft_evidence_, cache->samples,
                                            component.members, member_local);
  {
    MutexLock lock(cache->gains_mu_);
    cache->gains_valid = false;
  }
  double total = 0.0;
  for (double w : cache->weights) total += w;
  // Zero likelihood on every sample (contradiction-free evidence on one
  // correspondence cannot do this; conflicting hard answers across coupled
  // members can): fall back to the unweighted marginals rather than divide
  // by zero.
  if (cache->weights.empty() || total <= 0.0) {
    cache->weights.clear();
    ComputeUnweightedMarginals(cache, component);
    return;
  }
  for (size_t j = 0; j < component.members.size(); ++j) {
    double with_member = 0.0;
    for (size_t i = 0; i < cache->samples.size(); ++i) {
      if (cache->samples[i].Test(member_local[j])) {
        with_member += cache->weights[i];
      }
    }
    cache->member_probabilities[j] = with_member / total;
  }
  cache->entropy = 0.0;
  for (double p : cache->member_probabilities) {
    cache->entropy += BinaryEntropy(p);
  }
}

Status ProbabilisticNetwork::AssertSoft(CorrespondenceId c, bool approved,
                                        double error_rate, Rng* rng) {
  // The perfect-expert limit: a zero-error answer is ground truth and takes
  // the hard path verbatim (closure propagation + component re-sampling),
  // making soft reconciliation at ε = 0 bit-identical to Algorithm 1.
  // Anything else outside (0, 0.5] — negative, NaN, > 0.5 — falls through
  // to Record, which rejects it.
  if (error_rate == 0.0) {
    return Assert(c, approved, rng);
  }
  (void)rng;  // Reweighting is deterministic; no randomness consumed.
  SMN_RETURN_IF_ERROR(soft_evidence_.Record(c, approved, error_rate));
  const size_t touched = index_.ComponentOf(c);
  if (touched == ComponentIndex::kNoComponent) {
    // Determined by the feedback closure: the answer joins the ledger (it
    // still cost an elicitation) but cannot move a logically pinned value.
    return Status::OK();
  }
  ComponentCache& cache = *caches_[touched];
  const uint64_t revision = cache.evidence_revision + 1;
  ApplyEvidence(&cache, index_.component(touched));
  cache.evidence_revision = revision;
  entropies_[touched] = cache.entropy;
  {
    // ApplyEvidence already invalidated the gains on the evidence path;
    // this also covers its early returns (contradictory-only evidence).
    MutexLock lock(cache.gains_mu_);
    cache.gains_valid = false;
  }
  const ConstraintComponent& component = index_.component(touched);
  for (size_t j = 0; j < component.members.size(); ++j) {
    probabilities_[component.members[j]] = cache.member_probabilities[j];
  }
  return Status::OK();
}

Status ProbabilisticNetwork::Assert(CorrespondenceId c, bool approved,
                                    Rng* rng) {
  (void)rng;  // See the header: randomness derives from per-component forks.
  // Stage every fallible step against local state; commit only once nothing
  // can fail anymore, so a rejected assertion (contradictory feedback
  // closure, sampler failure) leaves the network exactly as it was.
  const size_t n = artifact_->network().correspondence_count();
  Feedback feedback = feedback_;
  SMN_RETURN_IF_ERROR(feedback.Assert(c, approved));
  SMN_ASSIGN_OR_RETURN(DeterminedSet determined,
                       PropagateFeedback(artifact_->constraints(), feedback, n));
  const uint64_t assertion_count = assertion_count_ + 1;
  const size_t touched = index_.ComponentOf(c);

  std::vector<ConstraintComponent> parts;
  std::vector<std::unique_ptr<ComponentCache>> part_caches;
  if (touched != ComponentIndex::kNoComponent) {
    // The feedback closure only pins variables inside the touched component
    // (any newly forced correspondence shares a coupling chain with `c`), so
    // re-partitioning the touched component's surviving members is a
    // complete rebuild of the partition.
    parts = ComponentIndex::Split(artifact_->coupling_groups(),
                                  artifact_->group_index(),
                                  index_.component(touched), determined);
    for (const ConstraintComponent& part : parts) {
      SMN_ASSIGN_OR_RETURN(
          std::unique_ptr<ComponentCache> cache,
          BuildCache(part, nullptr, assertion_count, determined));
      part_caches.push_back(std::move(cache));
    }
  }

  // Full-resample baseline: recompute every untouched cache from scratch
  // with its frozen candidate projection and original stream. Unchanged
  // restricted feedback makes this bit-identical to the cached state — the
  // equivalence the incremental mode's correctness rests on.
  std::vector<std::unique_ptr<ComponentCache>> rebuilt;
  if (!options_.incremental) {
    rebuilt.resize(caches_.size());
    for (size_t i = 0; i < caches_.size(); ++i) {
      if (i == touched) continue;
      SMN_ASSIGN_OR_RETURN(
          rebuilt[i],
          BuildCache(index_.component(i),
                     &caches_[i]->subproblem.local_to_global,
                     caches_[i]->built_at, determined));
      // BuildCache resets the evidence revision (correct for the touched
      // component, whose generation advances); an untouched component keeps
      // its generation, so it must keep its revision too — a reissued
      // (generation, revision = 0) key would alias the pre-evidence state
      // in selection-strategy caches, and the accessor would diverge from
      // incremental mode.
      rebuilt[i]->evidence_revision = caches_[i]->evidence_revision;
    }
  }

  // Commit: infallible from here on.
  feedback_ = std::move(feedback);
  determined_ = std::move(determined);
  assertion_count_ = assertion_count;
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    if (rebuilt[i] == nullptr) continue;
    Retract(*caches_[i]);
    Publish(*rebuilt[i]);
    entropies_[i] = rebuilt[i]->entropy;
    caches_[i] = std::move(rebuilt[i]);
  }
  if (touched != ComponentIndex::kNoComponent) {
    // Pin the members the closure now determines; the parts' caches write
    // every other member.
    for (CorrespondenceId member : index_.component(touched).members) {
      if (determined_.approved.Test(member)) {
        probabilities_[member] = 1.0;
      } else if (determined_.disapproved.Test(member)) {
        probabilities_[member] = 0.0;
      }
    }
    Retract(*caches_[touched]);
    // Free the replaced cache before the splice allocates, so its memory is
    // recycled inside this call rather than by the caller's next allocation
    // (a snapshot right after an assertion would otherwise pay for it).
    caches_[touched].reset();
    const std::vector<size_t> positions =
        index_.Replace(touched, std::move(parts));
    // Splice the caches and entropies like the index: positions before
    // `touched` keep theirs, the tail takes the parts at their new
    // positions.
    std::vector<std::unique_ptr<ComponentCache>> tail(
        std::make_move_iterator(caches_.begin() + touched + 1),
        std::make_move_iterator(caches_.end()));
    const std::vector<double> entropy_tail(entropies_.begin() + touched + 1,
                                           entropies_.end());
    caches_.resize(touched);
    entropies_.resize(touched);
    size_t k = 0;
    size_t untouched = 0;
    while (caches_.size() < index_.component_count()) {
      if (k < positions.size() && positions[k] == caches_.size()) {
        Publish(*part_caches[k]);
        entropies_.push_back(part_caches[k]->entropy);
        caches_.push_back(std::move(part_caches[k++]));
      } else {
        entropies_.push_back(entropy_tail[untouched]);
        caches_.push_back(std::move(tail[untouched++]));
      }
    }
  }
  RefreshExhausted();

  MutexLock lock(*lazy_mu_);
  sample_view_valid_ = false;
  diagnostics_valid_ = false;
  return Status::OK();
}

void ProbabilisticNetwork::Publish(const ComponentCache& cache) {
  // Member j of the component is local id member_local_ids[j], and local
  // ids map to global ids through local_to_global.
  const ComponentSubproblem& sub = cache.subproblem;
  for (size_t j = 0; j < sub.member_local_ids.size(); ++j) {
    probabilities_[sub.local_to_global[sub.member_local_ids[j]]] =
        cache.member_probabilities[j];
  }
  if (!cache.exhausted) ++unexhausted_caches_;
  if (cache.samples.empty()) ++empty_caches_;
}

void ProbabilisticNetwork::Retract(const ComponentCache& cache) {
  if (!cache.exhausted) --unexhausted_caches_;
  if (cache.samples.empty()) --empty_caches_;
}

void ProbabilisticNetwork::RefreshExhausted() {
  // samples() is the complete instance space when every component is
  // exhausted and the product of the per-component sample counts, taken in
  // anchor order, reaches at most the view cap without overflowing first. A
  // zero count pins the product at 0 for good; without one the product only
  // grows, so passing the cap settles the answer early.
  exhausted_ = false;
  if (unexhausted_caches_ > 0) return;
  size_t product = 1;
  for (const auto& cache : caches_) {
    const size_t size = cache->samples.size();
    if (size == 0) {
      exhausted_ = true;
      return;
    }
    if (product > std::numeric_limits<size_t>::max() / size) return;
    product *= size;
    if (empty_caches_ == 0 && product > options_.sample_view_cap) return;
  }
  exhausted_ = product <= options_.sample_view_cap;
}

const ChainDiagnostics& ProbabilisticNetwork::chain_diagnostics() const {
  // Same latch pattern as samples(): the merge writes an n-wide R-hat
  // vector, so it runs only when a caller asks, not on every assertion.
  MutexLock lock(*lazy_mu_);
  if (diagnostics_valid_) return merged_diagnostics_;
  // Merge per-component diagnostics pessimistically.
  ChainDiagnostics merged;
  merged.exact = true;
  merged.psrf.assign(artifact_->network().correspondence_count(), 1.0);
  bool any_sampled = false;
  for (size_t i = 0; i < caches_.size(); ++i) {
    const ChainDiagnostics& diagnostics = caches_[i]->diagnostics;
    if (diagnostics.exact) continue;
    merged.exact = false;
    const ComponentSubproblem& sub = caches_[i]->subproblem;
    for (size_t j = 0; j < sub.member_local_ids.size(); ++j) {
      const CorrespondenceId local = sub.member_local_ids[j];
      if (local < diagnostics.psrf.size()) {
        merged.psrf[sub.local_to_global[local]] = diagnostics.psrf[local];
      }
    }
    merged.max_psrf = std::max(merged.max_psrf, diagnostics.max_psrf);
    if (!any_sampled) {
      merged.usable_chains = diagnostics.usable_chains;
      merged.min_chain_length = diagnostics.min_chain_length;
      any_sampled = true;
    } else {
      merged.usable_chains =
          std::min(merged.usable_chains, diagnostics.usable_chains);
      merged.min_chain_length =
          std::min(merged.min_chain_length, diagnostics.min_chain_length);
    }
  }
  merged_diagnostics_ = std::move(merged);
  diagnostics_valid_ = true;
  return merged_diagnostics_;
}

double ProbabilisticNetwork::Uncertainty() const {
  double total = 0.0;
  for (double entropy : entropies_) total += entropy;
  return total;
}

std::vector<CorrespondenceId> ProbabilisticNetwork::UncertainCorrespondences()
    const {
  std::vector<CorrespondenceId> result;
  for (CorrespondenceId c = 0; c < probabilities_.size(); ++c) {
    if (probabilities_[c] > 0.0 && probabilities_[c] < 1.0) {
      result.push_back(c);
    }
  }
  return result;
}

void ProbabilisticNetwork::ComputeGains(
    const ComponentCache& cache, const ConstraintComponent& component) const {
  const size_t k = component.members.size();
  const size_t m = cache.samples.size();
  const std::vector<CorrespondenceId>& member_local =
      cache.subproblem.member_local_ids;
  cache.member_gains.assign(k, 0.0);
  cache.gains_valid = true;
  if (m == 0) return;

  if (!cache.weights.empty()) {
    // Importance-weighted gains: the same Equations 4-5 with every sample
    // count replaced by its weight mass, so conditioning respects the soft
    // evidence exactly like the marginals do. Kept separate from the
    // integer-count path below, which must stay bit-identical when no
    // evidence touches the component.
    double total = 0.0;
    for (double w : cache.weights) total += w;
    if (total <= 0.0) return;
    std::vector<double> member_mass(k, 0.0);
    std::vector<double> joint(k * k, 0.0);
    std::vector<size_t> present;
    present.reserve(k);
    for (size_t i = 0; i < m; ++i) {
      const double w = cache.weights[i];
      if (w <= 0.0) continue;
      present.clear();
      for (size_t j = 0; j < k; ++j) {
        if (cache.samples[i].Test(member_local[j])) present.push_back(j);
      }
      for (size_t a : present) {
        member_mass[a] += w;
        for (size_t b : present) joint[a * k + b] += w;
      }
    }
    const double h_now = cache.entropy;
    for (size_t j = 0; j < k; ++j) {
      const double mass = member_mass[j];
      if (mass <= 0.0 || mass >= total) continue;  // Certain: IG is zero.
      const double p_c = mass / total;
      const double without = total - mass;
      double h_plus = 0.0;
      double h_minus = 0.0;
      for (size_t x = 0; x < k; ++x) {
        const double j_mass = joint[x * k + j];
        h_plus += BinaryEntropy(j_mass / mass);
        h_minus += BinaryEntropy((member_mass[x] - j_mass) / without);
      }
      const double h_conditional = p_c * h_plus + (1.0 - p_c) * h_minus;
      cache.member_gains[j] = h_now - h_conditional;
    }
    return;
  }

  // Membership column per member over the component's samples.
  std::vector<DynamicBitset> columns(k, DynamicBitset(m));
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (cache.samples[i].Test(member_local[j])) columns[j].Set(i);
    }
  }
  std::vector<size_t> totals(k, 0);
  for (size_t j = 0; j < k; ++j) totals[j] = columns[j].Count();

  // IG(c) over the component only: conditioning on c leaves every other
  // component's marginals untouched, so the cross-component entropy terms of
  // Equations 4-5 cancel exactly.
  const double h_now = cache.entropy;
  for (size_t j = 0; j < k; ++j) {
    const size_t with_c = totals[j];
    if (with_c == 0 || with_c == m) continue;  // Certain: IG is zero.
    const double p_c = static_cast<double>(with_c) / static_cast<double>(m);
    const size_t without_c = m - with_c;
    double h_plus = 0.0;
    double h_minus = 0.0;
    for (size_t x = 0; x < k; ++x) {
      const size_t joint = columns[x].IntersectionCount(columns[j]);
      h_plus += BinaryEntropy(static_cast<double>(joint) /
                              static_cast<double>(with_c));
      h_minus += BinaryEntropy(static_cast<double>(totals[x] - joint) /
                               static_cast<double>(without_c));
    }
    const double h_conditional = p_c * h_plus + (1.0 - p_c) * h_minus;
    cache.member_gains[j] = h_now - h_conditional;
  }
}

const std::vector<double>& ProbabilisticNetwork::ComponentGains(
    size_t i) const {
  const ComponentCache& cache = *caches_[i];
  // Compute-once latch: the lock covers the validity check, the fill, and
  // the return expression, so concurrent readers race neither the flag nor
  // the vector. The reference stays valid after release — only the
  // exclusive Assert/AssertSoft paths invalidate or replace the cache.
  MutexLock lock(cache.gains_mu_);
  if (!cache.gains_valid) ComputeGains(cache, index_.component(i));
  return cache.member_gains;
}

std::vector<double> ProbabilisticNetwork::InformationGains() const {
  std::vector<double> gains(artifact_->network().correspondence_count(), 0.0);
  for (size_t i = 0; i < caches_.size(); ++i) {
    const ConstraintComponent& component = index_.component(i);
    const std::vector<double>& member_gains = ComponentGains(i);
    for (size_t j = 0; j < component.members.size(); ++j) {
      gains[component.members[j]] = member_gains[j];
    }
  }
  return gains;
}

uint64_t ProbabilisticNetwork::component_generation(size_t i) const {
  return caches_[i]->built_at;
}

uint64_t ProbabilisticNetwork::component_evidence_revision(size_t i) const {
  return caches_[i]->evidence_revision;
}

double ProbabilisticNetwork::ComponentEffectiveSampleSize(size_t i) const {
  const ComponentCache& cache = *caches_[i];
  if (cache.weights.empty()) {
    return static_cast<double>(cache.samples.size());
  }
  return EffectiveSampleSize(cache.weights);
}

bool ProbabilisticNetwork::ComponentExhausted(size_t i) const {
  return caches_[i]->exhausted;
}

const std::vector<DynamicBitset>& ProbabilisticNetwork::samples() const {
  // Same latch pattern as ComponentGains: lock spans check, materialize,
  // and return; the view only changes under an exclusive assertion.
  MutexLock lock(*lazy_mu_);
  if (sample_view_valid_) return sample_view_;
  sample_view_.clear();

  DynamicBitset base = determined_.approved;
  if (caches_.empty()) {
    sample_view_.push_back(std::move(base));
  } else if (exhausted_) {
    // Complete instance space: the cross-product of the per-component
    // instance sets grafted onto the determined-in base.
    sample_view_.push_back(std::move(base));
    for (const auto& cache : caches_) {
      std::vector<DynamicBitset> next;
      next.reserve(sample_view_.size() * cache->samples.size());
      for (const DynamicBitset& partial : sample_view_) {
        for (const DynamicBitset& sample : cache->samples) {
          DynamicBitset instance = partial;
          OrGlobalized(sample, cache->subproblem.local_to_global, &instance);
          next.push_back(std::move(instance));
        }
      }
      sample_view_ = std::move(next);
    }
  } else {
    // Cyclic stitch: exact per-component marginals, independent joint.
    size_t length = 0;
    bool any_empty = false;
    for (const auto& cache : caches_) {
      length = std::max(length, cache->samples.size());
      any_empty = any_empty || cache->samples.empty();
    }
    if (!any_empty) {
      sample_view_.reserve(length);
      for (size_t i = 0; i < length; ++i) {
        DynamicBitset instance = base;
        for (const auto& cache : caches_) {
          OrGlobalized(cache->samples[i % cache->samples.size()],
                       cache->subproblem.local_to_global, &instance);
        }
        sample_view_.push_back(std::move(instance));
      }
    }
  }
  sample_view_valid_ = true;
  return sample_view_;
}

}  // namespace smn
