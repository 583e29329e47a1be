#ifndef SMN_CORE_SAMPLE_STORE_H_
#define SMN_CORE_SAMPLE_STORE_H_

#include <utility>
#include <vector>

#include "core/chain_diagnostics.h"
#include "core/constraint_set.h"
#include "core/feedback.h"
#include "core/network.h"
#include "core/parallel_sampler.h"
#include "core/soft_feedback.h"
#include "util/dynamic_bitset.h"
#include "util/rng.h"
#include "util/status.h"

namespace smn {

/// Tuning knobs for the maintained sample set Ω*.
struct SampleStoreOptions {
  /// Number of samples the store tries to keep (|Ω*|).
  size_t target_samples = 1000;
  /// The paper's tolerance threshold n_min: re-sample whenever fewer than
  /// this many samples survive view maintenance.
  size_t min_samples = 200;
  /// Networks with at most this many candidate correspondences are handled
  /// by exhaustive enumeration instead of sampling: Ω* then provably equals
  /// Ω. This subsumes the paper's two-round exhaustion heuristic, which can
  /// silently miss narrow-basin instances (e.g. singleton instances whose
  /// every extension opens a chain). Set to 0 to force pure sampling.
  size_t exact_threshold = 16;
  /// Multi-chain sampling engine configuration: chain count, worker threads,
  /// burn-in, and the per-chain walk knobs (`sampling.sampler`).
  ParallelSamplerOptions sampling;
};

/// Maintains the sample set Ω* across a stream of user assertions
/// (Section III-B, "View Maintenance"). On an assertion the store filters the
/// surviving samples — approvals keep instances containing c, disapprovals
/// keep instances without c — and re-samples when fewer than n_min samples
/// remain. When two consecutive sampling rounds cannot produce n_min distinct
/// instances, the instance space is declared exhausted: Ω* then holds every
/// matching instance exactly once and the probabilities of Equation 1 are
/// exact.
///
/// Concurrency contract: a SampleStore holds no internal locks. Const
/// accessors are safe to share across threads (they read state only written
/// by the mutating calls); Initialize/ApplyAssertion require exclusive
/// access. In the component-decomposed engine each store belongs to exactly
/// one ComponentCache, whose ownership discipline ProbabilisticNetwork
/// documents and -Wthread-safety enforces; in the service layer that whole
/// network (caches included) is in turn owned by exactly one
/// server::Session, whose per-session mutex serializes every mutating
/// request against snapshot reads.
class SampleStore {
 public:
  /// `network` and `constraints` must outlive the store.
  SampleStore(const Network& network, const ConstraintSet& constraints,
              SampleStoreOptions options = {});

  /// Fills the store from scratch under `feedback` (normally empty feedback
  /// at reconciliation start).
  Status Initialize(const Feedback& feedback, Rng* rng);

  /// View maintenance for the assertion of `c`. `feedback` must already
  /// include the assertion. Filters Ω' and re-samples if necessary.
  ///
  /// Note: the component-decomposed ProbabilisticNetwork engine does not
  /// route assertions through this — it rebuilds the touched component's
  /// store from a pure (anchor, generation) RNG stream instead, which is
  /// what keeps incremental and full-resample modes bit-identical. This
  /// remains the store-level view-maintenance API for direct SampleStore
  /// users (survivor filtering is cheaper than a re-sample when determinism
  /// across cache modes is not required).
  Status ApplyAssertion(CorrespondenceId c, bool approved,
                        const Feedback& feedback, Rng* rng);

  /// Current sample multiset Ω*.
  const std::vector<DynamicBitset>& samples() const { return samples_; }

  /// Moves Ω* out, leaving the store empty: for owners that keep only the
  /// samples and drop the store, so Ω* is never held twice.
  std::vector<DynamicBitset> TakeSamples() { return std::move(samples_); }

  /// Per-correspondence probabilities p_c = |{I ∈ Ω* | c ∈ I}| / |Ω*|
  /// (Equation 2). Returns an all-zero vector when the store is empty.
  std::vector<double> ComputeProbabilities() const;

  /// Likelihood-reweighted marginals under noisy-expert evidence:
  /// p_c = Σ_{I ∈ Ω*, c ∈ I} w(I) / Σ_{I ∈ Ω*} w(I) with
  /// w(I) ∝ Π_x P(answers on x | 1[x ∈ I]) — Equation 2 importance-weighted
  /// by the feedback likelihood (see ComputeImportanceWeights). With no
  /// recorded evidence, or evidence that zero-weights every stored sample,
  /// this returns exactly ComputeProbabilities(); with hard (ε = 0)
  /// consistent evidence it equals the post-filter marginals of the
  /// Assert/view-maintenance path over the same sample set — the soft layer
  /// degenerates to the paper's hard semantics in the ε → 0 limit.
  std::vector<double> ComputeWeightedProbabilities(
      const SoftEvidence& evidence) const;

  /// True when Ω* provably contains every matching instance (probabilities
  /// are exact).
  bool exhausted() const { return exhausted_; }

  /// Cross-chain Gelman–Rubin-style diagnostic of the most recent sampling
  /// round (see ChainDiagnostics). After an exact-enumeration fill the
  /// diagnostic reports `exact` (and therefore Converged()) — an exhausted
  /// store has nothing left to disagree about.
  const ChainDiagnostics& chain_diagnostics() const {
    return chain_diagnostics_;
  }

  /// Number of distinct instances currently in the store.
  size_t DistinctCount() const;

  /// The active configuration.
  const SampleStoreOptions& options() const { return options_; }

 private:
  /// Tops the store up to target_samples, deduplicating when the space turns
  /// out to be smaller than n_min (exhaustion detection).
  Status TopUp(const Feedback& feedback, Rng* rng);

  /// Drops duplicate instances in place.
  void Deduplicate();

  const Network& network_;
  const ConstraintSet& constraints_;
  ParallelSampler sampler_;
  SampleStoreOptions options_;
  std::vector<DynamicBitset> samples_;
  ChainDiagnostics chain_diagnostics_;
  bool exhausted_ = false;
};

}  // namespace smn

#endif  // SMN_CORE_SAMPLE_STORE_H_
