#ifndef SMN_CORE_PROBABILISTIC_NETWORK_H_
#define SMN_CORE_PROBABILISTIC_NETWORK_H_

#include <memory>
#include <vector>

#include "core/chain_diagnostics.h"
#include "core/compiled_artifact.h"
#include "core/component_index.h"
#include "core/constraint_set.h"
#include "core/feedback.h"
#include "core/network.h"
#include "core/parallel_sampler.h"
#include "core/soft_feedback.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace smn {

/// Tuning knobs for one component's maintained sample set Ω*_K.
struct SampleStoreOptions {
  /// Number of samples a sampled component tries to keep (|Ω*_K|).
  size_t target_samples = 1000;
  /// The paper's tolerance threshold n_min: when two consecutive sampling
  /// rounds cannot produce this many distinct instances, the instance space
  /// is smaller than n_min and Ω*_K is declared exhausted (Section III-B).
  size_t min_samples = 200;
  /// Components with at most this many *members* are enumerated
  /// exhaustively instead of sampled: Ω*_K then provably equals Ω_K. The
  /// enumeration is capped at 63 members; larger components are sampled
  /// whatever this says. Set to 0 to force sampling everywhere.
  size_t exact_threshold = 16;
  /// Multi-chain sampling engine configuration: chain count, worker threads,
  /// burn-in, and the per-chain walk knobs (`sampling.sampler`).
  ParallelSamplerOptions sampling;
};

/// Tuning knobs for the probabilistic matching network.
struct ProbabilisticNetworkOptions {
  /// Per-component sample-set configuration (|Ω*_K| targets, the exact
  /// threshold, and the multi-chain sampling engine knobs).
  SampleStoreOptions store;
  /// Incremental (component-cached) reconciliation. When true, integrating
  /// an assertion re-samples only the constraint-connected component the
  /// asserted correspondence belongs to; all other components keep their
  /// cached sample sets, which conditional independence across components
  /// proves unchanged. When false, every component is recomputed from
  /// scratch on every assertion — the O(|C|) baseline. Both modes derive
  /// per-component RNG streams purely from (component anchor, rebuild
  /// generation), so they produce bit-identical probabilities, H(C, P), and
  /// reconciliation traces; `false` exists for equivalence testing and A/B
  /// benchmarking (bench_incremental_reconcile).
  bool incremental = true;
  /// Upper bound on the materialized samples() view. When every component is
  /// exhausted and the cross-product of the per-component instance sets has
  /// at most this many elements, samples() is the complete instance space Ω
  /// and exhausted() reports true.
  size_t sample_view_cap = 4096;
};

/// The probabilistic matching network <N, P> of the paper: the single state
/// carried through reconciliation. Wraps the candidate network, the user
/// feedback F and the derived correspondence probabilities P, and answers
/// the decision-theoretic queries (network uncertainty, information gain)
/// that drive uncertainty reduction.
///
/// Internally the candidate set is partitioned into constraint-connected
/// components (ComponentIndex): conditioned on the feedback closure,
/// distinct components are mutually independent, so the network keeps one
/// sample set Ω*_K per component K and Assert re-samples only the touched
/// component. Per-component RNG streams are forked purely from the
/// component anchor and its rebuild generation, making every derived
/// quantity a deterministic function of the Create-time seed and the
/// assertion sequence — independent of thread count and of whether the
/// incremental cache is enabled.
///
/// The state is explicitly split: everything compile-time immutable —
/// network, compiled constraints, coupling groups, the empty-feedback
/// closure and partition — lives in a shared CompiledArtifact, while this
/// object holds only the per-session mutable state (the feedback and
/// soft-evidence ledgers, the per-component sample/gains caches). Under the
/// borrowing Create the wrapped Network and ConstraintSet must outlive this
/// object; under the artifact Create the shared_ptr keeps them alive.
///
/// Concurrency contract: const accessors — probabilities(), Uncertainty(),
/// InformationGains(), ComponentGains(), samples(), the diagnostics — are
/// safe to call concurrently from any number of threads on one instance;
/// the lazily memoized state they share (the per-component gain caches, the
/// stitched sample view and the merged diagnostics) is protected by
/// annotated locks, enforced at compile time by -Wthread-safety. The
/// mutating entry points (Assert, AssertSoft) require exclusive access:
/// callers serialize writes against all other calls, the discipline a
/// session manager provides naturally (snapshot-consistent reads between
/// asserts).
class ProbabilisticNetwork {
 public:
  /// Builds the network state and draws the initial per-component sample
  /// sets. Advances `*rng` exactly once (the split seeds every
  /// per-component stream). Compiles a private CompiledArtifact internally;
  /// `network` and `constraints` must outlive this object.
  static StatusOr<ProbabilisticNetwork> Create(
      const Network& network, const ConstraintSet& constraints,
      ProbabilisticNetworkOptions options, Rng* rng);

  /// Session-style construction over a shared compiled artifact: copies only
  /// the cheap mutable seeds (the initial closure and partition) from the
  /// artifact and draws the initial per-component sample sets. N sessions
  /// over one tenant share one artifact — the compiled constraint tables and
  /// coupling groups are never duplicated. Bit-identical to the borrowing
  /// Create for the same network, constraints, options, and rng stream.
  static StatusOr<ProbabilisticNetwork> Create(
      std::shared_ptr<const CompiledArtifact> artifact,
      ProbabilisticNetworkOptions options, Rng* rng);

  /// Movable, not copyable (per-component caches are owned exclusively).
  ProbabilisticNetwork(ProbabilisticNetwork&&) = default;
  /// Move assignment.
  ProbabilisticNetwork& operator=(ProbabilisticNetwork&&) = default;

  /// The wrapped candidate network.
  const Network& network() const { return artifact_->network(); }
  /// The compiled constraints Γ.
  const ConstraintSet& constraints() const { return artifact_->constraints(); }

  /// The shared immutable compiled artifact this session state derives from.
  /// Sessions created over the same tenant return the same object.
  const std::shared_ptr<const CompiledArtifact>& artifact() const {
    return artifact_;
  }
  /// The raw expert feedback F = <F+, F->.
  const Feedback& feedback() const { return feedback_; }

  /// Current probabilities P (Equation 2). Asserted correspondences — and
  /// correspondences logically forced by the feedback closure — have
  /// probability exactly 1 or 0.
  const std::vector<double>& probabilities() const { return probabilities_; }
  /// Probability of a single correspondence.
  double probability(CorrespondenceId c) const { return probabilities_[c]; }

  /// Records an expert assertion, recomputes the feedback closure, and
  /// re-samples the touched component (every component when
  /// options.incremental is false). Fails when `c` contradicts an earlier
  /// assertion or the feedback closure becomes logically inconsistent.
  /// `rng` is accepted for interface stability but not consumed: all
  /// sampling randomness derives from per-component streams forked off the
  /// Create-time split, which is what keeps incremental and full re-sampling
  /// bit-identical. Besides the re-sampling, the work is O(touched
  /// component): the partition is spliced in place and only the touched
  /// members' probabilities are rewritten.
  Status Assert(CorrespondenceId c, bool approved, Rng* rng);

  /// Records one noisy expert answer on `c` under the worker error-rate
  /// model (see SoftEvidence) and reweights the touched component's
  /// marginals by importance-weighting its stored samples with the feedback
  /// likelihood — no re-sampling, no closure change, and no `rng`
  /// consumption (the parameter mirrors Assert for interface stability).
  ///
  /// `error_rate` exactly 0 is the perfect-expert limit and delegates to
  /// the hard Assert verbatim, so the soft path at ε = 0 is bit-identical
  /// to the paper's Algorithm 1 by construction; rates outside [0, 0.5]
  /// (negative, NaN, > 0.5) are rejected. Evidence on a correspondence
  /// already determined by the feedback closure is recorded in the ledger
  /// but cannot move its pinned probability. Fails with OutOfRange /
  /// InvalidArgument on bad inputs (and, in the ε = 0 case, with whatever
  /// Assert fails with).
  Status AssertSoft(CorrespondenceId c, bool approved, double error_rate,
                    Rng* rng);

  /// The accumulated noisy-answer ledger driving the likelihood reweighting.
  const SoftEvidence& soft_evidence() const { return soft_evidence_; }

  /// The network uncertainty H(C, P) of Equation 3, in bits: the sum of the
  /// maintained per-component entropies (determined correspondences
  /// contribute zero).
  double Uncertainty() const;

  /// All correspondences whose probability is strictly between 0 and 1 —
  /// the candidates eligible for assertion in Algorithm 1.
  std::vector<CorrespondenceId> UncertainCorrespondences() const;

  /// Information gain IG(c) of Equations 4-5 for every correspondence
  /// (certain correspondences get 0). Assembled from per-component gain
  /// caches: conditioning on c only changes marginals inside c's component,
  /// so the cross-component entropy terms cancel and IG(c) is computed from
  /// the component's samples alone — O(|K|² · |Ω*_K|) instead of
  /// O(|C|² · |Ω*|). Caches are memoized per component generation.
  std::vector<double> InformationGains() const;

  /// A deterministic whole-network view of the maintained samples. When
  /// every component is exhausted and the instance-space cross-product fits
  /// options.sample_view_cap, this is exactly Ω (each instance once);
  /// otherwise it cyclically stitches the per-component sample sets into
  /// |Ω*| = max_K |Ω*_K| full instances. Every stitched element is a valid
  /// matching instance, but the view is an approximation: the joint is
  /// independent across components by construction, and a component whose
  /// sample count does not divide the stitch length has its early samples
  /// slightly over-weighted — use probabilities() for marginals, never
  /// frequencies over this view.
  const std::vector<DynamicBitset>& samples() const;

  /// True when samples() provably holds every matching instance.
  bool exhausted() const { return exhausted_; }

  /// Cross-chain convergence diagnostic merged over the per-component
  /// sampling rounds: `exact` when every component was enumerated
  /// exhaustively, otherwise the pessimistic combination (minimum usable
  /// chains, maximum R̂, per-correspondence R̂ mapped back to global ids).
  /// Callers gate trust in the probability estimates on
  /// chain_diagnostics().Converged(). Merged lazily on first use after an
  /// assertion.
  const ChainDiagnostics& chain_diagnostics() const;

  /// The feedback closure: correspondences logically determined in or out
  /// by the assertions made so far (see PropagateFeedback).
  const DeterminedSet& determined() const { return determined_; }

  /// Number of constraint-connected components among the undetermined
  /// correspondences.
  size_t component_count() const { return index_.component_count(); }

  /// Component `i` (ascending anchor order).
  const ConstraintComponent& component(size_t i) const {
    return index_.component(i);
  }

  /// Index of the component containing `c`, or ComponentIndex::kNoComponent
  /// when `c` is determined.
  size_t ComponentOf(CorrespondenceId c) const { return index_.ComponentOf(c); }

  /// Generation of component `i`: the assertion count at which its cache was
  /// last rebuilt. A (anchor, generation) pair uniquely identifies a cache's
  /// *sample set*; selection strategies key their incremental gain
  /// bookkeeping on it together with component_evidence_revision (soft
  /// evidence changes marginals and gains without re-sampling).
  uint64_t component_generation(size_t i) const;

  /// Number of soft-evidence reweights applied to component `i` since its
  /// cache was last rebuilt (0 right after a rebuild). The pair
  /// (generation, evidence revision) uniquely identifies the component's
  /// marginal/gain state.
  uint64_t component_evidence_revision(size_t i) const;

  /// Kish effective sample size of component `i` under the current
  /// importance weights: |Ω*_K| when no soft evidence touches the component,
  /// shrinking toward 1 as evidence concentrates the weight mass. A
  /// collapsed ESS means the reweighted marginals have little resolution
  /// left and the caller should either commit a hard assertion (which
  /// re-samples under the new closure) or distrust the estimates.
  double ComponentEffectiveSampleSize(size_t i) const;

  /// Per-member information gains of component `i` (aligned with
  /// component(i).members). Computed lazily and memoized until the component
  /// is rebuilt.
  const std::vector<double>& ComponentGains(size_t i) const;

  /// True when component `i`'s sample set provably holds its every
  /// sub-instance.
  bool ComponentExhausted(size_t i) const;

  /// Number of assertions integrated so far. Also serves as a partition
  /// version: the component structure only changes when this advances.
  uint64_t assertion_count() const { return assertion_count_; }

  /// Process-unique id of this network instance, assigned at Create and
  /// preserved across moves. Selection strategies key their incremental
  /// caches on it: a fresh network reusing a destroyed one's address must
  /// not alias its cached per-component state.
  uint64_t instance_id() const { return instance_id_; }

 private:
  /// One component's cached reconciliation state: its projected subproblem,
  /// the maintained sample set in global coordinates, and the derived
  /// marginals/entropy/gains. Invariant: the cache is a pure function of
  /// (subproblem candidates, restricted feedback, anchor, built_at), which
  /// is what makes incremental reuse and full recomputation bit-identical.
  struct ComponentCache {
    ComponentSubproblem subproblem;
    /// Ω*_K in *subproblem-local* coordinates (width = subproblem candidate
    /// count, not the global network width — O(component), which is what
    /// keeps million-candidate sessions resident). Consumers index members
    /// through subproblem.member_local_ids; the stitched samples() view
    /// globalizes lazily.
    std::vector<DynamicBitset> samples;
    /// Marginals of the component members (aligned with members).
    std::vector<double> member_probabilities;
    /// Σ h(p_member) over the component, in bits.
    double entropy = 0.0;
    /// True when `samples` is provably all of Ω_K.
    bool exhausted = false;
    /// Diagnostics of the fill (psrf in local ids; exact for enumeration).
    ChainDiagnostics diagnostics;
    /// Assertion count at the time this cache was built.
    uint64_t built_at = 0;
    /// Unnormalized importance weights over `samples` under the soft
    /// evidence restricted to the component members (max weight exactly 1).
    /// Empty = uniform (no member evidence, or evidence that zero-weights
    /// every sample): marginals then use the exact unweighted counts, which
    /// keeps the evidence-free path bit-identical to the pre-soft engine.
    std::vector<double> weights;
    /// Reweights applied since the cache was built (see
    /// component_evidence_revision).
    uint64_t evidence_revision = 0;
    /// Guards the lazy gain memoization below — the only cache state
    /// mutated under const accessors (everything above is written solely by
    /// the exclusive Assert/AssertSoft paths). Caches live behind
    /// unique_ptr, so the non-movable mutex never has to move.
    mutable Mutex gains_mu_{"pn.component_gains", LockRank::kComponentGains};
    /// Lazily computed member gains (aligned with members).
    mutable std::vector<double> member_gains SMN_GUARDED_BY(gains_mu_);
    /// True when member_gains is up to date.
    mutable bool gains_valid SMN_GUARDED_BY(gains_mu_) = false;
  };

  ProbabilisticNetwork(std::shared_ptr<const CompiledArtifact> artifact,
                       ProbabilisticNetworkOptions options);

  /// Builds (or rebuilds) the cache for `component` under the given feedback
  /// closure. `frozen_candidates` reproduces a previous projection
  /// bit-for-bit (full-resample mode); nullptr derives the candidate set
  /// fresh. Pure with respect to network state: Assert stages caches through
  /// this before committing anything.
  StatusOr<std::unique_ptr<ComponentCache>> BuildCache(
      const ConstraintComponent& component,
      const std::vector<CorrespondenceId>* frozen_candidates,
      uint64_t built_at, const DeterminedSet& determined) const;

  /// Writes `cache`'s member probabilities into probabilities_ and adds it
  /// to the exhausted-flag tallies; Retract removes it from the tallies.
  void Publish(const ComponentCache& cache);
  void Retract(const ComponentCache& cache);

  /// Recomputes exhausted_ from the tallies, walking the per-component
  /// sample counts only when every component is exhausted.
  void RefreshExhausted();

  /// Recomputes `cache`'s importance weights, member marginals, and entropy
  /// from the soft evidence on the component's members. No-op (weights stay
  /// empty, unweighted marginals untouched) when no member carries
  /// evidence; falls back to the unweighted marginals when the evidence
  /// zero-weights every stored sample. Invalidates the cached gains.
  void ApplyEvidence(ComponentCache* cache,
                     const ConstraintComponent& component) const;

  /// Exact integer-count marginals and entropy of an unweighted sample set —
  /// the evidence-free baseline both BuildCache and the zero-likelihood
  /// fallback of ApplyEvidence derive from.
  static void ComputeUnweightedMarginals(ComponentCache* cache,
                                         const ConstraintComponent& component);

  /// Computes a cache's member gains from its samples (see
  /// InformationGains). Caller holds the cache's gain lock (ComponentGains
  /// is the single call site).
  void ComputeGains(const ComponentCache& cache,
                    const ConstraintComponent& component) const
      SMN_REQUIRES(cache.gains_mu_);

  /// Shared immutable compiled state: network, compiled constraints,
  /// coupling groups, and the empty-feedback baseline. Everything below is
  /// this session's private mutable state.
  std::shared_ptr<const CompiledArtifact> artifact_;
  ProbabilisticNetworkOptions options_;
  Feedback feedback_;
  SoftEvidence soft_evidence_;
  DeterminedSet determined_;
  ComponentIndex index_;
  /// Parallel to index_ components (ascending anchor order); spliced
  /// alongside the index.
  std::vector<std::unique_ptr<ComponentCache>> caches_;
  /// Parallel to caches_: each cache's entropy, kept contiguous so
  /// Uncertainty() sums without touching the caches themselves.
  std::vector<double> entropies_;
  /// Seed generator split off the Create-time rng; every per-component
  /// stream is a pure Fork of it keyed by (anchor, built_at).
  Rng base_;
  uint64_t assertion_count_ = 0;
  uint64_t instance_id_ = 0;
  std::vector<double> probabilities_;
  /// Live caches that are not exhausted, and that hold no sample: exhausted_
  /// is false while the first is nonzero, and a zero sample count ends the
  /// cross-product walk.
  size_t unexhausted_caches_ = 0;
  size_t empty_caches_ = 0;
  bool exhausted_ = false;
  /// Guards the lazily derived whole-network views: the stitched sample view
  /// (samples()) and the merged diagnostics (chain_diagnostics()), each
  /// materialized on first use after an assertion. Held via unique_ptr so
  /// the network stays movable; never null on a live instance.
  mutable std::unique_ptr<Mutex> lazy_mu_;
  mutable std::vector<DynamicBitset> sample_view_ SMN_GUARDED_BY(*lazy_mu_);
  mutable bool sample_view_valid_ SMN_GUARDED_BY(*lazy_mu_) = false;
  mutable ChainDiagnostics merged_diagnostics_ SMN_GUARDED_BY(*lazy_mu_);
  mutable bool diagnostics_valid_ SMN_GUARDED_BY(*lazy_mu_) = false;
};

}  // namespace smn

#endif  // SMN_CORE_PROBABILISTIC_NETWORK_H_
