#ifndef SMN_CORE_SOFT_FEEDBACK_H_
#define SMN_CORE_SOFT_FEEDBACK_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "util/dynamic_bitset.h"
#include "util/status.h"

namespace smn {

/// Per-correspondence tally of noisy expert answers under the independent
/// worker error-rate model (extension beyond the paper, which assumes a
/// perfect expert; cf. the quality-aware crowdsourced matching literature).
///
/// Each elicited answer comes from a worker whose error rate ε ∈ [0, 0.5] is
/// part of the evidence model: the worker reports the true membership of the
/// correspondence with probability 1-ε and the opposite with probability ε,
/// independently across answers. The tally accumulates, per correspondence,
/// the log-likelihood of the observed answer multiset under both hypotheses
///   L_in(c)  = Σ_answers log P(answer | c ∈ I),
///   L_out(c) = Σ_answers log P(answer | c ∉ I),
/// which is all the probabilistic machinery needs: importance weights for
/// stored samples factorize over correspondences (see
/// ComputeImportanceWeights) and the posterior of a single correspondence is
/// a one-line log-odds update (see Posterior).
///
/// Hard answers (ε = 0) are tracked as explicit counters instead of -∞
/// arithmetic: a hard disapproval makes L_in(c) exactly -∞ (the answer is
/// impossible if c ∈ I) and symmetrically for approvals. Contradictory hard
/// answers on the same correspondence are tolerated — unlike Feedback, this
/// is a ledger of fallible answers, not ground truth — and flagged via
/// Contradictory(); contradictory evidence is treated as uninformative by
/// every consumer. In the ε → 0 limit with consistent answers the induced
/// sample weighting degenerates to the hard Feedback filter (weight 1 on
/// instances respecting the answers, 0 otherwise).
class SoftEvidence {
 public:
  /// Empty evidence over a candidate set of `correspondence_count`.
  explicit SoftEvidence(size_t correspondence_count);

  /// Records one elicited answer on `c` from a worker with the given error
  /// rate. Fails with OutOfRange for an invalid id and InvalidArgument for
  /// an error rate outside [0, 0.5] (ε > 0.5 would model an adversarial
  /// worker whose answers should be inverted upstream; NaN is rejected).
  Status Record(CorrespondenceId c, bool approved, double error_rate);

  /// True when at least one answer was recorded on `c`.
  bool HasEvidence(CorrespondenceId c) const { return evidenced_.Test(c); }

  /// Correspondences with at least one recorded answer, as a bitset over C.
  const DynamicBitset& evidenced() const { return evidenced_; }

  /// Number of answers recorded on `c`.
  size_t answer_count(CorrespondenceId c) const;
  /// Number of approving answers recorded on `c`.
  size_t approvals(CorrespondenceId c) const;
  /// Number of disapproving answers recorded on `c`.
  size_t disapprovals(CorrespondenceId c) const;

  /// Total answers recorded across all correspondences — the elicitation
  /// count of the soft-evidence ledger (every re-ask counts).
  size_t total_answers() const { return total_answers_; }

  /// Size of the candidate set this evidence ranges over.
  size_t correspondence_count() const { return tallies_.size(); }

  /// L_in(c): log-likelihood of the recorded answers on `c` given c ∈ I.
  /// -∞ when a hard (ε = 0) disapproval was recorded.
  double LogLikelihoodIn(CorrespondenceId c) const;

  /// L_out(c): log-likelihood of the recorded answers on `c` given c ∉ I.
  /// -∞ when a hard (ε = 0) approval was recorded.
  double LogLikelihoodOut(CorrespondenceId c) const;

  /// L_in(c) - L_out(c): positive evidence favors membership. ±∞ under
  /// one-sided hard answers; 0 (by convention) when Contradictory(c).
  double LogLikelihoodRatio(CorrespondenceId c) const;

  /// True when hard (ε = 0) answers on `c` contradict each other; such
  /// evidence is treated as uninformative (zero log-likelihood ratio,
  /// excluded from importance weighting).
  bool Contradictory(CorrespondenceId c) const;

  /// Posterior P(c ∈ I | answers) for a prior P(c ∈ I) = `prior` under the
  /// independent-answer model: a log-odds update by LogLikelihoodRatio,
  /// computed in a numerically stable max-shifted form. Degenerate priors
  /// (≤ 0, ≥ 1) are returned unchanged, as is the prior under contradictory
  /// hard evidence.
  double Posterior(CorrespondenceId c, double prior) const;

 private:
  struct Tally {
    uint32_t approvals = 0;
    uint32_t disapprovals = 0;
    uint32_t hard_approvals = 0;
    uint32_t hard_disapprovals = 0;
    /// Finite (ε > 0) contributions to L_in / L_out.
    double log_in = 0.0;
    double log_out = 0.0;
  };

  std::vector<Tally> tallies_;
  DynamicBitset evidenced_;
  size_t total_answers_ = 0;
};

/// Unnormalized importance weights of `samples` under the evidence on
/// `members`:
///   w(I) ∝ Π_{c ∈ members} P(answers on c | 1[c ∈ I]),
/// max-shifted so the largest weight is exactly 1.0 (numerically stable for
/// long answer histories). `members` are correspondence ids into
/// `evidence`, and member j is bit `member_bits[j]` of every sample, so the
/// samples may live in a component's local coordinates. Restricting to a
/// component's members is exact: evidence on any other correspondence
/// contributes the same constant factor to every sample of the component
/// and cancels under normalization. Members are visited in the given order,
/// which fixes the summation order, and contradictory hard evidence is
/// skipped (uninformative). Returns an empty vector when `samples` is empty
/// or when the evidence assigns zero (or non-finite) likelihood to every
/// sample (the caller should then fall back to unweighted estimates rather
/// than divide by zero).
std::vector<double> ComputeImportanceWeights(
    const SoftEvidence& evidence, const std::vector<DynamicBitset>& samples,
    const std::vector<CorrespondenceId>& members,
    const std::vector<CorrespondenceId>& member_bits);

/// Kish effective sample size (Σw)² / Σw² of an importance-weight vector —
/// scale-invariant, equal to the sample count for uniform weights and
/// approaching 1 as the evidence concentrates mass on a single sample. 0 for
/// an empty or all-zero weight vector. Consumers use it to judge how much
/// resolution the reweighted marginals still have.
double EffectiveSampleSize(const std::vector<double>& weights);

}  // namespace smn

#endif  // SMN_CORE_SOFT_FEEDBACK_H_
