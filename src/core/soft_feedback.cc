#include "core/soft_feedback.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace smn {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

SoftEvidence::SoftEvidence(size_t correspondence_count)
    : tallies_(correspondence_count), evidenced_(correspondence_count) {}

Status SoftEvidence::Record(CorrespondenceId c, bool approved,
                            double error_rate) {
  if (c >= tallies_.size()) {
    return Status::OutOfRange("Record: correspondence id out of range");
  }
  if (std::isnan(error_rate) || error_rate < 0.0 || error_rate > 0.5) {
    return Status::InvalidArgument(
        "Record: worker error rate must be in [0, 0.5]");
  }
  Tally& tally = tallies_[c];
  if (approved) {
    ++tally.approvals;
  } else {
    ++tally.disapprovals;
  }
  if (error_rate == 0.0) {
    // Hard answer: tracked as a counter so likelihoods become exact ±∞
    // without -∞ arithmetic accumulating in the finite sums.
    if (approved) {
      ++tally.hard_approvals;
    } else {
      ++tally.hard_disapprovals;
    }
  } else {
    // An approval is observed with probability 1-ε when c ∈ I and ε when
    // c ∉ I; a disapproval the other way around.
    const double log_correct = std::log(1.0 - error_rate);
    const double log_error = std::log(error_rate);
    tally.log_in += approved ? log_correct : log_error;
    tally.log_out += approved ? log_error : log_correct;
  }
  evidenced_.Set(c);
  ++total_answers_;
  return Status::OK();
}

size_t SoftEvidence::answer_count(CorrespondenceId c) const {
  const Tally& tally = tallies_[c];
  return static_cast<size_t>(tally.approvals) + tally.disapprovals;
}

size_t SoftEvidence::approvals(CorrespondenceId c) const {
  return tallies_[c].approvals;
}

size_t SoftEvidence::disapprovals(CorrespondenceId c) const {
  return tallies_[c].disapprovals;
}

double SoftEvidence::LogLikelihoodIn(CorrespondenceId c) const {
  const Tally& tally = tallies_[c];
  if (tally.hard_disapprovals > 0) return kNegInf;
  return tally.log_in;
}

double SoftEvidence::LogLikelihoodOut(CorrespondenceId c) const {
  const Tally& tally = tallies_[c];
  if (tally.hard_approvals > 0) return kNegInf;
  return tally.log_out;
}

bool SoftEvidence::Contradictory(CorrespondenceId c) const {
  const Tally& tally = tallies_[c];
  return tally.hard_approvals > 0 && tally.hard_disapprovals > 0;
}

double SoftEvidence::LogLikelihoodRatio(CorrespondenceId c) const {
  if (Contradictory(c)) return 0.0;
  return LogLikelihoodIn(c) - LogLikelihoodOut(c);
}

double SoftEvidence::Posterior(CorrespondenceId c, double prior) const {
  if (prior <= 0.0) return 0.0;
  if (prior >= 1.0) return 1.0;
  if (Contradictory(c)) return prior;
  const double log_in = LogLikelihoodIn(c);
  const double log_out = LogLikelihoodOut(c);
  // Max-shift before exponentiating: long answer histories push both
  // log-likelihoods far negative, but their difference stays moderate.
  const double shift = std::max(log_in, log_out);
  const double weight_in = prior * std::exp(log_in - shift);
  const double weight_out = (1.0 - prior) * std::exp(log_out - shift);
  const double total = weight_in + weight_out;
  if (total <= 0.0) return prior;  // Both hypotheses impossible: keep prior.
  return weight_in / total;
}

std::vector<double> ComputeImportanceWeights(
    const SoftEvidence& evidence, const std::vector<DynamicBitset>& samples,
    const std::vector<CorrespondenceId>& members,
    const std::vector<CorrespondenceId>& member_bits) {
  const size_t m = samples.size();
  if (m == 0) return {};
  std::vector<double> log_weights(m, 0.0);
  for (size_t j = 0; j < members.size(); ++j) {
    const CorrespondenceId c = members[j];
    // No answers, or contradictory (uninformative) ones: skip.
    if (!evidence.HasEvidence(c) || evidence.Contradictory(c)) continue;
    const double log_in = evidence.LogLikelihoodIn(c);
    const double log_out = evidence.LogLikelihoodOut(c);
    for (size_t i = 0; i < m; ++i) {
      log_weights[i] += samples[i].Test(member_bits[j]) ? log_in : log_out;
    }
  }
  // The max-shift must come from a finite log-weight: a +inf or NaN entry
  // (a caller-supplied degenerate likelihood) would otherwise poison the
  // shift and turn every weight into NaN. Non-finite entries themselves map
  // to weight 0 below — a sample whose likelihood is not a number carries no
  // usable evidence.
  double max_log = kNegInf;
  for (double lw : log_weights) {
    if (std::isfinite(lw)) max_log = std::max(max_log, lw);
  }
  if (max_log == kNegInf) return {};  // No sample has a finite likelihood.
  std::vector<double> weights(m);
  for (size_t i = 0; i < m; ++i) {
    weights[i] =
        std::isfinite(log_weights[i]) ? std::exp(log_weights[i] - max_log) : 0.0;
  }
  return weights;
}

double EffectiveSampleSize(const std::vector<double>& weights) {
  double sum = 0.0;
  double sum_squares = 0.0;
  for (double w : weights) {
    // A single +inf or NaN weight makes sum_squares NaN, and NaN slips past
    // a `<= 0.0` guard — the ESS itself would come out NaN and defeat every
    // downstream `ess < threshold` resample trigger. A weight vector
    // containing a non-finite entry is degenerate: report zero effective
    // samples so callers resample.
    if (!std::isfinite(w)) return 0.0;
    sum += w;
    sum_squares += w * w;
  }
  // `!(x > 0)` instead of `x <= 0` so a NaN from accumulated rounding also
  // lands in the degenerate branch.
  if (!(sum_squares > 0.0)) return 0.0;
  return (sum * sum) / sum_squares;
}

}  // namespace smn
