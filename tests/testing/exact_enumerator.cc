#include "tests/testing/exact_enumerator.h"

#include "core/matching_instance.h"

namespace smn {

ExactEnumerator::ExactEnumerator(const Network& network,
                                 const ConstraintSet& constraints,
                                 size_t max_candidates)
    : network_(network),
      constraints_(constraints),
      max_candidates_(max_candidates) {}

StatusOr<ExactEnumerationResult> ExactEnumerator::Enumerate(
    const Feedback& feedback) const {
  const size_t n = network_.correspondence_count();
  if (n > max_candidates_ || n > 63) {
    return Status::InvalidArgument(
        "ExactEnumerator: candidate set too large for exhaustive enumeration");
  }

  ExactEnumerationResult result;
  result.probabilities.assign(n, 0.0);

  uint64_t fplus = 0;
  uint64_t fminus = 0;
  for (CorrespondenceId c = 0; c < n; ++c) {
    if (feedback.IsApproved(c)) fplus |= (1ULL << c);
    if (feedback.IsDisapproved(c)) fminus |= (1ULL << c);
  }

  std::vector<size_t> counts(n, 0);
  const uint64_t limit = 1ULL << n;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    if ((mask & fplus) != fplus) continue;   // F+ ⊆ I
    if ((mask & fminus) != 0) continue;      // F- ∩ I = ∅
    DynamicBitset selection = DynamicBitset::FromWord(n, mask);
    if (!constraints_.IsSatisfied(selection)) continue;
    if (!IsMaximalInstance(constraints_, feedback, selection)) continue;
    selection.ForEachSetBit([&](size_t c) { ++counts[c]; });
    result.instances.push_back(std::move(selection));
  }

  if (!result.instances.empty()) {
    const double denom = static_cast<double>(result.instances.size());
    for (size_t c = 0; c < n; ++c) {
      result.probabilities[c] = static_cast<double>(counts[c]) / denom;
    }
  }
  return result;
}

StatusOr<size_t> ExactEnumerator::CountInstances(const Feedback& feedback) const {
  SMN_ASSIGN_OR_RETURN(ExactEnumerationResult result, Enumerate(feedback));
  return result.instances.size();
}

}  // namespace smn
