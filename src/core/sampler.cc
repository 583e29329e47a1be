#include "core/sampler.h"

#include <array>
#include <cmath>
#include <utility>

#include "core/matching_instance.h"
#include "core/repair.h"

namespace smn {
namespace {

/// exp(-k) for the integral annealing jump sizes (Δ is a symmetric
/// difference count), filled at load time by the same std::exp the naive
/// path called per step — the acceptance probabilities are bit-identical,
/// the hot loop just stops paying libm (and, being namespace-scope, skips
/// the function-local static guard). Jumps beyond the table are
/// astronomically unlikely to be rejected but still computed exactly.
const std::array<double, 64> kNegExpTable = [] {
  std::array<double, 64> filled{};
  for (size_t k = 0; k < filled.size(); ++k) {
    filled[k] = std::exp(-static_cast<double>(k));
  }
  return filled;
}();

double NegExp(size_t delta) {
  if (delta < kNegExpTable.size()) return kNegExpTable[delta];
  return std::exp(-static_cast<double>(delta));
}

}  // namespace

Sampler::Sampler(const Network& network, const ConstraintSet& constraints,
                 SamplerOptions options)
    : network_(network), constraints_(constraints), options_(options) {}

CorrespondenceId Sampler::PickCandidate(const DynamicBitset& current,
                                        const Feedback& feedback, Rng* rng,
                                        WalkScratch* scratch) const {
  const size_t n = network_.correspondence_count();
  if (n == 0) return kInvalidCorrespondence;
  // Rejection sampling is fast while candidates are plentiful; fall back to
  // an explicit scan when the walk has saturated most of C. The scan reuses
  // the scratch's id buffer instead of building a fresh vector. The common
  // empty-F- case is hoisted out of the rejection loop.
  const bool no_disapproved = feedback.disapproved().None();
  for (int attempt = 0; attempt < 32; ++attempt) {
    const CorrespondenceId c = static_cast<CorrespondenceId>(rng->Index(n));
    if (!current.Test(c) && (no_disapproved || !feedback.IsDisapproved(c))) {
      return c;
    }
  }
  std::vector<CorrespondenceId>& eligible = scratch->eligible;
  eligible.clear();
  for (CorrespondenceId c = 0; c < n; ++c) {
    if (!current.Test(c) && !feedback.IsDisapproved(c)) eligible.push_back(c);
  }
  if (eligible.empty()) return kInvalidCorrespondence;
  return eligible[rng->Index(eligible.size())];
}

Status Sampler::Step(const Feedback& feedback, Rng* rng, DynamicBitset* state,
                     WalkScratch* scratch) const {
  scratch->Prepare(network_.correspondence_count());
  const CorrespondenceId candidate =
      PickCandidate(*state, feedback, rng, scratch);
  if (candidate == kInvalidCorrespondence) return Status::OK();

  DynamicBitset& next = scratch->next_state;
  next.CopyFrom(*state);  // Equal sizes: copies in place, no allocation.
  if (!RepairProposal(constraints_, feedback, candidate, &next, scratch,
                      options_.repair)) {
    // Rare dead end: the proposal's violations cannot be resolved without
    // touching protected correspondences (e.g. re-opening an approved
    // triangle whose closing correspondence already had to go). Skip the
    // proposal; the chain state stays valid.
    return Status::OK();
  }

  if (!options_.annealing) {
    std::swap(*state, next);
    return Status::OK();
  }
  const double accept_probability =
      1.0 - NegExp(state->SymmetricDifferenceCount(next));
  if (rng->Bernoulli(accept_probability)) std::swap(*state, next);
  return Status::OK();
}

StatusOr<DynamicBitset> Sampler::NextInstance(const DynamicBitset& current,
                                              const Feedback& feedback,
                                              Rng* rng) const {
  DynamicBitset state = current;
  WalkScratch scratch;
  SMN_RETURN_IF_ERROR(Step(feedback, rng, &state, &scratch));
  return state;
}

StatusOr<DynamicBitset> Sampler::ChainStart(const Feedback& feedback,
                                            bool overdisperse, Rng* rng,
                                            WalkScratch* scratch) const {
  scratch->Prepare(network_.correspondence_count());
  DynamicBitset state = feedback.approved();
  if (!constraints_.IsSatisfied(state)) {
    // The cycle constraint is non-monotone: a partial F+ can be chain-open
    // even though consistent supersets exist (the expert approved two sides
    // of a triangle but not yet the third). Closure-repair finds the
    // smallest consistent superset to start the walk from; if none exists,
    // F+ is genuinely contradictory and the repair reports it.
    const Status repaired = RepairAll(constraints_, feedback, &state, scratch,
                                      options_.repair);
    if (!repaired.ok()) {
      return Status::FailedPrecondition(
          "ChainStart: the approved set F+ violates the integrity "
          "constraints and cannot be closure-repaired: " +
          repaired.message());
    }
  }
  if (overdisperse) Maximalize(constraints_, feedback, rng, &state, scratch);
  return state;
}

Status Sampler::SampleChain(const Feedback& feedback, size_t count, Rng* rng,
                            std::vector<DynamicBitset>* out,
                            WalkScratch* scratch) const {
  SMN_ASSIGN_OR_RETURN(
      DynamicBitset state,
      ChainStart(feedback, /*overdisperse=*/false, rng, scratch));
  return ContinueChain(feedback, count, rng, &state, out, scratch);
}

Status Sampler::ContinueChain(const Feedback& feedback, size_t count, Rng* rng,
                              DynamicBitset* state_ptr,
                              std::vector<DynamicBitset>* out,
                              WalkScratch* scratch) const {
  DynamicBitset& state = *state_ptr;
  out->reserve(out->size() + count);
  for (size_t i = 0; i < count; ++i) {
    for (size_t step = 0; step < options_.walk_steps; ++step) {
      SMN_RETURN_IF_ERROR(Step(feedback, rng, &state, scratch));
    }
    if (options_.maximalize) {
      DynamicBitset sample = state;
      Maximalize(constraints_, feedback, rng, &sample, scratch);
      out->push_back(std::move(sample));
    } else {
      out->push_back(state);
    }
  }
  return Status::OK();
}

}  // namespace smn
