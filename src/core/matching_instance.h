#ifndef SMN_CORE_MATCHING_INSTANCE_H_
#define SMN_CORE_MATCHING_INSTANCE_H_

#include "core/constraint_set.h"
#include "core/feedback.h"
#include "core/walk_scratch.h"
#include "util/dynamic_bitset.h"
#include "util/rng.h"

namespace smn {

/// Predicates and operations on matching instances (Definition 1 of the
/// paper). A matching instance I ⊆ C is:
///   - consistent: I ⊨ Γ, F+ ⊆ I, F- ∩ I = ∅;
///   - maximal:    no c ∈ C \ (F- ∪ I) exists with I ∪ {c} ⊨ Γ.
/// Instances are bitsets over the candidate correspondence set C.

/// True when `selection` satisfies all constraints and respects the feedback.
bool IsConsistentInstance(const ConstraintSet& constraints,
                          const Feedback& feedback,
                          const DynamicBitset& selection);

/// True when no single unasserted correspondence can be added to the
/// (consistent) `selection` without violating a constraint.
bool IsMaximalInstance(const ConstraintSet& constraints,
                       const Feedback& feedback,
                       const DynamicBitset& selection);

/// True when `selection` is a matching instance per Definition 1.
bool IsMatchingInstance(const ConstraintSet& constraints,
                        const Feedback& feedback,
                        const DynamicBitset& selection);

/// Greedily extends a consistent `selection` until it is maximal, adding
/// addable correspondences in random order (randomization keeps the sampler
/// unbiased across the maximal instances extending the input). The input
/// must be consistent. The candidate shuffle buffer lives in `*scratch`, so
/// per-sample maximalization in the walk allocates nothing at steady state.
void Maximalize(const ConstraintSet& constraints, const Feedback& feedback,
                Rng* rng, DynamicBitset* selection, WalkScratch* scratch);

/// The repair distance Δ(I, C) of the paper: |I \ C| + |C \ I|. Since
/// instances are subsets of C this equals |C| - |I|.
size_t RepairDistance(const DynamicBitset& instance, size_t candidate_count);

}  // namespace smn

#endif  // SMN_CORE_MATCHING_INSTANCE_H_
