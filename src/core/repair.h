#ifndef SMN_CORE_REPAIR_H_
#define SMN_CORE_REPAIR_H_

#include "core/constraint_set.h"
#include "core/feedback.h"
#include "core/types.h"
#include "core/walk_scratch.h"
#include "util/dynamic_bitset.h"
#include "util/status.h"

namespace smn {

/// Tuning knobs for the repair procedure.
struct RepairOptions {
  /// When a violation names a missing closing correspondence (an open chain
  /// of the cycle constraint), first try to resolve it by *adding* that
  /// closing correspondence — accepted only when the addition introduces no
  /// new violations and the correspondence is not disapproved.
  ///
  /// The paper's Algorithm 4 repairs by greedy removal only. Removal-only
  /// repair makes closed triangles unreachable for the sampling random walk
  /// (any two sides of a triangle are inconsistent without the third, so the
  /// walk can never assemble one by single additions), which skews Ω* away
  /// from exactly the large consistent instances the paper's experiments
  /// rely on. Closure fixes the reachability gap while preserving all of
  /// Algorithm 4's guarantees; set to false to reproduce the literal
  /// algorithm (ablation).
  bool close_cycles = true;
};

/// Algorithm 4 of the paper (plus optional cycle closure, see RepairOptions):
/// adds `added` to `*instance` (which must satisfy the constraints
/// beforehand) and resolves all resulting violations — by closing open
/// chains when safe, otherwise by greedily removing, one at a time, the
/// correspondence involved in the most violations. Approved correspondences
/// (F+) and `added` itself are protected from removal; if the violations can
/// only be resolved by dropping `added`, it is dropped, and if even that
/// does not help — i.e. F+ is inconsistent by itself — an Internal error is
/// returned.
///
/// Runs in O(|I|^2) worst case; the violation worklist is maintained
/// incrementally in `*scratch`, so typical repairs touch only the
/// neighborhood of `added` and allocate nothing at steady state. This is
/// the kernel entry point the sampler's walk steps use; `*scratch` must not
/// be shared across threads.
Status RepairInstance(const ConstraintSet& constraints, const Feedback& feedback,
                      CorrespondenceId added, DynamicBitset* instance,
                      WalkScratch* scratch, const RepairOptions& options = {});

/// Repairs an arbitrary (possibly wildly inconsistent) selection by the same
/// rules, protecting only F+, with working memory in `*scratch`. Used to
/// seed chains from a chain-open F+ and to turn raw matcher output into a
/// consistent matching.
Status RepairAll(const ConstraintSet& constraints, const Feedback& feedback,
                 DynamicBitset* instance, WalkScratch* scratch,
                 const RepairOptions& options = {});

/// One-shot RepairAll that allocates its working memory for this call only
/// (setup paths such as turning raw matcher output into a consistent
/// matching). Identical results to the scratch-threaded entry point; loops
/// must thread their own scratch.
Status RepairAll(const ConstraintSet& constraints, const Feedback& feedback,
                 DynamicBitset* instance, const RepairOptions& options = {});

/// The walk kernel's proposal repair: RepairInstance specialized for the
/// sampler's inner step. Preconditions the step already guarantees: `added`
/// is a valid, currently-unselected correspondence and `*scratch` is
/// Prepared for the instance size. Returns false on the rare dead end
/// (violations resolvable only through protected correspondences) — the
/// caller discards the proposal buffer — and carries no Status objects on
/// the hot path.
bool RepairProposal(const ConstraintSet& constraints, const Feedback& feedback,
                    CorrespondenceId added, DynamicBitset* instance,
                    WalkScratch* scratch, const RepairOptions& options = {});

}  // namespace smn

#endif  // SMN_CORE_REPAIR_H_
