#include "core/repair.h"

#include <utility>
#include <vector>

#include "constraints/cycle.h"
#include "constraints/one_to_one.h"

namespace smn {
namespace {

// --- Devirtualized constraint dispatch -------------------------------------
//
// The repair loop issues several violation queries per walk step; on the
// built-in (final) constraint classes the kind() tag lets us call them
// directly instead of through the vtable — the one deliberate
// core→constraints dependency of the engine, confined to this kernel (see
// ARCHITECTURE.md "hot path & scratch ownership").

void AppendConflictsInvolvingFast(const ConstraintSet& constraints,
                                  const DynamicBitset& selection,
                                  CorrespondenceId c,
                                  std::vector<KernelViolation>* out) {
  for (size_t i = 0; i < constraints.size(); ++i) {
    const Constraint& constraint = constraints.constraint(i);
    switch (constraint.kind()) {
      case ConstraintKind::kOneToOne:
        static_cast<const OneToOneConstraint&>(constraint)
            .AppendConflictsInvolving(selection, c, out);
        break;
      case ConstraintKind::kCycle:
        static_cast<const CycleConstraint&>(constraint)
            .AppendConflictsInvolving(selection, c, out);
        break;
    }
  }
}

bool AdditionViolatesFast(const ConstraintSet& constraints,
                          const DynamicBitset& selection,
                          CorrespondenceId candidate) {
  for (size_t i = 0; i < constraints.size(); ++i) {
    const Constraint& constraint = constraints.constraint(i);
    switch (constraint.kind()) {
      case ConstraintKind::kOneToOne:
        if (static_cast<const OneToOneConstraint&>(constraint)
                .AdditionViolates(selection, candidate)) {
          return true;
        }
        break;
      case ConstraintKind::kCycle:
        if (static_cast<const CycleConstraint&>(constraint)
                .AdditionViolates(selection, candidate)) {
          return true;
        }
        break;
    }
  }
  return false;
}

void AppendConflictsCreatedByRemovalFast(const ConstraintSet& constraints,
                                         const DynamicBitset& selection,
                                         CorrespondenceId removed,
                                         std::vector<KernelViolation>* out) {
  for (size_t i = 0; i < constraints.size(); ++i) {
    const Constraint& constraint = constraints.constraint(i);
    switch (constraint.kind()) {
      case ConstraintKind::kOneToOne:
        break;  // One-to-one removals never create violations.
      case ConstraintKind::kCycle:
        static_cast<const CycleConstraint&>(constraint)
            .AppendConflictsCreatedByRemoval(selection, removed, out);
        break;
    }
  }
}

/// Shared repair loop over the scratch's violation worklist, which must list
/// exactly the violations present in `*instance`. `protected_added` is the
/// correspondence shielded from removal alongside F+ (or
/// kInvalidCorrespondence for none). When `allow_cascade_closures` is set,
/// closures may introduce follow-up violations (required to complete a
/// chain-open F+ where removal is forbidden); the conservative mode keeps
/// the walk repair local and well-behaved.
///
/// Kernel discipline: all working state lives in `*scratch` — the worklist,
/// the sparse victim counters (`counts` over the `touched` ids only, instead
/// of a per-call zero-fill and full-n victim scan), and the closure bitset —
/// so steady-state calls allocate nothing. The algorithm itself (tier order,
/// worklist order, victim tie-breaks) is unchanged from the naive loop, so
/// repaired instances are bit-identical.
bool RepairLoop(const ConstraintSet& constraints, const Feedback& feedback,
                CorrespondenceId protected_added, DynamicBitset* instance,
                WalkScratch* scratch, const RepairOptions& options,
                bool allow_cascade_closures) {
  std::vector<KernelViolation>& violations = scratch->worklist;
  if (violations.empty()) return true;

  bool added_protected = protected_added != kInvalidCorrespondence;
  // Each correspondence gets at most one closure attempt per repair call;
  // this bounds the additions and guarantees termination. The bitset is
  // cleared lazily here rather than on exit so the violation-free fast path
  // above never touches it.
  scratch->closure_tried.Clear();

  // Marks `p` as participating in one more violation of the current
  // worklist, registering it in the touched overlay on first sight.
  auto bump = [&](CorrespondenceId p) {
    if (scratch->counts[p]++ == 0) scratch->touched.push_back(p);
  };

  while (!violations.empty()) {
    // Phase 1: close an open chain. Tier one accepts only closings that
    // introduce no new violations — probed with the compiled
    // AdditionViolates ("would any violation involve this closing?") instead
    // of materializing the introduced set and rolling back. Tier two (needed
    // when the open chain sits inside the protected F+, where removal is not
    // an option) accepts a closing that cascades, queueing the violations it
    // introduces. The once-per-correspondence closure bound keeps both tiers
    // terminating.
    if (options.close_cycles) {
      bool closed = false;
      auto closure_eligible = [&](CorrespondenceId missing) {
        return missing != kInvalidCorrespondence && !instance->Test(missing) &&
               !feedback.IsDisapproved(missing) &&
               !scratch->closure_tried.Test(missing);
      };
      auto accept_closure = [&](CorrespondenceId missing, bool with_cascade) {
        scratch->closure_tried.Set(missing);
        // Drop every violation this closing correspondence fixes; queue
        // whatever the cascade opened.
        scratch->pending.clear();
        for (const KernelViolation& v : violations) {
          if (v.missing != missing) scratch->pending.push_back(v);
        }
        if (with_cascade) {
          for (const KernelViolation& v : scratch->introduced) {
            scratch->pending.push_back(v);
          }
        }
        std::swap(violations, scratch->pending);
        closed = true;
      };
      for (const KernelViolation& violation : violations) {
        const CorrespondenceId missing = violation.missing;
        if (!closure_eligible(missing)) continue;
        if (AdditionViolatesFast(constraints, *instance, missing)) {
          continue;  // Cascades; retry in the cascading tier.
        }
        instance->Set(missing);
        accept_closure(missing, /*with_cascade=*/false);
        break;
      }
      if (!closed && allow_cascade_closures) {
        for (const KernelViolation& violation : violations) {
          const CorrespondenceId missing = violation.missing;
          if (!closure_eligible(missing)) continue;
          instance->Set(missing);
          scratch->introduced.clear();
          AppendConflictsInvolvingFast(constraints, *instance, missing,
                                       &scratch->introduced);
          accept_closure(missing, /*with_cascade=*/true);
          break;
        }
      }
      if (closed) continue;
    }

    // Phase 2: greedy removal of the most-violating correspondence. Reset
    // only the counters the previous iteration dirtied, then recount from
    // the (small) worklist.
    for (CorrespondenceId p : scratch->touched) scratch->counts[p] = 0;
    scratch->touched.clear();
    for (const KernelViolation& v : violations) {
      bump(v.a);
      if (v.b != kInvalidCorrespondence) bump(v.b);
    }
    // Highest count wins, ties broken toward the lowest id — the same
    // victim the naive ascending full-n scan with a strict `>` picks.
    auto pick_victim = [&](bool protect_added) -> CorrespondenceId {
      CorrespondenceId best = kInvalidCorrespondence;
      uint32_t best_count = 0;
      for (CorrespondenceId c : scratch->touched) {
        if (!instance->Test(c)) continue;
        if (feedback.IsApproved(c)) continue;
        if (protect_added && c == protected_added) continue;
        const uint32_t count = scratch->counts[c];
        if (count > best_count || (count == best_count && c < best)) {
          best_count = count;
          best = c;
        }
      }
      return best;
    };

    CorrespondenceId victim = pick_victim(added_protected);
    if (victim == kInvalidCorrespondence && added_protected) {
      // Only the added correspondence itself can resolve the violations.
      added_protected = false;
      victim = pick_victim(false);
    }
    if (victim == kInvalidCorrespondence) {
      // Leave the counters clean for the next kernel call before bailing.
      for (CorrespondenceId p : scratch->touched) scratch->counts[p] = 0;
      scratch->touched.clear();
      return false;  // Dead end: only approved correspondences involved.
    }

    instance->Reset(victim);
    scratch->pending.clear();
    for (const KernelViolation& v : violations) {
      if (!v.Involves(victim)) scratch->pending.push_back(v);
    }
    // Removals can re-open triangles of the cycle constraint.
    AppendConflictsCreatedByRemovalFast(constraints, *instance, victim,
                                        &scratch->pending);
    std::swap(violations, scratch->pending);
  }
  for (CorrespondenceId p : scratch->touched) scratch->counts[p] = 0;
  scratch->touched.clear();
  return true;
}

/// Message for the loop's dead-end outcome (see RepairLoop).
Status DeadEndStatus() {
  return Status::Internal(
      "repair: violations involve only approved correspondences; "
      "the approved set F+ is itself inconsistent");
}

}  // namespace

bool RepairProposal(const ConstraintSet& constraints, const Feedback& feedback,
                    CorrespondenceId added, DynamicBitset* instance,
                    WalkScratch* scratch, const RepairOptions& options) {
  instance->Set(added);
  scratch->worklist.clear();
  AppendConflictsInvolvingFast(constraints, *instance, added,
                               &scratch->worklist);
  return RepairLoop(constraints, feedback, added, instance, scratch, options,
                    /*allow_cascade_closures=*/false);
}

Status RepairInstance(const ConstraintSet& constraints, const Feedback& feedback,
                      CorrespondenceId added, DynamicBitset* instance,
                      WalkScratch* scratch, const RepairOptions& options) {
  if (added >= instance->size()) {
    return Status::OutOfRange("RepairInstance: correspondence id out of range");
  }
  if (instance->Test(added)) {
    // Already present in a consistent instance: nothing to do.
    return Status::OK();
  }
  scratch->Prepare(instance->size());
  // The base instance was consistent, so every violation involves `added`.
  if (!RepairProposal(constraints, feedback, added, instance, scratch,
                      options)) {
    return DeadEndStatus();
  }
  return Status::OK();
}

Status RepairAll(const ConstraintSet& constraints, const Feedback& feedback,
                 DynamicBitset* instance, WalkScratch* scratch,
                 const RepairOptions& options) {
  scratch->Prepare(instance->size());
  scratch->worklist.clear();
  constraints.AppendConflicts(*instance, &scratch->worklist);
  if (!RepairLoop(constraints, feedback, kInvalidCorrespondence, instance,
                  scratch, options, /*allow_cascade_closures=*/true)) {
    return DeadEndStatus();
  }
  return Status::OK();
}

Status RepairAll(const ConstraintSet& constraints, const Feedback& feedback,
                 DynamicBitset* instance, const RepairOptions& options) {
  WalkScratch scratch;
  return RepairAll(constraints, feedback, instance, &scratch, options);
}

}  // namespace smn
