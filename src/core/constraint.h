#ifndef SMN_CORE_CONSTRAINT_H_
#define SMN_CORE_CONSTRAINT_H_

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/network.h"
#include "core/types.h"
#include "core/violation.h"
#include "util/dynamic_bitset.h"
#include "util/status.h"

namespace smn {

/// One compiled instruction of the addition-block tracker (see
/// Constraint::AppendAdditionDeltaOps). Applied for a selection change of
/// correspondence c with sign s (+1 when c was just set, -1 when just
/// cleared):
///   kMonotone:          monotone_blocks[target] += s
///   kReversibleIfOpen:  if `cond` is unselected, reversible_blocks[target]
///                       += s (an open chain gained/lost its selected
///                       member)
///   kReleaseIfSelected: if `cond` is selected, reversible_blocks[target]
///                       -= s (c is the chain's closing correspondence:
///                       adding it releases the block on the opposite
///                       member, removing it re-imposes it)
struct AdditionDeltaOp {
  /// Instruction kinds (see the struct comment).
  enum class Kind : uint8_t {
    kMonotone,           ///< Unconditional monotone-counter adjustment.
    kReversibleIfOpen,   ///< Reversible adjustment gated on `cond` unselected.
    kReleaseIfSelected,  ///< Reversible release gated on `cond` selected.
  };
  /// What to do with `target`'s counter.
  Kind kind;
  /// Correspondence whose block counter is adjusted.
  CorrespondenceId target;
  /// Guard correspondence for the conditional kinds (unused by kMonotone).
  CorrespondenceId cond;
};

/// Concrete-type tag of a compiled constraint. The walk kernel's inner loop
/// switches on it to call the hot violation queries on the (final) built-in
/// constraint classes directly instead of through the vtable.
enum class ConstraintKind : uint8_t {
  kOneToOne,  ///< OneToOneConstraint (final).
  kCycle,     ///< CycleConstraint (final).
};

/// A network-level integrity constraint γ ∈ Γ. Implementations compile the
/// constraint against a concrete Network once (building whatever lookup
/// tables they need) and then answer violation queries over correspondence
/// selections, which are bitsets over the candidate set C.
///
/// The engine relies on a structural property shared by the constraints
/// studied in the paper: in a selection that currently satisfies the
/// constraint, adding one correspondence can only introduce violations that
/// involve the added correspondence, and removing one correspondence can only
/// introduce violations reported by AppendConflictsCreatedByRemoval. This is
/// what makes the maximality check of Definition 1 and the incremental repair
/// of Algorithm 4 sound.
///
/// Compiled constraints additionally expose their *coupling structure*
/// (AppendCouplingGroups) and a unit-propagation rule (PropagateDetermined).
/// Both feed the component-decomposed reconciliation engine: coupling groups
/// define the constraint-connected components of C (the paper's §4
/// interaction structure projected onto correspondences), and propagation
/// derives the correspondences whose value is already logically determined by
/// the expert feedback, which is what lets components split as reconciliation
/// pins variables.
class Constraint {
 public:
  /// Virtual destructor: constraints are held via base-class pointers.
  virtual ~Constraint() = default;

  /// Stable human-readable name ("one-to-one", "cycle").
  virtual std::string_view name() const = 0;

  /// Concrete-type tag for the kernel's devirtualized dispatch (see
  /// ConstraintKind).
  virtual ConstraintKind kind() const = 0;

  /// Builds internal tables for `network`. Must be called before any query.
  /// The network must outlive this constraint.
  virtual Status Compile(const Network& network) = 0;

  /// Creates a fresh, uncompiled instance of the same constraint kind.
  /// The component engine uses this to compile the constraint against
  /// per-component sub-networks.
  virtual std::unique_ptr<Constraint> CloneUncompiled() const = 0;

  /// True when `selection` satisfies this constraint.
  virtual bool IsSatisfied(const DynamicBitset& selection) const = 0;

  /// True when adding `candidate` (not currently selected) to a selection
  /// that satisfies this constraint would create at least one violation.
  virtual bool AdditionViolates(const DynamicBitset& selection,
                                CorrespondenceId candidate) const = 0;

  /// Appends every violation in `selection`, in a fixed per-constraint
  /// order. Seeds RepairAll's worklist.
  virtual void AppendConflicts(const DynamicBitset& selection,
                               std::vector<KernelViolation>* out) const = 0;

  /// Appends the violations in `selection` that involve the selected
  /// correspondence `c`. O(degree) in the compiled adjacency index — a
  /// word-parallel conflict-row intersection for one-to-one, a CSR
  /// chain-row walk for the cycle constraint — and never allocates once
  /// `out` has warmed-up capacity.
  virtual void AppendConflictsInvolving(
      const DynamicBitset& selection, CorrespondenceId c,
      std::vector<KernelViolation>* out) const = 0;

  /// Appends violations that exist in `selection` only because `removed` was
  /// just cleared from it. Anti-monotone constraints (one-to-one) never
  /// produce any and keep this no-op; the cycle constraint does when
  /// `removed` closed a triangle whose two chain members are still selected.
  virtual void AppendConflictsCreatedByRemoval(
      const DynamicBitset& selection, CorrespondenceId removed,
      std::vector<KernelViolation>* out) const {
    (void)selection;
    (void)removed;
    (void)out;
  }

  /// Seeds the addition-block counters for `selection` (an arbitrary subset
  /// of C): for every correspondence x, adds to `monotone_blocks[x]` the
  /// number of this constraint's elements that currently forbid adding x
  /// and can only stop doing so when a selected correspondence is REMOVED
  /// (a one-to-one conflict with a selected correspondence, a hard-conflict
  /// chain), and to `reversible_blocks[x]` the number that could also be
  /// released by a further ADDITION (an open chain whose closing
  /// correspondence may yet be selected). x is addable under this
  /// constraint exactly when both its counts are zero; the split lets
  /// grow-only fixpoints drop monotonically-blocked candidates for good.
  /// The counters power Maximalize: instead of probing AdditionViolates for
  /// every candidate on every fixpoint pass, they are seeded once and
  /// maintained per selection change.
  virtual void SeedAdditionBlockCounts(const DynamicBitset& selection,
                                       uint32_t* monotone_blocks,
                                       uint32_t* reversible_blocks) const = 0;

  /// Exports the compiled delta program for `changed`: the op sequence
  /// that, applied with sign +1 after setting `changed` in a selection (or
  /// sign -1 after clearing it), keeps the addition-block counters of
  /// SeedAdditionBlockCounts exact — for arbitrary, even transiently
  /// inconsistent, selections. ConstraintSet::Compile concatenates every
  /// constraint's ops per correspondence into one flat CSR table so the
  /// tracker's hot path applies them without virtual dispatch or pointer
  /// chasing.
  virtual void AppendAdditionDeltaOps(
      CorrespondenceId changed, std::vector<AdditionDeltaOp>* out) const = 0;

  /// Number of violations in `selection` that involve `c`.
  virtual size_t CountViolationsInvolving(const DynamicBitset& selection,
                                          CorrespondenceId c) const = 0;

  /// Appends one entry per compiled constraint element: the set of
  /// correspondences that element jointly constrains (a conflicting pair for
  /// one-to-one, a chain's {first, second, closing} for the cycle
  /// constraint). Two correspondences interact — their marginals can depend
  /// on each other under this constraint — only if they share a group, so
  /// the transitive closure of group co-membership over unasserted
  /// correspondences yields the constraint-connected components used by the
  /// incremental reconciliation engine. The default is no couplings
  /// (an always-satisfied constraint).
  virtual void AppendCouplingGroups(
      std::vector<std::vector<CorrespondenceId>>* out) const {
    (void)out;
  }

  /// Unit propagation: given the correspondences already determined to be in
  /// every instance (`approved`) or in no instance (`disapproved`), appends
  /// (correspondence, value) pairs this constraint now forces. Examples for
  /// the cycle constraint: both chain members determined-in forces the
  /// closing correspondence in; one member in with the closing out (or
  /// non-candidate) forces the other member out. Returns FailedPrecondition
  /// when the determined sets already contradict the constraint (e.g. two
  /// conflicting correspondences both approved). Implementations may emit
  /// assignments already present in the input sets; the caller deduplicates.
  /// The default forces nothing.
  virtual Status PropagateDetermined(
      const DynamicBitset& approved, const DynamicBitset& disapproved,
      std::vector<std::pair<CorrespondenceId, bool>>* out) const {
    (void)approved;
    (void)disapproved;
    (void)out;
    return Status::OK();
  }
};

}  // namespace smn

#endif  // SMN_CORE_CONSTRAINT_H_
