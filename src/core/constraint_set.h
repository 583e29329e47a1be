#ifndef SMN_CORE_CONSTRAINT_SET_H_
#define SMN_CORE_CONSTRAINT_SET_H_

#include <cassert>
#include <memory>
#include <vector>

#include "core/constraint.h"
#include "util/status.h"

namespace smn {

/// The conjunction Γ = {γ1, ..., γn} of integrity constraints, compiled
/// against one Network. A selection satisfies the set when it satisfies every
/// member ("C' ⊨ Γ").
class ConstraintSet {
 public:
  /// An empty, uncompiled set.
  ConstraintSet() = default;
  /// Movable, not copyable (constraints are owned exclusively).
  ConstraintSet(ConstraintSet&&) = default;
  /// Move assignment.
  ConstraintSet& operator=(ConstraintSet&&) = default;

  /// Adds a constraint. Must happen before Compile.
  void Add(std::unique_ptr<Constraint> constraint);

  /// Compiles every constraint against `network`; the network must outlive
  /// this set.
  Status Compile(const Network& network);

  /// Number of constraints in the conjunction.
  size_t size() const { return constraints_.size(); }
  /// The i-th constraint, in Add order.
  const Constraint& constraint(size_t i) const { return *constraints_[i]; }

  /// True when `selection` satisfies all constraints.
  bool IsSatisfied(const DynamicBitset& selection) const;

  /// True when adding `candidate` to a currently-consistent `selection`
  /// would violate some constraint.
  bool AdditionViolates(const DynamicBitset& selection,
                        CorrespondenceId candidate) const;

  /// Kernel query: appends all violations across all constraints, in
  /// constraint Add order. Appends into a caller-owned buffer so hot loops
  /// reuse capacity instead of allocating a fresh vector.
  void AppendConflicts(const DynamicBitset& selection,
                       std::vector<KernelViolation>* out) const;

  /// Kernel query: appends the violations involving the selected
  /// correspondence `c`, in constraint Add order. O(degree of c) for the
  /// built-in constraints.
  void AppendConflictsInvolving(const DynamicBitset& selection,
                                CorrespondenceId c,
                                std::vector<KernelViolation>* out) const;

  /// Kernel query: appends the violations created by clearing `removed`
  /// from `selection`, in constraint Add order.
  void AppendConflictsCreatedByRemoval(const DynamicBitset& selection,
                                       CorrespondenceId removed,
                                       std::vector<KernelViolation>* out) const;

  /// Process-unique id assigned by each Compile call. Walk scratches stamp
  /// their incremental tracker state with it, so a scratch reused against a
  /// different compiled set (even one with the same candidate count) detects
  /// the mismatch and reseeds instead of syncing against foreign counters.
  /// 0 means "never compiled".
  uint64_t compile_id() const { return compile_id_; }

  /// Seeds the aggregate addition-block counters across all constraints
  /// (see Constraint::SeedAdditionBlockCounts).
  void SeedAdditionBlockCounts(const DynamicBitset& selection,
                               uint32_t* monotone_blocks,
                               uint32_t* reversible_blocks) const;

  /// Propagates a single-element selection change (`changed` already
  /// flipped in `selection`; `added` says in which direction) through the
  /// compiled delta table, keeping the addition-block counters exact and
  /// flipping `*unblocked_any` when a reversible block is released by an
  /// addition. Inline and virtual-free: this runs once per committed
  /// Maximalize addition and once per walk-state diff bit, the two hottest
  /// tracker paths.
  void ApplyAdditionBlockDelta(const DynamicBitset& selection,
                               CorrespondenceId changed, bool added,
                               uint32_t* monotone_blocks,
                               uint32_t* reversible_blocks,
                               bool* unblocked_any) const {
    assert(compiled_);
    const int sign = added ? 1 : -1;
    const uint32_t begin = delta_offsets_[changed];
    const uint32_t end = delta_offsets_[changed + 1];
    for (uint32_t i = begin; i < end; ++i) {
      const AdditionDeltaOp& op = delta_ops_[i];
      switch (op.kind) {
        case AdditionDeltaOp::Kind::kMonotone:
          monotone_blocks[op.target] = static_cast<uint32_t>(
              static_cast<int>(monotone_blocks[op.target]) + sign);
          break;
        case AdditionDeltaOp::Kind::kReversibleIfOpen:
          if (!selection.Test(op.cond)) {
            reversible_blocks[op.target] = static_cast<uint32_t>(
                static_cast<int>(reversible_blocks[op.target]) + sign);
          }
          break;
        case AdditionDeltaOp::Kind::kReleaseIfSelected:
          if (selection.Test(op.cond)) {
            reversible_blocks[op.target] = static_cast<uint32_t>(
                static_cast<int>(reversible_blocks[op.target]) - sign);
            if (added) *unblocked_any = true;
          }
          break;
      }
    }
  }

  /// Total number of violations involving `c` across all constraints.
  size_t CountViolationsInvolving(const DynamicBitset& selection,
                                  CorrespondenceId c) const;

  /// All coupling groups of all compiled constraints (see
  /// Constraint::AppendCouplingGroups). The groups define the
  /// constraint-connected components of the candidate set.
  std::vector<std::vector<CorrespondenceId>> CouplingGroups() const;

  /// Runs every constraint's unit propagation once (see
  /// Constraint::PropagateDetermined); callers iterate to a fixpoint.
  Status PropagateDetermined(
      const DynamicBitset& approved, const DynamicBitset& disapproved,
      std::vector<std::pair<CorrespondenceId, bool>>* out) const;

  /// A fresh, uncompiled constraint set with the same constraint kinds, for
  /// compiling against a per-component sub-network.
  ConstraintSet CloneUncompiled() const;

 private:
  std::vector<std::unique_ptr<Constraint>> constraints_;
  // Flat CSR delta table of the addition tracker: row c holds the
  // concatenated AppendAdditionDeltaOps of every constraint for c. Built by
  // Compile.
  std::vector<uint32_t> delta_offsets_;
  std::vector<AdditionDeltaOp> delta_ops_;
  uint64_t compile_id_ = 0;
  bool compiled_ = false;
};

}  // namespace smn

#endif  // SMN_CORE_CONSTRAINT_SET_H_
