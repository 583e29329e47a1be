#ifndef SMN_CONSTRAINTS_CYCLE_H_
#define SMN_CONSTRAINTS_CYCLE_H_

#include <string_view>
#include <vector>

#include "core/constraint.h"

namespace smn {

/// The cycle constraint of the paper: when schemas are matched in a cycle,
/// matched attributes must form a closed cycle. Compiled over the triangles
/// of the interaction graph: for every pair of selected correspondences
/// a~b (s1,s2) and b~c (s2,s3) that chain through a shared attribute b across
/// two edges of a triangle, the closing correspondence a~c must be selected
/// too.
///
/// Compilation enumerates all chain entries (c1, c2, closing). When the
/// closing correspondence is not even a candidate in C, the pair (c1, c2) can
/// never appear together in a consistent instance; such entries are "hard
/// conflicts" (closing == kInvalidCorrespondence).
class CycleConstraint final : public Constraint {
 public:
  /// One chained pair and its closing correspondence.
  struct Chain {
    /// First chain member (a~b across one triangle edge).
    CorrespondenceId first;
    /// Second chain member (b~c across another edge, sharing attribute b).
    CorrespondenceId second;
    /// The correspondence closing the triangle, or kInvalidCorrespondence
    /// when C contains no such candidate (hard conflict).
    CorrespondenceId closing;
  };

  std::string_view name() const override { return "cycle"; }

  /// Kernel dispatch tag (devirtualized fast path).
  ConstraintKind kind() const override { return ConstraintKind::kCycle; }

  Status Compile(const Network& network) override;

  std::unique_ptr<Constraint> CloneUncompiled() const override;

  bool IsSatisfied(const DynamicBitset& selection) const override;

  bool AdditionViolates(const DynamicBitset& selection,
                        CorrespondenceId candidate) const override {
    for (uint32_t i = member_offsets_[candidate];
         i < member_offsets_[candidate + 1]; ++i) {
      const Chain& chain = chains_[member_chains_[i]];
      const CorrespondenceId partner =
          chain.first == candidate ? chain.second : chain.first;
      if (!selection.Test(partner)) continue;
      if (chain.closing == kInvalidCorrespondence ||
          !selection.Test(chain.closing)) {
        return true;
      }
    }
    return false;
  }

  /// Allocation-free kernel scan over all compiled chains.
  void AppendConflicts(const DynamicBitset& selection,
                       std::vector<KernelViolation>* out) const override;

  /// Allocation-free walk of c's CSR membership row — O(chains touching c).
  /// Inline so the walk kernel's devirtualized dispatch can flatten it.
  void AppendConflictsInvolving(const DynamicBitset& selection,
                                CorrespondenceId c,
                                std::vector<KernelViolation>* out) const override {
    for (uint32_t i = member_offsets_[c]; i < member_offsets_[c + 1]; ++i) {
      const Chain& chain = chains_[member_chains_[i]];
      if (ChainViolated(chain, selection)) {
        out->push_back(MakeKernelViolation(chain));
      }
    }
  }

  /// Allocation-free walk of removed's CSR closing row: every triangle
  /// `removed` closed whose two chain members are still selected re-opens.
  void AppendConflictsCreatedByRemoval(
      const DynamicBitset& selection, CorrespondenceId removed,
      std::vector<KernelViolation>* out) const override {
    for (uint32_t i = closing_offsets_[removed];
         i < closing_offsets_[removed + 1]; ++i) {
      const Chain& chain = chains_[closing_chains_[i]];
      if (selection.Test(chain.first) && selection.Test(chain.second)) {
        out->push_back(MakeKernelViolation(chain));
      }
    }
  }

  size_t CountViolationsInvolving(const DynamicBitset& selection,
                                  CorrespondenceId c) const override;

  /// One flat pass over the compiled chains (see the implementation note):
  /// hard-conflict chains block monotonically (released only by removals),
  /// closable open chains block reversibly (selecting the closing
  /// correspondence releases them).
  void SeedAdditionBlockCounts(const DynamicBitset& selection,
                               uint32_t* monotone_blocks,
                               uint32_t* reversible_blocks) const override;

  /// Member chains contribute monotone ops (hard conflicts) or
  /// reversible-if-open ops; chains `changed` closes contribute
  /// release-if-selected ops for both member orientations.
  void AppendAdditionDeltaOps(CorrespondenceId changed,
                              std::vector<AdditionDeltaOp>* out) const override;

  /// Each chain is one coupling group: {first, second, closing}, or just
  /// {first, second} for hard conflicts (no closing candidate exists).
  void AppendCouplingGroups(
      std::vector<std::vector<CorrespondenceId>>* out) const override;

  /// Chain unit propagation: both members in forces the closing in (a
  /// contradiction when no closing candidate exists or it is determined
  /// out); one member in with the closing out or missing forces the other
  /// member out.
  Status PropagateDetermined(
      const DynamicBitset& approved, const DynamicBitset& disapproved,
      std::vector<std::pair<CorrespondenceId, bool>>* out) const override;

  /// All compiled chain entries (exposed for the exact enumerator's fast
  /// path, diagnostics, and tests).
  const std::vector<Chain>& chains() const { return chains_; }

 private:
  /// True when the chain is violated by `selection` (both members selected,
  /// closing absent or nonexistent).
  bool ChainViolated(const Chain& chain, const DynamicBitset& selection) const {
    return selection.Test(chain.first) && selection.Test(chain.second) &&
           (chain.closing == kInvalidCorrespondence ||
            !selection.Test(chain.closing));
  }

  KernelViolation MakeKernelViolation(const Chain& chain) const {
    return KernelViolation{chain.first, chain.second, chain.closing};
  }

  std::vector<Chain> chains_;
  // Per-correspondence adjacency in CSR form: row `c` of the membership
  // table lists the indices into chains_ where c participates as a chain
  // member (ascending chain index, i.e. compile order); row `c` of the
  // closing table lists the chains c closes. Offsets have n+1 entries; the
  // flat index arrays keep the per-step walks contiguous in memory instead
  // of hopping across per-correspondence heap vectors.
  std::vector<uint32_t> member_offsets_;
  std::vector<uint32_t> member_chains_;
  std::vector<uint32_t> closing_offsets_;
  std::vector<uint32_t> closing_chains_;
};

}  // namespace smn

#endif  // SMN_CONSTRAINTS_CYCLE_H_
