#ifndef SMN_CONSTRAINTS_ONE_TO_ONE_H_
#define SMN_CONSTRAINTS_ONE_TO_ONE_H_

#include <string_view>
#include <vector>

#include "core/constraint.h"

namespace smn {

/// The one-to-one constraint of the paper: each attribute of one schema is
/// matched to at most one attribute of any other schema. Two candidate
/// correspondences conflict exactly when they share one endpoint and their
/// other endpoints belong to the same schema (e.g. a~b and a~b' with
/// b, b' ∈ s2).
///
/// Compilation always builds the conflict graph as a sorted CSR adjacency
/// (O(conflict pairs) memory). Up to `dense_row_limit` candidates it
/// additionally packs the adjacency into per-row bitset words, making every
/// kernel query a handful of word-parallel operations — the representation
/// the walk kernel's hot loop uses on per-component subproblems. Above the
/// limit (million-correspondence tenant networks, where the n²/64 packed
/// words would not fit in memory) the same queries walk the CSR rows; both
/// paths emit identical results in identical order, which
/// tests/constraints/one_to_one_test.cc pins differentially.
class OneToOneConstraint final : public Constraint {
 public:
  /// Largest candidate count compiled into the dense word-matrix form by
  /// default (8192 rows ≈ 8 MB of packed words — roomy for every
  /// per-component subproblem, far below tenant-network scale).
  static constexpr size_t kDefaultDenseRowLimit = 8192;

  /// `dense_row_limit` overrides the dense/sparse switchover; tests pass a
  /// tiny limit to force the CSR path on small networks.
  explicit OneToOneConstraint(size_t dense_row_limit = kDefaultDenseRowLimit)
      : dense_row_limit_(dense_row_limit) {}

  std::string_view name() const override { return "one-to-one"; }

  /// Kernel dispatch tag (devirtualized fast path).
  ConstraintKind kind() const override { return ConstraintKind::kOneToOne; }

  Status Compile(const Network& network) override;

  std::unique_ptr<Constraint> CloneUncompiled() const override;

  bool IsSatisfied(const DynamicBitset& selection) const override;

  bool AdditionViolates(const DynamicBitset& selection,
                        CorrespondenceId candidate) const override {
    if (dense_compiled_) {
      const uint64_t* row = Row(candidate);
      for (size_t w = 0; w < words_per_row_; ++w) {
        if (row[w] & selection.word(w)) return true;
      }
      return false;
    }
    for (uint32_t i = offsets_[candidate]; i < offsets_[candidate + 1]; ++i) {
      if (selection.Test(neighbors_[i])) return true;
    }
    return false;
  }

  /// Allocation-free kernel scan over all conflict rows.
  void AppendConflicts(const DynamicBitset& selection,
                       std::vector<KernelViolation>* out) const override;

  /// Allocation-free intersection of c's conflict row with the selection —
  /// O(degree of c) set bits, no row copy. Inline so the walk kernel's
  /// devirtualized dispatch can flatten it into the repair loop. The dense
  /// branch is word-parallel; the CSR branch probes each sorted neighbor, so
  /// both report partners in ascending id order.
  void AppendConflictsInvolving(const DynamicBitset& selection,
                                CorrespondenceId c,
                                std::vector<KernelViolation>* out) const override {
    if (dense_compiled_) {
      const uint64_t* row = Row(c);
      for (size_t w = 0; w < words_per_row_; ++w) {
        uint64_t word = row[w] & selection.word(w);
        while (word != 0) {
          const int bit = __builtin_ctzll(word);
          out->push_back(KernelViolation{
              c, static_cast<CorrespondenceId>(w * 64 + static_cast<size_t>(bit)),
              kInvalidCorrespondence});
          word &= word - 1;
        }
      }
      return;
    }
    for (uint32_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
      const CorrespondenceId other = neighbors_[i];
      if (selection.Test(other)) {
        out->push_back(KernelViolation{c, other, kInvalidCorrespondence});
      }
    }
  }

  size_t CountViolationsInvolving(const DynamicBitset& selection,
                                  CorrespondenceId c) const override;

  /// Bumps monotone_blocks over the selected conflict rows: all one-to-one
  /// blocks are monotone (only a removal ever releases a conflict with a
  /// selected correspondence).
  void SeedAdditionBlockCounts(const DynamicBitset& selection,
                               uint32_t* monotone_blocks,
                               uint32_t* reversible_blocks) const override;

  /// One monotone op per conflict-row member of `changed`.
  void AppendAdditionDeltaOps(CorrespondenceId changed,
                              std::vector<AdditionDeltaOp>* out) const override;

  /// Each conflicting pair {c, c'} is one coupling group.
  void AppendCouplingGroups(
      std::vector<std::vector<CorrespondenceId>>* out) const override;

  /// Determined-in correspondences force all their conflict partners out;
  /// two determined-in partners are a contradiction.
  Status PropagateDetermined(
      const DynamicBitset& approved, const DynamicBitset& disapproved,
      std::vector<std::pair<CorrespondenceId, bool>>* out) const override;

  /// Conflict adjacency row of correspondence `c` as a bitset. Dense form
  /// only (diagnostics and tests; every such caller works on small
  /// networks); CSR-only compiles must use ForEachConflictOf.
  const DynamicBitset& ConflictRow(CorrespondenceId c) const {
    return conflicts_[c];
  }

  /// Calls `fn(partner)` for each conflict partner of `c`, ascending.
  /// Available in both representations.
  template <typename Fn>
  void ForEachConflictOf(CorrespondenceId c, Fn&& fn) const {
    for (uint32_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
      fn(neighbors_[i]);
    }
  }

  /// Total number of conflicting candidate pairs in the network.
  size_t conflict_pair_count() const { return neighbors_.size() / 2; }

  /// True when Compile packed the dense word-matrix (candidate count within
  /// the dense row limit).
  bool dense_compiled() const { return dense_compiled_; }

 private:
  /// Pointer to correspondence c's row of the flat conflict matrix (dense
  /// form only).
  const uint64_t* Row(CorrespondenceId c) const {
    return row_words_.data() + c * words_per_row_;
  }

  size_t dense_row_limit_ = kDefaultDenseRowLimit;
  bool dense_compiled_ = false;
  // Sorted CSR conflict adjacency: the partners of c are
  // neighbors_[offsets_[c] .. offsets_[c+1]), ascending. Always built; the
  // only representation above the dense row limit.
  std::vector<uint32_t> offsets_;
  std::vector<CorrespondenceId> neighbors_;
  // Dense form (candidate count <= dense_row_limit_): adjacency bitsets plus
  // the same rows packed as one flat row-major word matrix (n rows of
  // words_per_row_ words). The kernel queries walk these rows directly: one
  // contiguous allocation instead of a heap vector per row, which is what
  // keeps the per-step intersections cache-resident.
  std::vector<DynamicBitset> conflicts_;
  std::vector<uint64_t> row_words_;
  size_t words_per_row_ = 0;
};

}  // namespace smn

#endif  // SMN_CONSTRAINTS_ONE_TO_ONE_H_
