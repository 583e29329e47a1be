#include "constraints/one_to_one.h"

#include <algorithm>
#include <memory>

namespace smn {
namespace {

/// Invokes fn(c1, c2) once per conflicting pair. Conflicts arise only
/// between correspondences sharing an attribute: walk each attribute's
/// incident candidates and report pairs whose other endpoints land in the
/// same schema. Two distinct correspondences share at most one attribute,
/// so each pair is reported exactly once.
template <typename Fn>
void ForEachConflictPair(const Network& network, Fn&& fn) {
  for (AttributeId a = 0; a < network.attribute_count(); ++a) {
    const auto& incident = network.CorrespondencesAt(a);
    for (size_t i = 0; i < incident.size(); ++i) {
      const Correspondence& ci = network.correspondence(incident[i]);
      for (size_t j = i + 1; j < incident.size(); ++j) {
        const Correspondence& cj = network.correspondence(incident[j]);
        const AttributeId other_i = ci.OtherEnd(a);
        const AttributeId other_j = cj.OtherEnd(a);
        if (network.attribute(other_i).schema ==
            network.attribute(other_j).schema) {
          fn(ci.id, cj.id);
        }
      }
    }
  }
}

}  // namespace

std::unique_ptr<Constraint> OneToOneConstraint::CloneUncompiled() const {
  return std::make_unique<OneToOneConstraint>(dense_row_limit_);
}

Status OneToOneConstraint::Compile(const Network& network) {
  const size_t n = network.correspondence_count();
  // Two passes over the attribute-incidence pairs keep compilation memory at
  // exactly the CSR size: count degrees, then fill.
  std::vector<uint32_t> degree(n, 0);
  size_t pair_count = 0;
  ForEachConflictPair(network, [&](CorrespondenceId c1, CorrespondenceId c2) {
    ++degree[c1];
    ++degree[c2];
    ++pair_count;
  });
  offsets_.assign(n + 1, 0);
  for (size_t c = 0; c < n; ++c) {
    offsets_[c + 1] = offsets_[c] + degree[c];
  }
  neighbors_.assign(2 * pair_count, 0);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  ForEachConflictPair(network, [&](CorrespondenceId c1, CorrespondenceId c2) {
    neighbors_[cursor[c1]++] = c2;
    neighbors_[cursor[c2]++] = c1;
  });
  // Sort each row ascending so CSR queries report partners in the same
  // order the dense word scans do.
  for (size_t c = 0; c < n; ++c) {
    std::sort(neighbors_.begin() + offsets_[c],
              neighbors_.begin() + offsets_[c + 1]);
  }

  dense_compiled_ = n <= dense_row_limit_;
  if (!dense_compiled_) {
    conflicts_.clear();
    row_words_.clear();
    words_per_row_ = 0;
    return Status::OK();
  }
  // Pack the rows into adjacency bitsets plus one flat word matrix for the
  // word-parallel kernel queries.
  conflicts_.assign(n, DynamicBitset(n));
  for (CorrespondenceId c = 0; c < n; ++c) {
    for (uint32_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
      conflicts_[c].Set(neighbors_[i]);
    }
  }
  words_per_row_ = (n + 63) / 64;
  row_words_.assign(n * words_per_row_, 0);
  for (CorrespondenceId c = 0; c < n; ++c) {
    for (size_t w = 0; w < words_per_row_; ++w) {
      row_words_[c * words_per_row_ + w] = conflicts_[c].word(w);
    }
  }
  return Status::OK();
}

bool OneToOneConstraint::IsSatisfied(const DynamicBitset& selection) const {
  bool ok = true;
  selection.ForEachSetBit([&](size_t c) {
    if (!ok) return;
    if (dense_compiled_) {
      const uint64_t* row = Row(static_cast<CorrespondenceId>(c));
      for (size_t w = 0; w < words_per_row_; ++w) {
        if (row[w] & selection.word(w)) {
          ok = false;
          return;
        }
      }
      return;
    }
    for (uint32_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
      if (selection.Test(neighbors_[i])) {
        ok = false;
        return;
      }
    }
  });
  return ok;
}

void OneToOneConstraint::AppendConflicts(const DynamicBitset& selection,
                                         std::vector<KernelViolation>* out) const {
  selection.ForEachSetBit([&](size_t c) {
    if (dense_compiled_) {
      conflicts_[c].ForEachIntersection(selection, [&](size_t other) {
        if (other > c) {  // Report each conflicting pair once.
          out->push_back(KernelViolation{static_cast<CorrespondenceId>(c),
                                         static_cast<CorrespondenceId>(other),
                                         kInvalidCorrespondence});
        }
      });
      return;
    }
    for (uint32_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
      const CorrespondenceId other = neighbors_[i];
      if (other > c && selection.Test(other)) {
        out->push_back(KernelViolation{static_cast<CorrespondenceId>(c), other,
                                       kInvalidCorrespondence});
      }
    }
  });
}

size_t OneToOneConstraint::CountViolationsInvolving(
    const DynamicBitset& selection, CorrespondenceId c) const {
  size_t count = 0;
  if (dense_compiled_) {
    const uint64_t* row = Row(c);
    for (size_t w = 0; w < words_per_row_; ++w) {
      count += static_cast<size_t>(
          __builtin_popcountll(row[w] & selection.word(w)));
    }
    return count;
  }
  for (uint32_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
    if (selection.Test(neighbors_[i])) ++count;
  }
  return count;
}

void OneToOneConstraint::SeedAdditionBlockCounts(
    const DynamicBitset& selection, uint32_t* monotone_blocks,
    uint32_t* reversible_blocks) const {
  (void)reversible_blocks;  // One-to-one blocks are never addition-released.
  // Rows are symmetric, so monotone_blocks[x] gains |row(x) ∩ selection| by
  // bumping every selected row's members once.
  selection.ForEachSetBit([&](size_t c) {
    ForEachConflictOf(static_cast<CorrespondenceId>(c),
                      [&](CorrespondenceId other) { ++monotone_blocks[other]; });
  });
}

void OneToOneConstraint::AppendAdditionDeltaOps(
    CorrespondenceId changed, std::vector<AdditionDeltaOp>* out) const {
  // Selecting (clearing) `changed` blocks (releases) every conflict
  // partner, unconditionally — one monotone op per row member.
  ForEachConflictOf(changed, [&](CorrespondenceId other) {
    out->push_back(AdditionDeltaOp{AdditionDeltaOp::Kind::kMonotone, other,
                                   kInvalidCorrespondence});
  });
}

void OneToOneConstraint::AppendCouplingGroups(
    std::vector<std::vector<CorrespondenceId>>* out) const {
  const size_t n = offsets_.empty() ? 0 : offsets_.size() - 1;
  for (CorrespondenceId c = 0; c < n; ++c) {
    ForEachConflictOf(c, [&](CorrespondenceId other) {
      if (other > c) out->push_back({c, other});
    });
  }
}

Status OneToOneConstraint::PropagateDetermined(
    const DynamicBitset& approved, const DynamicBitset& disapproved,
    std::vector<std::pair<CorrespondenceId, bool>>* out) const {
  Status status = Status::OK();
  approved.ForEachSetBit([&](size_t c) {
    if (!status.ok()) return;
    // Two determined-in partners contradict the constraint; check the whole
    // row before forcing anything out so a contradiction never half-emits.
    bool conflict_approved = false;
    ForEachConflictOf(static_cast<CorrespondenceId>(c),
                      [&](CorrespondenceId other) {
                        if (approved.Test(other)) conflict_approved = true;
                      });
    if (conflict_approved) {
      status = Status::FailedPrecondition(
          "one-to-one: two conflicting correspondences both determined in");
      return;
    }
    ForEachConflictOf(static_cast<CorrespondenceId>(c),
                      [&](CorrespondenceId other) {
                        if (!disapproved.Test(other)) {
                          out->emplace_back(other, false);
                        }
                      });
  });
  return status;
}

}  // namespace smn
