#include "core/constraint_set.h"

#include <atomic>
#include <cassert>

namespace smn {

void ConstraintSet::Add(std::unique_ptr<Constraint> constraint) {
  assert(!compiled_ && "Add must precede Compile");
  constraints_.push_back(std::move(constraint));
}

Status ConstraintSet::Compile(const Network& network) {
  for (auto& c : constraints_) {
    SMN_RETURN_IF_ERROR(c->Compile(network));
  }
  compiled_ = true;
  // Stamp this compilation with a process-unique id (see compile_id()).
  static std::atomic<uint64_t> next_compile_id{1};
  compile_id_ = next_compile_id.fetch_add(1, std::memory_order_relaxed);
  // Compile the addition tracker's flat delta table (see
  // ApplyAdditionBlockDelta): one CSR row of merged per-constraint ops per
  // correspondence.
  const size_t n = network.correspondence_count();
  delta_offsets_.clear();
  delta_ops_.clear();
  delta_offsets_.reserve(n + 1);
  delta_offsets_.push_back(0);
  for (CorrespondenceId c = 0; c < n; ++c) {
    for (const auto& constraint : constraints_) {
      constraint->AppendAdditionDeltaOps(c, &delta_ops_);
    }
    delta_offsets_.push_back(static_cast<uint32_t>(delta_ops_.size()));
  }
  return Status::OK();
}

bool ConstraintSet::IsSatisfied(const DynamicBitset& selection) const {
  assert(compiled_);
  for (const auto& c : constraints_) {
    if (!c->IsSatisfied(selection)) return false;
  }
  return true;
}

void ConstraintSet::AppendConflicts(const DynamicBitset& selection,
                                    std::vector<KernelViolation>* out) const {
  assert(compiled_);
  for (const auto& constraint : constraints_) {
    constraint->AppendConflicts(selection, out);
  }
}

void ConstraintSet::AppendConflictsInvolving(
    const DynamicBitset& selection, CorrespondenceId c,
    std::vector<KernelViolation>* out) const {
  assert(compiled_);
  for (const auto& constraint : constraints_) {
    constraint->AppendConflictsInvolving(selection, c, out);
  }
}

void ConstraintSet::AppendConflictsCreatedByRemoval(
    const DynamicBitset& selection, CorrespondenceId removed,
    std::vector<KernelViolation>* out) const {
  assert(compiled_);
  for (const auto& constraint : constraints_) {
    constraint->AppendConflictsCreatedByRemoval(selection, removed, out);
  }
}

void ConstraintSet::SeedAdditionBlockCounts(const DynamicBitset& selection,
                                            uint32_t* monotone_blocks,
                                            uint32_t* reversible_blocks) const {
  assert(compiled_);
  for (const auto& constraint : constraints_) {
    constraint->SeedAdditionBlockCounts(selection, monotone_blocks,
                                        reversible_blocks);
  }
}

bool ConstraintSet::AdditionViolates(const DynamicBitset& selection,
                                     CorrespondenceId candidate) const {
  assert(compiled_);
  for (const auto& c : constraints_) {
    if (c->AdditionViolates(selection, candidate)) return true;
  }
  return false;
}

size_t ConstraintSet::CountViolationsInvolving(const DynamicBitset& selection,
                                               CorrespondenceId c) const {
  assert(compiled_);
  size_t total = 0;
  for (const auto& constraint : constraints_) {
    total += constraint->CountViolationsInvolving(selection, c);
  }
  return total;
}

std::vector<std::vector<CorrespondenceId>> ConstraintSet::CouplingGroups()
    const {
  assert(compiled_);
  std::vector<std::vector<CorrespondenceId>> groups;
  for (const auto& constraint : constraints_) {
    constraint->AppendCouplingGroups(&groups);
  }
  return groups;
}

Status ConstraintSet::PropagateDetermined(
    const DynamicBitset& approved, const DynamicBitset& disapproved,
    std::vector<std::pair<CorrespondenceId, bool>>* out) const {
  assert(compiled_);
  for (const auto& constraint : constraints_) {
    SMN_RETURN_IF_ERROR(
        constraint->PropagateDetermined(approved, disapproved, out));
  }
  return Status::OK();
}

ConstraintSet ConstraintSet::CloneUncompiled() const {
  ConstraintSet clone;
  for (const auto& constraint : constraints_) {
    clone.Add(constraint->CloneUncompiled());
  }
  return clone;
}

}  // namespace smn
