#include "constraints/cycle.h"

#include <memory>

namespace smn {

std::unique_ptr<Constraint> CycleConstraint::CloneUncompiled() const {
  return std::make_unique<CycleConstraint>();
}

Status CycleConstraint::Compile(const Network& network) {
  const size_t n = network.correspondence_count();
  chains_.clear();

  // Chains pivot on a shared attribute: for attribute b, correspondences
  // a~b and b~c chain when a and c live in different schemas and the three
  // schemas form a triangle of the interaction graph.
  for (AttributeId pivot = 0; pivot < network.attribute_count(); ++pivot) {
    const auto& incident = network.CorrespondencesAt(pivot);
    for (size_t i = 0; i < incident.size(); ++i) {
      const Correspondence& ci = network.correspondence(incident[i]);
      const AttributeId end_i = ci.OtherEnd(pivot);
      const SchemaId schema_i = network.attribute(end_i).schema;
      for (size_t j = i + 1; j < incident.size(); ++j) {
        const Correspondence& cj = network.correspondence(incident[j]);
        const AttributeId end_j = cj.OtherEnd(pivot);
        const SchemaId schema_j = network.attribute(end_j).schema;
        if (schema_i == schema_j) continue;  // One-to-one territory.
        if (!network.graph().HasEdge(schema_i, schema_j)) continue;
        const auto closing = network.FindCorrespondence(end_i, end_j);
        chains_.push_back(Chain{ci.id, cj.id,
                                closing.value_or(kInvalidCorrespondence)});
      }
    }
  }

  // Second pass: pack the per-correspondence adjacency into CSR tables via
  // counting sort. Filling in chain order keeps each row sorted by chain
  // index, which is exactly the order the old per-correspondence vectors
  // accumulated — violation report order is unchanged.
  member_offsets_.assign(n + 1, 0);
  closing_offsets_.assign(n + 1, 0);
  for (const Chain& chain : chains_) {
    ++member_offsets_[chain.first + 1];
    ++member_offsets_[chain.second + 1];
    if (chain.closing != kInvalidCorrespondence) {
      ++closing_offsets_[chain.closing + 1];
    }
  }
  for (size_t c = 0; c < n; ++c) {
    member_offsets_[c + 1] += member_offsets_[c];
    closing_offsets_[c + 1] += closing_offsets_[c];
  }
  member_chains_.assign(member_offsets_[n], 0);
  closing_chains_.assign(closing_offsets_[n], 0);
  std::vector<uint32_t> member_fill(member_offsets_.begin(),
                                    member_offsets_.end() - 1);
  std::vector<uint32_t> closing_fill(closing_offsets_.begin(),
                                     closing_offsets_.end() - 1);
  for (uint32_t index = 0; index < chains_.size(); ++index) {
    const Chain& chain = chains_[index];
    member_chains_[member_fill[chain.first]++] = index;
    member_chains_[member_fill[chain.second]++] = index;
    if (chain.closing != kInvalidCorrespondence) {
      closing_chains_[closing_fill[chain.closing]++] = index;
    }
  }
  return Status::OK();
}

bool CycleConstraint::IsSatisfied(const DynamicBitset& selection) const {
  for (const Chain& chain : chains_) {
    if (ChainViolated(chain, selection)) return false;
  }
  return true;
}

void CycleConstraint::AppendConflicts(const DynamicBitset& selection,
                                      std::vector<KernelViolation>* out) const {
  for (const Chain& chain : chains_) {
    if (ChainViolated(chain, selection)) {
      out->push_back(MakeKernelViolation(chain));
    }
  }
}

void CycleConstraint::SeedAdditionBlockCounts(
    const DynamicBitset& selection, uint32_t* monotone_blocks,
    uint32_t* reversible_blocks) const {
  // One flat pass over the compiled chains. A chain (m1, m2, z) blocks the
  // addition of one member exactly while the other member is selected and z
  // is not: permanently (monotone) when no closing candidate exists — only
  // removing the selected member releases it — and reversibly when z merely
  // is not selected yet. The two member roles are scored independently so
  // the counts stay exact even for inconsistent selections (both members
  // selected with an open closing), which the incremental delta path can
  // traverse transiently.
  for (const Chain& chain : chains_) {
    const bool first_in = selection.Test(chain.first);
    const bool second_in = selection.Test(chain.second);
    if (!first_in && !second_in) continue;
    if (chain.closing == kInvalidCorrespondence) {
      if (first_in) ++monotone_blocks[chain.second];
      if (second_in) ++monotone_blocks[chain.first];
    } else if (!selection.Test(chain.closing)) {
      if (first_in) ++reversible_blocks[chain.second];
      if (second_in) ++reversible_blocks[chain.first];
    }
  }
}

void CycleConstraint::AppendAdditionDeltaOps(
    CorrespondenceId changed, std::vector<AdditionDeltaOp>* out) const {
  // Chains where `changed` is a member: its partner gains/loses one block —
  // monotone for hard conflicts, reversible-while-the-closing-is-open
  // otherwise. The partner's own membership is irrelevant: block counts are
  // maintained for selected correspondences too, which is what keeps the
  // table exact across arbitrary flip sequences.
  for (uint32_t i = member_offsets_[changed]; i < member_offsets_[changed + 1];
       ++i) {
    const Chain& chain = chains_[member_chains_[i]];
    const CorrespondenceId partner =
        chain.first == changed ? chain.second : chain.first;
    if (chain.closing == kInvalidCorrespondence) {
      out->push_back(AdditionDeltaOp{AdditionDeltaOp::Kind::kMonotone,
                                     partner, kInvalidCorrespondence});
    } else {
      out->push_back(AdditionDeltaOp{AdditionDeltaOp::Kind::kReversibleIfOpen,
                                     partner, chain.closing});
    }
  }
  // Chains where `changed` is the closing correspondence: while a member is
  // selected, the opposite member is reversibly blocked iff the closing is
  // absent — adding the closing releases those blocks, removing it
  // re-imposes them.
  for (uint32_t i = closing_offsets_[changed];
       i < closing_offsets_[changed + 1]; ++i) {
    const Chain& chain = chains_[closing_chains_[i]];
    out->push_back(AdditionDeltaOp{AdditionDeltaOp::Kind::kReleaseIfSelected,
                                   chain.second, chain.first});
    out->push_back(AdditionDeltaOp{AdditionDeltaOp::Kind::kReleaseIfSelected,
                                   chain.first, chain.second});
  }
}

size_t CycleConstraint::CountViolationsInvolving(const DynamicBitset& selection,
                                                 CorrespondenceId c) const {
  size_t count = 0;
  for (uint32_t i = member_offsets_[c]; i < member_offsets_[c + 1]; ++i) {
    if (ChainViolated(chains_[member_chains_[i]], selection)) ++count;
  }
  return count;
}

void CycleConstraint::AppendCouplingGroups(
    std::vector<std::vector<CorrespondenceId>>* out) const {
  for (const Chain& chain : chains_) {
    if (chain.closing == kInvalidCorrespondence) {
      out->push_back({chain.first, chain.second});
    } else {
      out->push_back({chain.first, chain.second, chain.closing});
    }
  }
}

Status CycleConstraint::PropagateDetermined(
    const DynamicBitset& approved, const DynamicBitset& disapproved,
    std::vector<std::pair<CorrespondenceId, bool>>* out) const {
  for (const Chain& chain : chains_) {
    const bool first_in = approved.Test(chain.first);
    const bool second_in = approved.Test(chain.second);
    if (!first_in && !second_in) continue;
    const bool closing_impossible =
        chain.closing == kInvalidCorrespondence ||
        disapproved.Test(chain.closing);
    if (first_in && second_in) {
      if (closing_impossible) {
        return Status::FailedPrecondition(
            "cycle: both chain members determined in but the closing "
            "correspondence cannot be selected");
      }
      if (!approved.Test(chain.closing)) out->emplace_back(chain.closing, true);
      continue;
    }
    // Exactly one member determined in: the chain would fire if the other
    // member joined, so an impossible closing forces that member out.
    if (closing_impossible) {
      const CorrespondenceId other = first_in ? chain.second : chain.first;
      if (!disapproved.Test(other)) out->emplace_back(other, false);
    }
  }
  return Status::OK();
}

}  // namespace smn
