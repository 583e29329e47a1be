#include "tests/testing/violation_oracle.h"

#include <algorithm>

#include "constraints/cycle.h"

namespace smn {
namespace testing {
namespace {

bool ChainViolated(const CycleConstraint::Chain& chain,
                   const DynamicBitset& selection) {
  return selection.Test(chain.first) && selection.Test(chain.second) &&
         (chain.closing == kInvalidCorrespondence ||
          !selection.Test(chain.closing));
}

Violation ChainViolation(const Constraint& constraint,
                         const CycleConstraint::Chain& chain) {
  return Violation{constraint.name(), {chain.first, chain.second},
                   chain.closing};
}

const std::vector<CycleConstraint::Chain>& ChainsOf(
    const Constraint& constraint) {
  return static_cast<const CycleConstraint&>(constraint).chains();
}

}  // namespace

bool Violation::Involves(CorrespondenceId c) const {
  return std::find(participants.begin(), participants.end(), c) !=
         participants.end();
}

std::vector<ViolationTriple> Triples(const std::vector<Violation>& violations) {
  std::vector<ViolationTriple> out;
  for (const Violation& v : violations) {
    out.emplace_back(v.participants.at(0), v.participants.at(1), v.missing);
  }
  return out;
}

std::vector<ViolationTriple> Triples(
    const std::vector<KernelViolation>& violations) {
  std::vector<ViolationTriple> out;
  for (const KernelViolation& v : violations) {
    out.emplace_back(v.a, v.b, v.missing);
  }
  return out;
}

ViolationOracle::ViolationOracle(const Network& network,
                                 const ConstraintSet& constraints)
    : network_(network), constraints_(constraints) {}

std::vector<CorrespondenceId> ViolationOracle::ConflictPartners(
    CorrespondenceId c) const {
  const Correspondence& self = network_.correspondence(c);
  std::vector<CorrespondenceId> partners;
  for (const AttributeId shared : {self.left, self.right}) {
    const SchemaId far_schema =
        network_.attribute(self.OtherEnd(shared)).schema;
    for (const CorrespondenceId other : network_.CorrespondencesAt(shared)) {
      if (other == c) continue;
      const AttributeId other_far = network_.correspondence(other).OtherEnd(
          shared);
      if (network_.attribute(other_far).schema == far_schema) {
        partners.push_back(other);
      }
    }
  }
  std::sort(partners.begin(), partners.end());
  return partners;
}

std::vector<Violation> ViolationOracle::FindViolations(
    const DynamicBitset& selection) const {
  std::vector<Violation> out;
  for (size_t i = 0; i < constraints_.size(); ++i) {
    const Constraint& constraint = constraints_.constraint(i);
    switch (constraint.kind()) {
      case ConstraintKind::kOneToOne:
        selection.ForEachSetBit([&](size_t index) {
          const CorrespondenceId c = static_cast<CorrespondenceId>(index);
          for (const CorrespondenceId other : ConflictPartners(c)) {
            if (other > c && selection.Test(other)) {
              out.push_back(Violation{constraint.name(), {c, other},
                                      kInvalidCorrespondence});
            }
          }
        });
        break;
      case ConstraintKind::kCycle:
        for (const CycleConstraint::Chain& chain : ChainsOf(constraint)) {
          if (ChainViolated(chain, selection)) {
            out.push_back(ChainViolation(constraint, chain));
          }
        }
        break;
    }
  }
  return out;
}

std::vector<Violation> ViolationOracle::FindViolationsInvolving(
    const DynamicBitset& selection, CorrespondenceId c) const {
  std::vector<Violation> out;
  for (size_t i = 0; i < constraints_.size(); ++i) {
    const Constraint& constraint = constraints_.constraint(i);
    switch (constraint.kind()) {
      case ConstraintKind::kOneToOne:
        for (const CorrespondenceId other : ConflictPartners(c)) {
          if (selection.Test(other)) {
            out.push_back(Violation{constraint.name(), {c, other},
                                    kInvalidCorrespondence});
          }
        }
        break;
      case ConstraintKind::kCycle:
        for (const CycleConstraint::Chain& chain : ChainsOf(constraint)) {
          if ((chain.first == c || chain.second == c) &&
              ChainViolated(chain, selection)) {
            out.push_back(ChainViolation(constraint, chain));
          }
        }
        break;
    }
  }
  return out;
}

std::vector<Violation> ViolationOracle::FindViolationsCreatedByRemoval(
    const DynamicBitset& selection, CorrespondenceId removed) const {
  std::vector<Violation> out;
  for (size_t i = 0; i < constraints_.size(); ++i) {
    const Constraint& constraint = constraints_.constraint(i);
    if (constraint.kind() != ConstraintKind::kCycle) continue;
    for (const CycleConstraint::Chain& chain : ChainsOf(constraint)) {
      if (chain.closing == removed && selection.Test(chain.first) &&
          selection.Test(chain.second)) {
        out.push_back(ChainViolation(constraint, chain));
      }
    }
  }
  return out;
}

bool ViolationOracle::AdditionViolates(const DynamicBitset& selection,
                                       CorrespondenceId candidate) const {
  DynamicBitset grown = selection;
  grown.Set(candidate);
  return !FindViolationsInvolving(grown, candidate).empty();
}

}  // namespace testing
}  // namespace smn
