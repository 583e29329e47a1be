#include "core/component_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace smn {

StatusOr<DeterminedSet> PropagateFeedback(const ConstraintSet& constraints,
                                          const Feedback& feedback,
                                          size_t correspondence_count) {
  DeterminedSet determined;
  determined.approved = feedback.approved();
  determined.disapproved = feedback.disapproved();
  // Iterate constraint unit propagation to a fixpoint. Each productive round
  // determines at least one more correspondence, so the loop runs at most
  // |C| + 1 times.
  std::vector<std::pair<CorrespondenceId, bool>> forced;
  for (size_t round = 0; round <= correspondence_count; ++round) {
    forced.clear();
    SMN_RETURN_IF_ERROR(constraints.PropagateDetermined(
        determined.approved, determined.disapproved, &forced));
    bool changed = false;
    for (const auto& [c, value] : forced) {
      if (value) {
        if (determined.disapproved.Test(c)) {
          return Status::FailedPrecondition(
              "feedback closure contradiction: correspondence forced both in "
              "and out");
        }
        if (!determined.approved.Test(c)) {
          determined.approved.Set(c);
          changed = true;
        }
      } else {
        if (determined.approved.Test(c)) {
          return Status::FailedPrecondition(
              "feedback closure contradiction: correspondence forced both in "
              "and out");
        }
        if (!determined.disapproved.Test(c)) {
          determined.disapproved.Set(c);
          changed = true;
        }
      }
    }
    if (!changed) return determined;
  }
  return Status::Internal("feedback propagation failed to reach a fixpoint");
}

GroupIndex GroupIndex::Build(
    const std::vector<std::vector<CorrespondenceId>>& groups,
    size_t correspondence_count) {
  GroupIndex index;
  index.group_count_ = groups.size();
  index.offsets_.assign(correspondence_count + 1, 0);
  for (const auto& group : groups) {
    for (CorrespondenceId member : group) ++index.offsets_[member + 1];
  }
  for (size_t c = 0; c < correspondence_count; ++c) {
    index.offsets_[c + 1] += index.offsets_[c];
  }
  index.group_ids_.assign(index.offsets_[correspondence_count], 0);
  std::vector<uint32_t> fill(index.offsets_.begin(), index.offsets_.end() - 1);
  // Filling in group order keeps each row sorted by group id.
  for (uint32_t g = 0; g < groups.size(); ++g) {
    for (CorrespondenceId member : groups[g]) {
      index.group_ids_[fill[member]++] = g;
    }
  }
  return index;
}

namespace {

/// Plain union-find with path halving and union by size.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> size_;
};

}  // namespace

ComponentIndex ComponentIndex::Build(
    const std::vector<std::vector<CorrespondenceId>>& groups,
    const DynamicBitset& active, size_t correspondence_count) {
  UnionFind uf(correspondence_count);
  for (const auto& group : groups) {
    CorrespondenceId previous = kInvalidCorrespondence;
    for (CorrespondenceId member : group) {
      if (!active.Test(member)) continue;  // Determined: transmits nothing.
      if (previous != kInvalidCorrespondence) uf.Union(previous, member);
      previous = member;
    }
  }

  ComponentIndex index;
  index.slot_of_.assign(correspondence_count, kNoSlot);
  // Roots appear in ascending member order, so components come out sorted by
  // anchor and members ascending without an extra sort; slot i is position i.
  std::vector<uint32_t> root_to_slot(correspondence_count, kNoSlot);
  active.ForEachSetBit([&](size_t c) {
    const size_t root = uf.Find(c);
    uint32_t slot = root_to_slot[root];
    if (slot == kNoSlot) {
      slot = static_cast<uint32_t>(index.slots_.size());
      root_to_slot[root] = slot;
      index.slots_.push_back(
          ConstraintComponent{static_cast<CorrespondenceId>(c), {}});
    }
    index.slots_[slot].members.push_back(static_cast<CorrespondenceId>(c));
    index.slot_of_[c] = slot;
  });
  index.order_.resize(index.slots_.size());
  std::iota(index.order_.begin(), index.order_.end(), uint32_t{0});
  index.position_ = index.order_;
  return index;
}

std::vector<ConstraintComponent> ComponentIndex::Split(
    const std::vector<std::vector<CorrespondenceId>>& groups,
    const GroupIndex& group_index, const ConstraintComponent& component,
    const DeterminedSet& determined) {
  const std::vector<CorrespondenceId>& members = component.members;
  constexpr size_t kNone = static_cast<size_t>(-1);
  // Local id of an active member (its position in the ascending member
  // list), or kNone. Every active member of a group incident to an active
  // member already shares this component (determined only grows), so the
  // lookup never needs to leave the member list.
  auto local_id = [&](CorrespondenceId c) {
    const auto it = std::lower_bound(members.begin(), members.end(), c);
    if (it == members.end() || *it != c || determined.IsDetermined(c)) {
      return kNone;
    }
    return static_cast<size_t>(it - members.begin());
  };
  std::vector<uint32_t> incident;
  for (CorrespondenceId member : members) {
    if (determined.IsDetermined(member)) continue;
    group_index.ForEachGroupOf(member,
                               [&](uint32_t g) { incident.push_back(g); });
  }
  std::sort(incident.begin(), incident.end());
  incident.erase(std::unique(incident.begin(), incident.end()),
                 incident.end());
  // The partition is independent of union order, and the extraction below
  // depends only on the partition.
  UnionFind uf(members.size());
  for (uint32_t g : incident) {
    size_t previous = kNone;
    for (CorrespondenceId member : groups[g]) {
      const size_t local = local_id(member);
      if (local == kNone) continue;
      if (previous != kNone) uf.Union(previous, local);
      previous = local;
    }
  }

  std::vector<ConstraintComponent> parts;
  std::vector<size_t> root_to_part(members.size(), kNone);
  for (size_t local = 0; local < members.size(); ++local) {
    if (determined.IsDetermined(members[local])) continue;
    const size_t root = uf.Find(local);
    if (root_to_part[root] == kNone) {
      root_to_part[root] = parts.size();
      parts.push_back(ConstraintComponent{members[local], {}});
    }
    parts[root_to_part[root]].members.push_back(members[local]);
  }
  return parts;
}

std::vector<size_t> ComponentIndex::Replace(
    size_t i, std::vector<ConstraintComponent> parts) {
  const uint32_t replaced = order_[i];
  for (CorrespondenceId member : slots_[replaced].members) {
    slot_of_[member] = kNoSlot;
  }
  slots_[replaced] = ConstraintComponent{};
  free_slots_.push_back(replaced);

  std::vector<uint32_t> part_slots;
  part_slots.reserve(parts.size());
  for (ConstraintComponent& part : parts) {
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
      position_.push_back(0);
    }
    for (CorrespondenceId member : part.members) slot_of_[member] = slot;
    slots_[slot] = std::move(part);
    part_slots.push_back(slot);
  }

  // Every part anchors at or after the replaced anchor, and positions
  // before i anchor strictly earlier, so only the tail from i on changes:
  // merge the parts into it and renumber it.
  std::vector<uint32_t> tail(order_.begin() + i + 1, order_.end());
  order_.resize(i);
  auto part_it = part_slots.begin();
  for (uint32_t slot : tail) {
    while (part_it != part_slots.end() &&
           slots_[*part_it].anchor < slots_[slot].anchor) {
      order_.push_back(*part_it++);
    }
    order_.push_back(slot);
  }
  for (; part_it != part_slots.end(); ++part_it) {
    order_.push_back(*part_it);
  }
  for (size_t p = i; p < order_.size(); ++p) {
    position_[order_[p]] = static_cast<uint32_t>(p);
  }
  std::vector<size_t> part_positions;
  part_positions.reserve(part_slots.size());
  for (uint32_t slot : part_slots) part_positions.push_back(position_[slot]);
  return part_positions;
}

StatusOr<ComponentSubproblem> BuildComponentSubproblem(
    const Network& network, const ConstraintSet& constraints,
    const std::vector<std::vector<CorrespondenceId>>& groups,
    const ConstraintComponent& component, const DeterminedSet& determined,
    const std::vector<CorrespondenceId>* candidates,
    const GroupIndex* group_index) {
  const size_t n = network.correspondence_count();

  DynamicBitset candidate_set(n);
  if (candidates != nullptr) {
    for (CorrespondenceId c : *candidates) candidate_set.Set(c);
  } else {
    // Fresh derivation: members plus the determined-in closure reachable
    // through coupling groups. Boundary approvals are needed so chains that
    // condition a member on determined-in partners still compile (dropping
    // them would lose "member implies closing" implications); determined-out
    // correspondences are simply omitted, which encodes their absence
    // exactly (a chain whose closing is absent compiles as a hard conflict,
    // which is precisely what a determined-out closing means).
    for (CorrespondenceId member : component.members) {
      candidate_set.Set(member);
    }
    if (group_index != nullptr) {
      // Worklist closure: process each candidate's incident groups once.
      // A group's contribution (its determined-in members) is fixed, so one
      // visit per group suffices; every group touching the final candidate
      // set is reached through the candidate that first touched it.
      DynamicBitset seen(group_index->group_count());
      std::vector<CorrespondenceId> worklist(component.members);
      while (!worklist.empty()) {
        const CorrespondenceId c = worklist.back();
        worklist.pop_back();
        group_index->ForEachGroupOf(c, [&](uint32_t g) {
          if (seen.Test(g)) return;
          seen.Set(g);
          for (CorrespondenceId member : groups[g]) {
            if (determined.approved.Test(member) &&
                !candidate_set.Test(member)) {
              candidate_set.Set(member);
              worklist.push_back(member);
            }
          }
        });
      }
    } else {
      for (bool changed = true; changed;) {
        changed = false;
        for (const auto& group : groups) {
          bool touches = false;
          bool missing_approved = false;
          for (CorrespondenceId member : group) {
            if (candidate_set.Test(member)) {
              touches = true;
            } else if (determined.approved.Test(member)) {
              missing_approved = true;
            }
          }
          if (!touches || !missing_approved) continue;
          for (CorrespondenceId member : group) {
            if (determined.approved.Test(member) &&
                !candidate_set.Test(member)) {
              candidate_set.Set(member);
              changed = true;
            }
          }
        }
      }
    }
  }

  ComponentSubproblem subproblem;

  // Induced projection: keep only the attributes touched by a candidate,
  // their schemas, and the edges between included schemas, renumbering ids
  // monotonically (ascending global order). Constraint compilation observes
  // exactly the same structure it saw under a wholesale copy — incidence
  // pair order, endpoint-schema identity, HasEdge between included schemas
  // are all invariant under monotone renumbering — so the compiled tables
  // enumerate conflicts and chains in the same order and subproblem
  // sampling stays bit-identical, at O(component) instead of O(network)
  // build cost.
  DynamicBitset attribute_included(network.attribute_count());
  candidate_set.ForEachSetBit([&](size_t c) {
    const Correspondence& correspondence = network.correspondence(c);
    attribute_included.Set(correspondence.left);
    attribute_included.Set(correspondence.right);
  });
  std::vector<SchemaId> schema_local(network.schemas().size(),
                                     kInvalidSchema);
  std::vector<AttributeId> attribute_local(network.attribute_count(),
                                           kInvalidAttribute);
  NetworkBuilder builder;
  attribute_included.ForEachSetBit([&](size_t a) {
    const SchemaId schema = network.attribute(a).schema;
    if (schema_local[schema] == kInvalidSchema) {
      schema_local[schema] = builder.AddSchema(network.schemas()[schema].name());
    }
  });
  Status projection_status = Status::OK();
  attribute_included.ForEachSetBit([&](size_t a) {
    if (!projection_status.ok()) return;
    const Attribute& attribute = network.attribute(a);
    StatusOr<AttributeId> local = builder.AddAttribute(
        schema_local[attribute.schema], attribute.name, attribute.type);
    if (!local.ok()) {
      projection_status = local.status();
      return;
    }
    attribute_local[a] = local.value();
  });
  SMN_RETURN_IF_ERROR(projection_status);
  for (const auto& [a, b] : network.graph().edges()) {
    if (schema_local[a] == kInvalidSchema || schema_local[b] == kInvalidSchema) {
      continue;
    }
    SMN_RETURN_IF_ERROR(builder.AddEdge(schema_local[a], schema_local[b]));
  }
  candidate_set.ForEachSetBit([&](size_t c) {
    if (!projection_status.ok()) return;
    const Correspondence& correspondence = network.correspondence(c);
    subproblem.local_to_global.push_back(static_cast<CorrespondenceId>(c));
    StatusOr<CorrespondenceId> local = builder.AddCorrespondence(
        attribute_local[correspondence.left],
        attribute_local[correspondence.right], correspondence.confidence);
    if (!local.ok()) projection_status = local.status();
  });
  SMN_RETURN_IF_ERROR(projection_status);
  SMN_ASSIGN_OR_RETURN(Network projected, builder.Build());
  subproblem.network = std::make_unique<Network>(std::move(projected));

  subproblem.constraints =
      std::make_unique<ConstraintSet>(constraints.CloneUncompiled());
  SMN_RETURN_IF_ERROR(subproblem.constraints->Compile(*subproblem.network));

  subproblem.feedback = Feedback(subproblem.local_to_global.size());
  DynamicBitset member_set(n);
  for (CorrespondenceId member : component.members) member_set.Set(member);
  for (size_t i = 0; i < subproblem.local_to_global.size(); ++i) {
    const CorrespondenceId local = static_cast<CorrespondenceId>(i);
    const CorrespondenceId global = subproblem.local_to_global[i];
    if (member_set.Test(global)) {
      subproblem.member_local_ids.push_back(local);
    } else if (determined.approved.Test(global)) {
      SMN_RETURN_IF_ERROR(subproblem.feedback.Approve(local));
    } else {
      // A frozen candidate that is neither a member nor determined-in can
      // only be a correspondence determined *after* the freeze; its absence
      // from every instance is encoded by a local disapproval.
      SMN_RETURN_IF_ERROR(subproblem.feedback.Disapprove(local));
    }
  }
  return subproblem;
}

}  // namespace smn
