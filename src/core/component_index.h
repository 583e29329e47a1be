#ifndef SMN_CORE_COMPONENT_INDEX_H_
#define SMN_CORE_COMPONENT_INDEX_H_

#include <memory>
#include <vector>

#include "core/constraint_set.h"
#include "core/feedback.h"
#include "core/network.h"
#include "util/dynamic_bitset.h"
#include "util/statusor.h"

namespace smn {

/// The logically determined closure of expert feedback under the network
/// constraints: F+* ⊇ F+ holds every correspondence that must be in every
/// remaining matching instance, F-* ⊇ F- every correspondence that can be in
/// none. Computed by PropagateFeedback via constraint unit propagation
/// (approving both members of a chain forces the closing correspondence in;
/// approving a correspondence forces its one-to-one conflict partners out;
/// and so on to a fixpoint).
struct DeterminedSet {
  /// Correspondences present in every instance consistent with the feedback.
  DynamicBitset approved;
  /// Correspondences present in no instance consistent with the feedback.
  DynamicBitset disapproved;

  /// True when the value of `c` is already fixed by the feedback closure.
  bool IsDetermined(CorrespondenceId c) const {
    return approved.Test(c) || disapproved.Test(c);
  }

  /// |F+*| + |F-*|.
  size_t determined_count() const {
    return approved.Count() + disapproved.Count();
  }
};

/// Computes the determined closure of `feedback` over `correspondence_count`
/// candidates by iterating ConstraintSet::PropagateDetermined to a fixpoint.
/// Returns FailedPrecondition when the feedback is logically contradictory
/// under the constraints (e.g. both members of a hard-conflicting chain
/// approved), in which case no matching instance respects it.
StatusOr<DeterminedSet> PropagateFeedback(const ConstraintSet& constraints,
                                          const Feedback& feedback,
                                          size_t correspondence_count);

/// CSR index from correspondence id to the coupling groups containing it —
/// the inverse of ConstraintSet::CouplingGroups. Built once per compiled
/// artifact so per-assert work (boundary closure, restricted re-partition)
/// touches only the groups incident to the correspondences involved instead
/// of scanning every group in the network.
class GroupIndex {
 public:
  /// Empty index (no groups).
  GroupIndex() = default;

  /// Indexes `groups` over an id space of `correspondence_count`.
  static GroupIndex Build(
      const std::vector<std::vector<CorrespondenceId>>& groups,
      size_t correspondence_count);

  /// Calls `fn(group_id)` for each group containing `c`, ascending.
  template <typename Fn>
  void ForEachGroupOf(CorrespondenceId c, Fn&& fn) const {
    for (uint32_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
      fn(group_ids_[i]);
    }
  }

  /// Number of indexed groups.
  size_t group_count() const { return group_count_; }

  /// True when Build has not run (default-constructed).
  bool empty() const { return offsets_.empty(); }

 private:
  size_t group_count_ = 0;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> group_ids_;
};

/// One constraint-connected component: a maximal set of *undetermined*
/// correspondences linked by coupling-group co-membership. Conditioned on
/// the determined closure of the feedback, distinct components are mutually
/// independent — no constraint couples them — so feedback on one component
/// cannot change marginals in any other. This is the paper's §4 interaction
/// structure exploited for incremental reconciliation.
struct ConstraintComponent {
  /// Smallest member id; the component's stable identity for caching and
  /// deterministic per-component RNG stream derivation.
  CorrespondenceId anchor = kInvalidCorrespondence;
  /// Member correspondence ids, ascending.
  std::vector<CorrespondenceId> members;
};

/// Partition of the undetermined correspondences into constraint-connected
/// components (union-find over the coupling groups). Built in full once per
/// compiled artifact, then patched in place: whenever feedback pins a
/// variable and may thereby split a component, Replace swaps that one
/// component for its parts.
///
/// Storage: components live in stable *slots*, and an anchor-ordered list of
/// slot ids gives the positional view (component(i), ascending anchor).
/// Correspondences map to slots, so a splice rewrites only the replaced
/// component's members, the parts' members, and the order list from the
/// replaced position on — never the other components' member lists.
class ComponentIndex {
 public:
  /// No components over zero correspondences.
  ComponentIndex() = default;

  /// Partitions the correspondences of `active` (the undetermined ones)
  /// using the coupling `groups`; group members outside `active` do not
  /// link anything (a determined variable cannot transmit dependence).
  /// `correspondence_count` sizes the id space. Components come out sorted
  /// by anchor, members ascending.
  static ComponentIndex Build(
      const std::vector<std::vector<CorrespondenceId>>& groups,
      const DynamicBitset& active, size_t correspondence_count);

  /// Re-partitions the members of `component` that `determined` leaves
  /// undetermined, using only the groups incident to them (looked up
  /// through `group_index`) and local union-find over the members. The
  /// parts equal the components a full Build over the same active set
  /// would produce for these members (sorted by anchor, members
  /// ascending), at O(component) cost — which is what keeps per-assert
  /// splits independent of network size.
  static std::vector<ConstraintComponent> Split(
      const std::vector<std::vector<CorrespondenceId>>& groups,
      const GroupIndex& group_index, const ConstraintComponent& component,
      const DeterminedSet& determined);

  /// Replaces component `i` by `parts` (pairwise-disjoint, sorted by
  /// anchor, each anchor >= component(i).anchor, none overlapping another
  /// component). Members of component(i) missing from every part become
  /// kNoComponent. Components before `i` keep their positions; returns the
  /// new position of each part (ascending, in `parts` order).
  std::vector<size_t> Replace(size_t i, std::vector<ConstraintComponent> parts);

  /// Number of components.
  size_t component_count() const { return order_.size(); }

  /// Component `i`, ordered by ascending anchor.
  const ConstraintComponent& component(size_t i) const {
    return slots_[order_[i]];
  }

  /// Index of the component containing `c`, or kNoComponent when `c` is
  /// determined (not in the active set).
  size_t ComponentOf(CorrespondenceId c) const {
    const uint32_t slot = slot_of_[c];
    return slot == kNoSlot ? kNoComponent : position_[slot];
  }

  /// ComponentOf result for determined correspondences.
  static constexpr size_t kNoComponent = static_cast<size_t>(-1);

 private:
  static constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

  /// Component storage by slot; released slots hold no members.
  std::vector<ConstraintComponent> slots_;
  /// Released slots, reused last-in first-out.
  std::vector<uint32_t> free_slots_;
  /// Live slots in ascending anchor order.
  std::vector<uint32_t> order_;
  /// Slot -> position in order_ (meaningful for live slots only).
  std::vector<uint32_t> position_;
  /// Correspondence -> slot of its component, or kNoSlot.
  std::vector<uint32_t> slot_of_;
};

/// A self-contained per-component reconciliation subproblem: a sub-network
/// whose candidate set is the component's members plus the determined-in
/// boundary (the approved closure reachable through coupling groups), with
/// the original constraint kinds recompiled against it and the feedback
/// restricted to it. Sampling this subproblem yields exactly the projection
/// of the global instance distribution onto the component — the
/// conditional-independence guarantee the incremental engine rests on.
///
/// The projection is *induced*: only the attributes touched by a candidate
/// correspondence, their schemas, and the interaction-graph edges between
/// included schemas are copied, with ids renumbered monotonically (ascending
/// global order). Monotone renumbering preserves everything constraint
/// compilation observes — attribute-incidence pair order, schema
/// identity/distinctness of chain endpoints, HasEdge between included
/// schemas — so compiled conflict tables and chain enumeration come out in
/// the same order as under the old wholesale copy, keeping subproblem
/// sampling bit-identical while the per-component cost drops from O(global
/// network) to O(component).
struct ComponentSubproblem {
  /// The projected network. Heap-allocated so its address stays stable when
  /// the subproblem moves into its cache (samplers hold references to it).
  std::unique_ptr<Network> network;
  /// The original constraint kinds compiled against `network`.
  std::unique_ptr<ConstraintSet> constraints;
  /// Local-id feedback: the determined-in boundary candidates approved.
  Feedback feedback{0};
  /// Local candidate id -> global correspondence id, ascending.
  std::vector<CorrespondenceId> local_to_global;
  /// Local ids of the component's (undetermined) members, ascending.
  std::vector<CorrespondenceId> member_local_ids;
};

/// Builds the subproblem for `component`. `candidates` optionally freezes
/// the global candidate id set (ascending) to project — pass the
/// local_to_global of a previous build to reproduce it bit-for-bit under
/// unchanged restricted feedback; pass nullptr to derive the candidate set
/// fresh (members plus the approved closure reachable via `groups`).
/// `group_index`, when non-null, turns the fresh closure into a worklist
/// over the groups of the candidates (O(component) instead of O(all
/// groups) per fixpoint round); the derived candidate set is identical.
StatusOr<ComponentSubproblem> BuildComponentSubproblem(
    const Network& network, const ConstraintSet& constraints,
    const std::vector<std::vector<CorrespondenceId>>& groups,
    const ConstraintComponent& component, const DeterminedSet& determined,
    const std::vector<CorrespondenceId>* candidates,
    const GroupIndex* group_index = nullptr);

}  // namespace smn

#endif  // SMN_CORE_COMPONENT_INDEX_H_
