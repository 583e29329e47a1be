#ifndef SMN_CORE_COMPILED_ARTIFACT_H_
#define SMN_CORE_COMPILED_ARTIFACT_H_

#include <memory>
#include <vector>

#include "core/component_index.h"
#include "core/constraint_set.h"
#include "core/network.h"
#include "util/statusor.h"

namespace smn {

/// The immutable compile-time state shared by every reconciliation session
/// over one tenant network: the candidate network, the compiled constraint
/// set (conflict-word matrices, CSR cycle tables, the addition-delta table —
/// everything ConstraintSet::Compile produces), the derived coupling groups,
/// and the empty-feedback baseline — the initial determined closure and the
/// initial constraint-connected component partition.
///
/// Splitting this out of ProbabilisticNetwork is what makes the service
/// layer cheap: N concurrent sessions over one tenant hold N shared_ptrs to
/// one artifact instead of N private copies of the coupling groups and N
/// recomputations of the initial closure/partition. Per-session *mutable*
/// state — the feedback and soft-evidence ledgers, the per-component
/// sample caches, the gains caches — stays inside each
/// ProbabilisticNetwork.
///
/// Thread safety: deeply immutable after Build/TakeOwnership; safe to share
/// across any number of threads without locks. The artifact id (the wrapped
/// set's compile_id) identifies the compiled tables for cache keying.
class CompiledArtifact {
 public:
  /// Borrowing build: derives the coupling groups, the empty-feedback
  /// closure, and the initial partition from an already compiled set.
  /// `network` and `constraints` must outlive the artifact. Fails when the
  /// constraints declare an empty network contradictory (cannot happen for
  /// the built-in constraint kinds).
  static StatusOr<CompiledArtifact> Build(const Network& network,
                                          const ConstraintSet& constraints);

  /// Owning build for long-lived tenants: the artifact keeps the network and
  /// its compiled constraint set alive for as long as any session holds the
  /// returned shared_ptr. `constraints` must already be compiled against the
  /// contents of `*network`: Compile copies the tables it derives (conflict
  /// words, cycle CSR), so a compiled set moved together with its network
  /// stays consistent, but compiling against one network and pairing with
  /// another silently mismatches correspondence ids.
  static StatusOr<std::shared_ptr<const CompiledArtifact>> TakeOwnership(
      std::unique_ptr<const Network> network,
      std::unique_ptr<const ConstraintSet> constraints);

  /// Movable, not copyable — the point of the artifact is to be shared, not
  /// duplicated.
  CompiledArtifact(CompiledArtifact&&) = default;
  CompiledArtifact& operator=(CompiledArtifact&&) = default;

  /// The candidate network this artifact was compiled against.
  const Network& network() const { return *network_; }
  /// The compiled constraints Γ.
  const ConstraintSet& constraints() const { return *constraints_; }

  /// All coupling groups of the compiled constraints (see
  /// ConstraintSet::CouplingGroups), computed once at Build.
  const std::vector<std::vector<CorrespondenceId>>& coupling_groups() const {
    return groups_;
  }

  /// CSR index from correspondence to the coupling groups containing it,
  /// computed once at Build. Sessions use it to keep per-assert closure and
  /// re-partition work O(touched component) instead of O(all groups).
  const GroupIndex& group_index() const { return group_index_; }

  /// The determined closure of *empty* feedback: correspondences forced in
  /// or out by the constraints alone. The starting closure of every session.
  const DeterminedSet& initial_determined() const {
    return initial_determined_;
  }

  /// The constraint-connected component partition of the initially
  /// undetermined correspondences — the starting partition of every session
  /// (sessions re-split components privately as their feedback pins
  /// variables).
  const ComponentIndex& initial_index() const { return initial_index_; }

  /// The compile id of the wrapped constraint set (see
  /// ConstraintSet::compile_id): process-unique per Compile call, the
  /// artifact's identity for cache keying.
  uint64_t artifact_id() const { return constraints_->compile_id(); }

 private:
  CompiledArtifact() = default;

  /// Non-null only for TakeOwnership artifacts; `network_`/`constraints_`
  /// point at the owned objects then.
  std::unique_ptr<const Network> owned_network_;
  std::unique_ptr<const ConstraintSet> owned_constraints_;

  const Network* network_ = nullptr;
  const ConstraintSet* constraints_ = nullptr;
  std::vector<std::vector<CorrespondenceId>> groups_;
  GroupIndex group_index_;
  DeterminedSet initial_determined_;
  ComponentIndex initial_index_;
};

}  // namespace smn

#endif  // SMN_CORE_COMPILED_ARTIFACT_H_
