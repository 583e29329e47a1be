#ifndef SMN_TESTS_TESTING_VIOLATION_ORACLE_H_
#define SMN_TESTS_TESTING_VIOLATION_ORACLE_H_

#include <string_view>
#include <tuple>
#include <vector>

#include "core/constraint_set.h"
#include "core/network.h"
#include "core/violation.h"
#include "util/dynamic_bitset.h"

namespace smn {
namespace testing {

/// One constraint violation as the naive oracle reports it. `participants`
/// are the selected correspondences that jointly violate the constraint;
/// removing any participant resolves this particular violation. For the
/// cycle constraint, `missing` names the absent closing correspondence that
/// would also resolve the violation (or kInvalidCorrespondence when no such
/// candidate exists in C).
struct Violation {
  /// Name of the violated constraint ("one-to-one", "cycle").
  std::string_view constraint_name;
  /// Selected correspondences that jointly violate the constraint.
  std::vector<CorrespondenceId> participants;
  /// Absent closing correspondence that would also resolve the violation,
  /// or kInvalidCorrespondence when none exists in C.
  CorrespondenceId missing = kInvalidCorrespondence;

  /// True when `c` participates in this violation.
  bool Involves(CorrespondenceId c) const;
};

/// A violation as (first participant, second participant, missing), for
/// comparing oracle and kernel reports element by element in report order.
using ViolationTriple =
    std::tuple<CorrespondenceId, CorrespondenceId, CorrespondenceId>;

/// The oracle's violations as triples, in report order.
std::vector<ViolationTriple> Triples(const std::vector<Violation>& violations);

/// The kernel's violations as triples, in report order.
std::vector<ViolationTriple> Triples(
    const std::vector<KernelViolation>& violations);

/// Naive, allocating reference implementation of the violation queries the
/// walk kernel answers from its compiled tables. It shares none of those
/// tables: one-to-one conflicts are re-derived from the Network definition
/// (two correspondences sharing an attribute whose far ends lie in the same
/// schema), and cycle violations are read off CycleConstraint::chains() —
/// never from the compiled CSR member/closing rows or the dense conflict
/// words the kernel queries walk.
///
/// Report order matches the kernel's, so order-sensitive consumers (the
/// reference repair loop) agree bit for bit: constraints in ConstraintSet
/// Add order; one-to-one pairs by ascending lower id, then ascending
/// partner; cycle violations in ascending chain order.
class ViolationOracle {
 public:
  /// `network` and `constraints` must outlive the oracle; `constraints`
  /// must be compiled against `network`.
  ViolationOracle(const Network& network, const ConstraintSet& constraints);

  /// All violations in `selection`.
  std::vector<Violation> FindViolations(const DynamicBitset& selection) const;

  /// Violations in `selection` that involve the selected correspondence
  /// `c`.
  std::vector<Violation> FindViolationsInvolving(const DynamicBitset& selection,
                                                 CorrespondenceId c) const;

  /// Violations that exist in `selection` only because `removed` was just
  /// cleared from it: re-opened triangles of the cycle constraint.
  std::vector<Violation> FindViolationsCreatedByRemoval(
      const DynamicBitset& selection, CorrespondenceId removed) const;

  /// True when adding the unselected `candidate` to `selection` creates a
  /// violation involving it.
  bool AdditionViolates(const DynamicBitset& selection,
                        CorrespondenceId candidate) const;

  /// True when `selection` has no violation.
  bool IsSatisfied(const DynamicBitset& selection) const {
    return FindViolations(selection).empty();
  }

 private:
  /// One-to-one conflict partners of `c`, ascending.
  std::vector<CorrespondenceId> ConflictPartners(CorrespondenceId c) const;

  const Network& network_;
  const ConstraintSet& constraints_;
};

}  // namespace testing
}  // namespace smn

#endif  // SMN_TESTS_TESTING_VIOLATION_ORACLE_H_
