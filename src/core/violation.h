#ifndef SMN_CORE_VIOLATION_H_
#define SMN_CORE_VIOLATION_H_

#include "core/types.h"

namespace smn {

/// One concrete constraint violation found in a correspondence selection,
/// as the compiled walk kernel reports it. The record owns no heap storage,
/// so worklists of KernelViolation can be reused across repair calls without
/// allocating. The constraints of the paper are pairwise (one-to-one
/// conflicts, cycle chains): every violation has at most two selected
/// participants — removing either resolves it — plus an optional absent
/// closing correspondence whose addition would also resolve it.
struct KernelViolation {
  /// First selected participant.
  CorrespondenceId a = kInvalidCorrespondence;
  /// Second selected participant, or kInvalidCorrespondence for violations
  /// with a single participant.
  CorrespondenceId b = kInvalidCorrespondence;
  /// Absent closing correspondence that would also resolve the violation
  /// (an open chain of the cycle constraint), or kInvalidCorrespondence when
  /// none exists in C.
  CorrespondenceId missing = kInvalidCorrespondence;

  /// True when `c` participates in this violation.
  bool Involves(CorrespondenceId c) const { return a == c || b == c; }
};

}  // namespace smn

#endif  // SMN_CORE_VIOLATION_H_
