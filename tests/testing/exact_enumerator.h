#ifndef SMN_TESTS_TESTING_EXACT_ENUMERATOR_H_
#define SMN_TESTS_TESTING_EXACT_ENUMERATOR_H_

#include <vector>

#include "core/constraint_set.h"
#include "core/feedback.h"
#include "core/network.h"
#include "util/dynamic_bitset.h"
#include "util/statusor.h"

namespace smn {

/// Output of exhaustive matching-instance enumeration.
struct ExactEnumerationResult {
  /// Every matching instance (Definition 1) under the given feedback.
  std::vector<DynamicBitset> instances;
  /// Exact probabilities per Equation 1: the fraction of instances
  /// containing each correspondence. All zero when no instance exists.
  std::vector<double> probabilities;
};

/// Test oracle: enumerates all matching instances of a network by checking
/// every subset of C — the Ω(F+, F-) of Equation 1 — straight from
/// Definition 1, with no component decomposition. Exponential in |C| by
/// construction; refuses networks beyond `max_candidates` correspondences.
/// The engine's own exact path (ProbabilisticNetwork's member-exact
/// enumeration) is checked against it.
class ExactEnumerator {
 public:
  /// `network` and `constraints` must outlive the enumerator.
  ExactEnumerator(const Network& network, const ConstraintSet& constraints,
                  size_t max_candidates = 26);

  /// Runs the enumeration under `feedback`.
  StatusOr<ExactEnumerationResult> Enumerate(const Feedback& feedback) const;

  /// Number of matching instances only (no instance materialization).
  StatusOr<size_t> CountInstances(const Feedback& feedback) const;

 private:
  const Network& network_;
  const ConstraintSet& constraints_;
  size_t max_candidates_;
};

}  // namespace smn

#endif  // SMN_TESTS_TESTING_EXACT_ENUMERATOR_H_
