#ifndef SMN_CORE_SAMPLER_H_
#define SMN_CORE_SAMPLER_H_

#include <vector>

#include "core/constraint_set.h"
#include "core/feedback.h"
#include "core/network.h"
#include "core/repair.h"
#include "core/walk_scratch.h"
#include "util/dynamic_bitset.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/statusor.h"

namespace smn {

/// Tuning knobs for the non-uniform sampler (Algorithm 3).
struct SamplerOptions {
  /// Random-walk steps per emitted sample (the paper's k).
  size_t walk_steps = 8;
  /// Accept a proposed jump with probability 1 - e^(-Δ) (simulated
  /// annealing). When false, every proposal is accepted — an ablation knob.
  bool annealing = true;
  /// Greedily extend emitted samples to maximal instances so they satisfy
  /// Definition 1 exactly. When false, raw repaired walks are emitted (the
  /// literal reading of Algorithm 3) — an ablation knob.
  bool maximalize = true;
  /// Repair behavior for walk steps; cycle closure keeps closed triangles
  /// reachable (see RepairOptions::close_cycles).
  RepairOptions repair;
};

/// Non-uniform sampling of matching instances via random walk with simulated
/// annealing (Algorithm 3 / Appendix of the paper). The walk starts at F+,
/// proposes adding a random unasserted correspondence, repairs the resulting
/// violations (Algorithm 4), and accepts the proposal with probability
/// 1 - e^(-Δ) where Δ is the symmetric difference to the current state —
/// larger jumps escape high-density regions with higher probability.
class Sampler {
 public:
  /// Both `network` and `constraints` must outlive the sampler; the
  /// constraint set must be compiled against `network`.
  Sampler(const Network& network, const ConstraintSet& constraints,
          SamplerOptions options = {});

  /// Runs one random-walk transition in place on `*state` (which must be
  /// consistent): propose a random addition, repair (Algorithm 4), accept
  /// with the annealing probability. This is the engine's innermost kernel —
  /// all working memory lives in `*scratch`, so steady-state steps perform
  /// zero heap allocations. `*scratch` must not be shared across threads;
  /// results are bit-identical to NextInstance for the same rng state.
  Status Step(const Feedback& feedback, Rng* rng, DynamicBitset* state,
              WalkScratch* scratch) const;

  /// Runs one random-walk transition from `current` (which must be
  /// consistent) and returns the next chain state. Convenience wrapper over
  /// Step that allocates a scratch per call; use Step in hot loops.
  StatusOr<DynamicBitset> NextInstance(const DynamicBitset& current,
                                       const Feedback& feedback, Rng* rng) const;

  /// Draws `count` samples along one chain seeded at F+ and appends them to
  /// `*out` (Algorithm 3), working in `*scratch`. Fails when F+ itself
  /// violates the constraints. Equivalent to ChainStart + ContinueChain.
  Status SampleChain(const Feedback& feedback, size_t count, Rng* rng,
                     std::vector<DynamicBitset>* out,
                     WalkScratch* scratch) const;

  /// Computes the state a fresh chain starts from: the approved set F+,
  /// closure-repaired to consistency. With `overdisperse` set, the start is
  /// additionally extended to a random maximal instance — the overdispersed
  /// initial points that cross-chain convergence diagnostics assume
  /// (the walk's stationary distribution is unchanged either way). Fails when
  /// F+ is genuinely contradictory. Works in `*scratch`.
  StatusOr<DynamicBitset> ChainStart(const Feedback& feedback,
                                     bool overdisperse, Rng* rng,
                                     WalkScratch* scratch) const;

  /// Advances the walk from `*state`, appending `count` emitted samples to
  /// `*out` and leaving `*state` at the final chain position. `*state` must
  /// be consistent (normally a ChainStart result). All per-step working
  /// memory lives in `*scratch` (one scratch per chain / per worker); the
  /// only steady-state allocations are the emitted samples themselves.
  Status ContinueChain(const Feedback& feedback, size_t count, Rng* rng,
                       DynamicBitset* state, std::vector<DynamicBitset>* out,
                       WalkScratch* scratch) const;

  /// The active configuration.
  const SamplerOptions& options() const { return options_; }

 private:
  /// Picks a uniformly random correspondence outside I ∪ F-, or
  /// kInvalidCorrespondence when every correspondence is in I ∪ F-. The
  /// saturation fallback scans into the scratch's id buffer.
  CorrespondenceId PickCandidate(const DynamicBitset& current,
                                 const Feedback& feedback, Rng* rng,
                                 WalkScratch* scratch) const;

  const Network& network_;
  const ConstraintSet& constraints_;
  SamplerOptions options_;
};

}  // namespace smn

#endif  // SMN_CORE_SAMPLER_H_
