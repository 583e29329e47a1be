#ifndef SMN_CORE_WALK_SCRATCH_H_
#define SMN_CORE_WALK_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "core/violation.h"
#include "util/dynamic_bitset.h"

namespace smn {

/// Reusable working memory for the compiled walk kernel: the violation
/// worklists, sparse victim counters, closure bookkeeping, and proposal
/// buffer that Sampler::Step, RepairInstance/RepairAll, Maximalize, and the
/// instantiation search thread through instead of allocating per call. After
/// a short warm-up (buffer capacities plateau at the network's conflict
/// degree), steady-state walk steps perform zero heap allocations.
///
/// Ownership and thread affinity: a WalkScratch belongs to exactly one walk
/// at a time — ParallelSampler creates one per chain task, the Instantiator
/// one per Instantiate call. Scratches are never shared across threads; the
/// Sampler itself stays stateless and const-shareable.
///
/// Buffer discipline: `counts` is all-zero and `touched` empty between
/// kernel calls (the repair loop resets exactly the entries it dirtied);
/// `worklist`/`introduced`/`pending` and `eligible` are overwritten by each
/// user; `closure_tried` is cleared lazily by the next repair that needs it.
class WalkScratch {
 public:
  /// An empty scratch; Prepare must run before first use (the kernel entry
  /// points call it themselves).
  WalkScratch() = default;

  /// A scratch pre-sized for `correspondence_count` candidates.
  explicit WalkScratch(size_t correspondence_count) {
    Prepare(correspondence_count);
  }

  /// Sizes every buffer for a candidate set of `n` correspondences and
  /// reserves steady-state capacities. Idempotent: repeated calls with the
  /// same `n` are a cheap no-op, so kernel entry points call it defensively.
  void Prepare(size_t n) {
    if (prepared_size_ == n) return;
    counts.assign(n, 0);
    touched.clear();
    touched.reserve(n);
    closure_tried = DynamicBitset(n);
    next_state = DynamicBitset(n);
    eligible.clear();
    eligible.reserve(n);
    walk_monotone_blocks.assign(n, 0);
    walk_reversible_blocks.assign(n, 0);
    fix_monotone_blocks.assign(n, 0);
    fix_reversible_blocks.assign(n, 0);
    tracker_state = DynamicBitset(n);
    tracker_compile_id = 0;
    worklist.clear();
    worklist.reserve(kInitialWorklistCapacity);
    introduced.clear();
    introduced.reserve(kInitialWorklistCapacity);
    pending.clear();
    pending.reserve(kInitialWorklistCapacity);
    prepared_size_ = n;
  }

  /// Candidate-set size the buffers are currently sized for, or SIZE_MAX
  /// before the first Prepare.
  size_t prepared_size() const { return prepared_size_; }

  /// Active violation worklist of the repair loop.
  std::vector<KernelViolation> worklist;
  /// Violations introduced by a tentative cycle closure.
  std::vector<KernelViolation> introduced;
  /// Compaction target the repair loop swaps with `worklist`.
  std::vector<KernelViolation> pending;
  /// Per-correspondence violation participation counts (victim selection).
  /// All-zero between kernel calls; only `touched` entries are ever dirty.
  std::vector<uint32_t> counts;
  /// Correspondences with a nonzero entry in `counts` — the sparse overlay
  /// that replaces the full-n fill + full-n victim scan of the naive loop.
  std::vector<CorrespondenceId> touched;
  /// Correspondences already given their one closure attempt this repair.
  DynamicBitset closure_tried;
  /// Proposal buffer for the sampler's in-place walk transition.
  DynamicBitset next_state;
  /// Candidate id buffer shared by PickCandidate's saturation fallback and
  /// Maximalize's shuffle (never live at the same time).
  std::vector<CorrespondenceId> eligible;
  /// Addition-tracker counters for `tracker_state` (see
  /// Constraint::SeedAdditionBlockCounts): blocks released only by
  /// removals, and blocks an addition can release. Maximalize keeps them in
  /// sync with its input selection by applying the (small) diff against the
  /// previous call instead of re-seeding from scratch — the consecutive
  /// emitted states of one chain differ by a handful of bits.
  std::vector<uint32_t> walk_monotone_blocks;
  /// Reversible-half of the tracker counters (see walk_monotone_blocks).
  std::vector<uint32_t> walk_reversible_blocks;
  /// Working copies of the tracker counters consumed (and mutated) by one
  /// Maximalize fixpoint run.
  std::vector<uint32_t> fix_monotone_blocks;
  /// Reversible-half of the fixpoint working copies.
  std::vector<uint32_t> fix_reversible_blocks;
  /// The selection the walk_* counters currently describe.
  DynamicBitset tracker_state;
  /// ConstraintSet::compile_id() the tracker was seeded against, or 0 when
  /// unseeded (fresh scratch, resize, or reuse against a different compiled
  /// set — the same scratch may serve several networks over its lifetime).
  uint64_t tracker_compile_id = 0;

 private:
  /// Initial worklist capacity; grows to the walk's real violation fan-out
  /// during warm-up and then stays put.
  static constexpr size_t kInitialWorklistCapacity = 64;

  size_t prepared_size_ = static_cast<size_t>(-1);
};

}  // namespace smn

#endif  // SMN_CORE_WALK_SCRATCH_H_
