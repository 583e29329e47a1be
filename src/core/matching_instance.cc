#include "core/matching_instance.h"

#include <algorithm>
#include <vector>

namespace smn {

bool IsConsistentInstance(const ConstraintSet& constraints,
                          const Feedback& feedback,
                          const DynamicBitset& selection) {
  return feedback.IsRespectedBy(selection) && constraints.IsSatisfied(selection);
}

bool IsMaximalInstance(const ConstraintSet& constraints,
                       const Feedback& feedback,
                       const DynamicBitset& selection) {
  const size_t n = selection.size();
  for (CorrespondenceId c = 0; c < n; ++c) {
    if (selection.Test(c) || feedback.IsDisapproved(c)) continue;
    if (!constraints.AdditionViolates(selection, c)) return false;
  }
  return true;
}

bool IsMatchingInstance(const ConstraintSet& constraints,
                        const Feedback& feedback,
                        const DynamicBitset& selection) {
  return IsConsistentInstance(constraints, feedback, selection) &&
         IsMaximalInstance(constraints, feedback, selection);
}

void Maximalize(const ConstraintSet& constraints, const Feedback& feedback,
                Rng* rng, DynamicBitset* selection, WalkScratch* scratch) {
  const size_t n = selection->size();
  scratch->Prepare(n);
  std::vector<CorrespondenceId>& candidates = scratch->eligible;
  candidates.clear();
  // Word-parallel candidate harvest: free = ~(selected | disapproved),
  // walked in the same ascending order the per-bit loop produced.
  const DynamicBitset& disapproved = feedback.disapproved();
  const size_t words = selection->word_count();
  for (size_t w = 0; w < words; ++w) {
    uint64_t free_word = ~(selection->word(w) | disapproved.word(w));
    if (w == words - 1 && (n & 63) != 0) {
      free_word &= (1ULL << (n & 63)) - 1;  // Mask the tail past bit n.
    }
    while (free_word != 0) {
      const int bit = __builtin_ctzll(free_word);
      candidates.push_back(
          static_cast<CorrespondenceId>(w * 64 + static_cast<size_t>(bit)));
      free_word &= free_word - 1;
    }
  }
  rng->Shuffle(&candidates);

  // Greedy fixpoint over addition-block counters. The scratch carries
  // per-candidate block counters for `tracker_state`; syncing them to this
  // call's input costs one ApplyAdditionBlockDelta per differing bit —
  // consecutive emitted chain states differ by a handful of bits, so the
  // per-sample full sweep over every compiled constraint element
  // disappears. A candidate is addable exactly when both its counts are
  // zero, so the greedy additions (and the rng draws) are identical to a
  // naive per-candidate AdditionViolates fixpoint in shuffled order: the
  // result is bit-identical.
  uint32_t* walk_monotone = scratch->walk_monotone_blocks.data();
  uint32_t* walk_reversible = scratch->walk_reversible_blocks.data();
  DynamicBitset& tracked = scratch->tracker_state;
  const bool tracker_valid =
      scratch->tracker_compile_id == constraints.compile_id();
  size_t diff_bits = 0;
  if (tracker_valid) {
    for (size_t w = 0; w < tracked.word_count(); ++w) {
      diff_bits += static_cast<size_t>(
          __builtin_popcountll(tracked.word(w) ^ selection->word(w)));
    }
  }
  if (!tracker_valid || diff_bits > n / 4) {
    // Fresh seed: foreign or far-away state — the scratch's counters
    // describe a different compiled set (one scratch reused across
    // networks), or an unrelated caller such as the instantiation search
    // jumped between selections.
    std::fill(scratch->walk_monotone_blocks.begin(),
              scratch->walk_monotone_blocks.end(), 0);
    std::fill(scratch->walk_reversible_blocks.begin(),
              scratch->walk_reversible_blocks.end(), 0);
    constraints.SeedAdditionBlockCounts(*selection, walk_monotone,
                                        walk_reversible);
    tracked = *selection;
    scratch->tracker_compile_id = constraints.compile_id();
  } else if (diff_bits != 0) {
    bool ignored = false;
    for (size_t w = 0; w < tracked.word_count(); ++w) {
      uint64_t diff_word = tracked.word(w) ^ selection->word(w);
      while (diff_word != 0) {
        const size_t e = w * 64 +
                         static_cast<size_t>(__builtin_ctzll(diff_word));
        diff_word &= diff_word - 1;
        const bool now_selected = selection->Test(e);
        tracked.Assign(e, now_selected);
        constraints.ApplyAdditionBlockDelta(
            tracked, static_cast<CorrespondenceId>(e), now_selected,
            walk_monotone, walk_reversible, &ignored);
      }
    }
  }

  // Fixpoint on working copies (equal sizes: plain element copies, no
  // allocation); the tracker itself keeps describing the input state for
  // the next call.
  scratch->fix_monotone_blocks = scratch->walk_monotone_blocks;
  scratch->fix_reversible_blocks = scratch->walk_reversible_blocks;
  uint32_t* monotone = scratch->fix_monotone_blocks.data();
  uint32_t* reversible = scratch->fix_reversible_blocks.data();
  bool rescan = true;
  while (rescan) {
    bool added = false;
    bool unblocked = false;
    // Each pass compacts the candidate list in place: entries that were
    // added or are monotonically blocked cannot be added by a later pass,
    // so only reversibly-blocked survivors (in their original shuffled
    // order) are rescanned — exactly the entries the naive re-pass could
    // still act on.
    size_t kept = 0;
    for (CorrespondenceId c : candidates) {
      if (monotone[c] != 0) continue;
      if (reversible[c] != 0) {
        candidates[kept++] = c;
        continue;
      }
      selection->Set(c);
      constraints.ApplyAdditionBlockDelta(*selection, c, /*added=*/true,
                                          monotone, reversible, &unblocked);
      added = true;
    }
    candidates.resize(kept);
    // Another pass can only add something if this one both added (the old
    // fixpoint condition) and released a reversible block; otherwise every
    // remaining candidate is still blocked and the extra pass is a no-op.
    rescan = added && unblocked;
  }
}

size_t RepairDistance(const DynamicBitset& instance, size_t candidate_count) {
  return candidate_count - instance.Count();
}

}  // namespace smn
