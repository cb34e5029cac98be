// Step 2 for every design: per-group bounded exhaustive search plus
// cross-group sequence chaining (paper §5.3, Fig. 9). For SQ the groups come
// from the SP1/SP2 splitter (Fig. 9b); for the non-MUX designs every
// estimated exchange is its own single-request group, which makes the chain
// the Fig. 9a layered graph.
//
// Each traffic group exposes only (request count, total estimated bytes). A
// *group candidate* explains the group as
//   a contiguous run of video chunks (start index + a track per position)
//   + some number of CBR audio chunks
//   + optionally known non-media objects (e.g. the manifest, fetched once),
// whose total true size T satisfies T <= T_estimate <= (1+k)T. Candidates are
// found by depth-first search over per-position track choices with
// partial-sum pruning against the admissible window.
//
// Groups are chained as the layers of the graph: the searcher tracks the
// *range* of possible next video indexes, and candidate enumeration is lazy,
// conditioned on that range — without the conditioning the per-group
// candidate space explodes and exhaustive search becomes infeasible.
// Oversized or unexplainable groups degrade to a *wildcard* (their requests
// stay unidentified and widen the index range by the request count) instead
// of breaking the whole chain.

#ifndef CSI_SRC_CSI_GROUP_SEARCH_H_
#define CSI_SRC_CSI_GROUP_SEARCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/csi/db_snapshot.h"
#include "src/csi/settings.h"
#include "src/csi/splitter.h"
#include "src/csi/types.h"

namespace csi::infer {

class GroupCandidateCache;  // candidate_cache.h
struct GroupCandidateSet;   // candidate_cache.h

struct GroupCandidate {
  int video_start = -1;     // -1: no video chunks in this group
  std::vector<int> tracks;  // track per consecutive video index
  int audio_count = 0;
  int other_count = 0;      // known non-media objects consumed
  // Total true bytes this candidate implies (video + audio + other).
  Bytes implied_total = 0;
  // Fallback: the group's requests stay unidentified; the next video index
  // may advance by up to the group's request count.
  bool wildcard = false;

  int video_end() const {
    return video_start < 0 ? -1 : video_start + static_cast<int>(tracks.size()) - 1;
  }

  friend bool operator==(const GroupCandidate&, const GroupCandidate&) = default;
};

// DFS node budget per (group, start-range) enumeration, split evenly across
// the start indexes with a floor of kPerStartNodeFloor each.
inline constexpr int64_t kMaxDfsNodes = 2'000'000;
inline constexpr int64_t kPerStartNodeFloor = 1 << 16;

// Most known non-media objects (EnumerationSettings::other_object_sizes) one
// enumeration combines: every subset of them is tried, 2^n splits per group.
// InferenceEngine rejects a config with more.
inline constexpr int kMaxOtherObjects = 8;

// The enumeration's settings (settings.h) plus what steers the sequence chain
// and how the search runs; only the EnumerationSettings base and the display
// constraints key the candidate tier.
struct GroupSearchConfig : EnumerationSettings {
  int max_sequences = 512;
  // Ablation switch (on by default; see bench_ablation_robustness): the merge
  // transition that repairs exchanges split by retransmitted QUIC requests.
  bool enable_merge_repair = true;
  // Optional worker pool for candidate enumeration: the admissible start
  // range is partitioned into disjoint per-start-index jobs whose merged,
  // re-ranked output is bit-identical to the serial path (each start index
  // gets budgets that do not depend on the partitioning). Null: serial.
  ThreadPool* pool = nullptr;
  // Optional shared cross-trace result cache (see candidate_cache.h):
  // enumeration consults it before the DFS and publishes after rank+truncate,
  // so results are bit-identical cache-on vs cache-off by construction. Null:
  // every enumeration computes. The caller
  // keeps the cache alive for the search's lifetime; it is safe to share
  // across concurrent searches.
  GroupCandidateCache* shared_cache = nullptr;
};

// All explanations of one group whose video run starts within
// [start_lo, start_hi] (video-free explanations are start-agnostic).
// Sets `*truncated` if a cap was hit. Candidates are ranked by
// CandidateCost; ties keep a fixed enumeration order (video-free, then
// single-chunk runs from the flat size index, then longer runs by start
// index), so the output is deterministic and independent of config.pool.
std::vector<GroupCandidate> EnumerateGroupCandidates(const TrafficGroup& group,
                                                     const DbSnapshot& db,
                                                     const GroupSearchConfig& config,
                                                     const DisplayConstraints& display,
                                                     int start_lo, int start_hi,
                                                     bool* truncated);

// Same enumeration, returning the immutable shared form the cross-trace
// cache stores: on a cache hit the set is shared, never copied. Callers that
// run many enumerations against config.shared_cache should intern their
// (config, display) context once and pass it as `context_id` (0 interns on
// demand). EnumerateGroupCandidates is a copying wrapper over this.
std::shared_ptr<const GroupCandidateSet> EnumerateGroupCandidateSet(
    const TrafficGroup& group, const DbSnapshot& db, const GroupSearchConfig& config,
    const DisplayConstraints& display, int start_lo, int start_hi, uint32_t context_id = 0);

// Ranking cost: relative deviation of the observed estimate from the
// candidate's predicted estimate under the calibrated overhead model.
double CandidateCost(const GroupCandidate& candidate, Bytes estimated_total,
                     int group_requests, const GroupSearchConfig& config);

// Full SQ inference over the split groups. `db` is an immutable snapshot;
// the search holds it for the whole call, so concurrent live-database
// publishes never affect an in-flight search.
InferenceResult SearchGroupSequences(const std::vector<TrafficGroup>& groups,
                                     const DbSnapshot& db, const GroupSearchConfig& config,
                                     const DisplayConstraints& display = {});

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_GROUP_SEARCH_H_
