// Shared snapshot-keyed cache of ranked group-candidate sets.
//
// The SQ group search dominates per-trace inference cost, and a batch of
// captures from the same service re-enumerates identical (group signature,
// start range) candidate sets thousands of times — every trace, every
// engine session, every --follow-manifests repeat starts cold.
// GroupCandidateCache is the cross-trace/cross-session amortization layer,
// mapping
//
//   (database lineage, interned (EnumerationSettings, display) context,
//    request count, estimated total bytes, canonical start range)
//
// to the immutable ranked output of EnumerateGroupCandidateSet. The key
// canonicalizes exactly what the enumeration depends on, so structurally
// identical groups from different captures hit.
//
// Snapshot awareness (the part that makes --follow-manifests warm-start):
// entries are NOT dropped wholesale when a LiveChunkDatabase publishes. Each
// entry records the state it was computed at plus the size hulls of its
// object splits; under a newer state of the same lineage it is lazily
// revalidated by the shared anchored check, with the dependence
// EnumerationDependence derives from those hulls at the entry's anchor. The
// soundness argument is in cache_common.h.
//
// Storage, eviction (an entry's cost is the heap footprint of its candidate
// vectors) and accounting are the shared core's. A budget of 0
// (BatchConfig::caches.candidate) means no cache is created at all.

#ifndef CSI_SRC_CSI_CANDIDATE_CACHE_H_
#define CSI_SRC_CSI_CANDIDATE_CACHE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/csi/cache_common.h"
#include "src/csi/db_snapshot.h"
#include "src/csi/group_search.h"

namespace csi::infer {

// Immutable ranked output of one (group, start range) enumeration: the
// candidates plus whether a cap truncated them. Shared by pointer between the
// cache and every searcher that hits it.
struct GroupCandidateSet {
  std::vector<GroupCandidate> candidates;
  bool truncated = false;
};

// Size hulls of the object splits an enumeration ran with, recorded per entry
// for cross-state revalidation. All windows are on *true video byte sums*.
struct CandidateSetHull {
  // True when some split asks for at least one video chunk. Entries without
  // any video split never touch the position axis and revalidate trivially.
  bool has_video_split = false;
  // Largest video run length any split asks for.
  int v_max = 0;
  // Hull of the single-chunk (v == 1) split windows: a chunk whose size lies
  // outside [hull1_lo, hull1_hi] can never become a new single-chunk
  // candidate.
  bool has_v1 = false;
  Bytes hull1_lo = 0;
  Bytes hull1_hi = 0;
  // Max upper bound over multi-chunk (v >= 2) split windows: an appended
  // chunk with size > hull2_hi makes every run through it prunable
  // (MinSum > video_hi) before the DFS expands a node.
  Bytes hull2_hi = 0;
  // Max upper bound over all video splits (v >= 1).
  Bytes hull_all_hi = 0;
};

// Key, context and names of the candidate tier over the shared core
// (cache_common.h).
struct CandidateTier {
  // Everything a cache key needs. Build one with MakeQuery so the start range
  // is canonicalized consistently.
  struct Query {
    uint64_t lineage = 0;
    uint32_t context = 0;
    int requests = 0;
    Bytes estimated_total = 0;
    int start_lo = 0;
    int start_hi = 0;

    friend bool operator==(const Query&, const Query&) = default;
  };
  struct Hash {
    size_t operator()(const Query& q) const;
  };
  // What one enumeration reads: the EnumerationSettings slice of its
  // GroupSearchConfig (settings.h) and the display constraints. The pool, the
  // cache pointer and the sequence-chain knobs are not in it: the per-group
  // output does not depend on them.
  struct Context {
    EnumerationSettings settings;
    DisplayConstraints display;

    friend bool operator==(const Context&, const Context&) = default;
  };
  using Value = GroupCandidateSet;
  using Extra = CandidateSetHull;
  static constexpr internal::TierNames kNames{"candidate", "group_cache",
                                              "group_cache_lookup", "same_state",
                                              /*revalidates=*/true};

  // The entry's dependence at its anchor's position count.
  static PositionDependence Dependence(const Query& query, const Extra& hull, int positions);
};

class GroupCandidateCache : public internal::CacheCore<CandidateTier> {
 public:
  // Canonical "up to the live edge" upper start bound: a caller whose raw
  // start_hi reaches its snapshot's last position stores/looks up under this
  // sentinel, so chain-root ranges hit across refreshes that move the edge.
  static constexpr int kOpenHi = std::numeric_limits<int>::max();
  // Per-start DFS budget floor of group_search.cc's enumeration. The
  // growth-range rule of EnumerationDependence leans on budgets flooring
  // identically at both states.
  static constexpr int64_t kPerStartNodeFloor = 1 << 16;

  using CacheCore::CacheCore;

  // Canonicalizes a raw admissible start range against `db` and assembles the
  // key: lo clamps to 0, hi becomes kOpenHi when it reaches the snapshot's
  // last position.
  static Query MakeQuery(const DbSnapshot& db, uint32_t context, int requests,
                         Bytes estimated_total, int start_lo, int start_hi);

  // Returns the cached set when a valid entry exists for `query` under `db`'s
  // state, else null (see the core's lookup outcomes). On a hit, `hull_out`
  // (when non-null) receives the entry's recorded size hulls so the caller
  // can fold the skipped enumeration into the result-tier hull. Bumps the
  // active InferenceAudit's cache counters.
  std::shared_ptr<const GroupCandidateSet> Lookup(const Query& query, const DbSnapshot& db,
                                                  CandidateSetHull* hull_out = nullptr);

  // Publishes an enumeration result computed against `db`; sets larger than
  // a whole shard's budget are not admitted.
  void Insert(const Query& query, const DbSnapshot& db, const CandidateSetHull& hull,
              std::shared_ptr<const GroupCandidateSet> set);
};

// How one group enumeration's output depends on the position axis (see
// cache_common.h): `start_lo` is the range's lower start bound,
// `canonical_start_hi` its upper one as MakeQuery canonicalizes it
// (GroupCandidateCache::kOpenHi when the range reached the live edge), and
// `positions` the position count the output is exact for. The candidate tier
// evaluates it at each entry's anchor; the result tier folds it into a
// ResultHull at analyze time.
PositionDependence EnumerationDependence(const CandidateSetHull& hull, int start_lo,
                                         int canonical_start_hi, int positions);

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_CANDIDATE_CACHE_H_
