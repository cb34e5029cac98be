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
// entry records the state it was computed at and one fact decided at Insert:
// whether the enumeration could have read a position at or past that state's
// position count (EnumerationSurvivesAppends). Under a newer state of the same
// lineage the shared anchored check re-anchors an entry that survives appends
// and drops every other one that sees an append. The soundness argument is in
// cache_common.h.
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
  struct Extra {};
  static constexpr internal::TierNames kNames{"candidate", "group_cache",
                                              "group_cache_lookup", "same_state",
                                              /*revalidates=*/true};
};

class GroupCandidateCache : public internal::CacheCore<CandidateTier> {
 public:
  // Canonical "up to the live edge" upper start bound: a caller whose raw
  // start_hi reaches its snapshot's last position stores/looks up under this
  // sentinel. Such a growth-range entry never survives an append, and the
  // shared key is what lets the first lookup after one find it and drop it,
  // instead of leaving it orphaned under a key no later state asks for.
  static constexpr int kOpenHi = std::numeric_limits<int>::max();

  using CacheCore::CacheCore;

  // Canonicalizes a raw admissible start range against `db` and assembles the
  // key: lo clamps to 0, hi becomes kOpenHi when it reaches the snapshot's
  // last position.
  static Query MakeQuery(const DbSnapshot& db, uint32_t context, int requests,
                         Bytes estimated_total, int start_lo, int start_hi);

  // Returns the cached set when a valid entry exists for `query` under `db`'s
  // state, else null (see the core's lookup outcomes). Bumps the active
  // InferenceAudit's cache counters.
  std::shared_ptr<const GroupCandidateSet> Lookup(const Query& query, const DbSnapshot& db);

  // Publishes an enumeration result computed against `db`, whose longest
  // split asks for `v_max` video chunks; sets larger than a whole shard's
  // budget are not admitted.
  void Insert(const Query& query, const DbSnapshot& db, int v_max,
              std::shared_ptr<const GroupCandidateSet> set);
};

// Whether one group enumeration's output stays exact under every later state
// of its lineage: true when no split asks for video (`v_max` 0), or when the
// canonical start range is concrete (not GroupCandidateCache::kOpenHi) and
// either empty or ends early enough that its longest run stays below
// `positions`, the count the output was computed at. Any other enumeration
// may read appended positions.
bool EnumerationSurvivesAppends(int v_max, int start_lo, int canonical_start_hi, int positions);

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_CANDIDATE_CACHE_H_
