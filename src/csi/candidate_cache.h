// Shared snapshot-keyed cache of ranked group-candidate sets.
//
// The SQ group search dominates per-trace inference cost, and a batch of
// captures from the same service re-enumerates identical (group signature,
// start range) candidate sets thousands of times — every trace, every
// engine session, every --follow-manifests repeat starts cold.
// GroupCandidateCache is the cross-trace/cross-session amortization layer: a
// sharded, concurrent, byte-budgeted cache mapping
//
//   (database lineage, interned config+display context,
//    request count, estimated total bytes, canonical start range)
//
// to the immutable ranked output of EnumerateGroupCandidateSet. The key
// canonicalizes exactly what the enumeration depends on, so structurally
// identical groups from different captures hit.
//
// Snapshot awareness (the part that makes --follow-manifests warm-start):
// entries are NOT dropped wholesale when a LiveChunkDatabase publishes.
// Within one lineage, refreshes only ever append positions — existing chunk
// sizes never change and audio is CBR — so an entry computed at state A stays
// byte-identical at a later state B unless one of the appended chunks could
// have entered the enumeration's output. Each entry therefore records the
// state it was computed at plus the *size hulls* of its object splits, and is
// lazily revalidated on first access under a newer state with one
// DbSnapshot::DeltaHasSizeInWindow probe (O(log delta)): if no appended
// chunk's size intersects the hull, the DFS would have pruned every run
// touching the new positions before expanding a single node and the
// single-chunk index filter excludes them outright, so the cached output is
// the output — and the entry is re-anchored to B (O(1) checks from then on,
// transitive across refreshes). Compaction past the entry's refresh point
// folds the appends into the base where they can no longer be probed; such
// entries conservatively invalidate.
//
// Hits return a shared_ptr to an immutable GroupCandidateSet — readers never
// copy candidate vectors and never block behind a publish. Eviction is
// per-shard second-chance (clock) over a byte budget via the shared
// ShardedClockStore (cache_common.h); an entry's cost is the heap footprint
// of its candidate vectors. Force-off escape hatch: CSI_CACHE=candidate:off
// turns every lookup into a miss and every insert into a no-op, for A/B runs
// and bypass-path CI.

#ifndef CSI_SRC_CSI_CANDIDATE_CACHE_H_
#define CSI_SRC_CSI_CANDIDATE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
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

class GroupCandidateCache {
 public:
  // Canonical "up to the live edge" upper start bound: a caller whose raw
  // start_hi reaches its snapshot's last position stores/looks up under this
  // sentinel, so chain-root ranges hit across refreshes that move the edge.
  static constexpr int kOpenHi = std::numeric_limits<int>::max();
  static constexpr int kDefaultShards = 16;
  // Per-start DFS budget floor of group_search.cc's enumeration. The
  // growth-range revalidation (here and in the result cache) leans on budgets
  // flooring identically at both states.
  static constexpr int64_t kPerStartNodeFloor = 1 << 16;

  // Unified stats block shared by every cache tier (cache_common.h).
  using Stats = CacheStats;

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

  explicit GroupCandidateCache(size_t budget_bytes, int shards = kDefaultShards);

  GroupCandidateCache(const GroupCandidateCache&) = delete;
  GroupCandidateCache& operator=(const GroupCandidateCache&) = delete;

  // True when the CSI_CACHE=candidate:off (or all:off) override forces the
  // cache out of the picture
  // (environment checked once per process), or a test forced it via
  // ForceEnvOffForTest. Enumeration treats the cache as absent; a constructed
  // cache stays empty.
  static bool EnvForcesOff();
  // Test seam simulating CSI_CACHE=candidate:off in-process (the real env
  // read is cached in a static). Always reset to false before the test
  // returns.
  static void ForceEnvOffForTest(bool off);

  // Interns the enumeration-relevant subset of (config, display) and returns
  // a process-stable id (>= 1) for use in queries. Full structural equality —
  // never a lossy hash — so two contexts share an id only when every knob the
  // enumeration reads is identical. Cheap to call repeatedly; callers that
  // run many enumerations should still intern once up front.
  uint32_t InternContext(const GroupSearchConfig& config, const DisplayConstraints& display);

  // Canonicalizes a raw admissible start range against `db` and assembles the
  // key: lo clamps to 0, hi becomes kOpenHi when it reaches the snapshot's
  // last position.
  static Query MakeQuery(const DbSnapshot& db, uint32_t context, int requests,
                         Bytes estimated_total, int start_lo, int start_hi);

  // Returns the cached set when a valid entry exists for `query` under `db`'s
  // state, else null. An entry computed at an older state of the same lineage
  // is revalidated against `db`'s delta buffer (and re-anchored on success);
  // one that provably cannot be revalidated is dropped and counted as an
  // invalidation. On a hit, `hull_out` (when non-null) receives the entry's
  // recorded size hulls so the caller can fold the skipped enumeration into
  // the result-tier hull.
  std::shared_ptr<const GroupCandidateSet> Lookup(const Query& query, const DbSnapshot& db,
                                                  CandidateSetHull* hull_out = nullptr);

  // Publishes an enumeration result computed against `db`. Replaces any
  // existing entry for the key; sets larger than a whole shard's budget are
  // not admitted. No-op when the env forces the cache off.
  void Insert(const Query& query, const DbSnapshot& db, const CandidateSetHull& hull,
              std::shared_ptr<const GroupCandidateSet> set);

  // Drops every entry (stats survive). Test/bench seam for cold-start runs.
  void Clear();

  Stats stats() const;
  size_t budget_bytes() const { return store_.budget_bytes(); }
  int shards() const { return store_.shards(); }

 private:
  struct QueryHash {
    size_t operator()(const Query& q) const;
  };

  struct Entry {
    Query query;
    // Published state this entry's output is exact for; revalidation
    // re-anchors both fields forward.
    uint64_t state_id = 0;
    int positions_at = 0;
    CandidateSetHull hull;
    std::shared_ptr<const GroupCandidateSet> set;
    size_t bytes = 0;
    // Second-chance bit, guarded by the shard mutex.
    bool referenced = false;
  };

  // The interned enumeration-relevant context fields (see InternContext).
  struct Context {
    double k = 0.0;
    double expected_overhead = 0.0;
    Bytes expected_fixed_overhead = 0;
    int max_candidates_per_group = 0;
    int max_group_requests = 0;
    int max_phantom_requests = 0;
    std::vector<Bytes> other_object_sizes;
    bool enable_wildcards = false;
    DisplayConstraints display;

    friend bool operator==(const Context&, const Context&) = default;
  };

  // True when the entry's output is byte-identical under `db`; re-anchors the
  // entry on success. Caller holds the shard mutex.
  static bool Revalidate(Entry& entry, const DbSnapshot& db);
  static size_t ApproxBytes(const GroupCandidateSet& set);

  internal::ShardedClockStore<Query, Entry, QueryHash> store_;

  mutable std::mutex contexts_mu_;
  std::vector<Context> contexts_;

  // Lock-free tallies (bytes/entries live in the shards and are summed on
  // demand).
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_CANDIDATE_CACHE_H_
