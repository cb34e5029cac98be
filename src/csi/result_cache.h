// Snapshot-keyed end-to-end cache of complete inference results.
//
// The prefix cache (PR 8) skips the per-packet stages and the candidate cache
// (PR 6) skips per-group enumerations, but a warm `--follow-manifests` repeat
// still pays for classification dispatch, group-by-group cache probes, merge
// repair and the full chain/beam sequence search on every trace. ResultCache
// is the top tier that collapses all of it: a sharded, concurrent,
// byte-budgeted cache mapping
//
//   (128-bit trace fingerprint, interned InferenceSettings,
//    database lineage)
//
// to the immutable `InferenceResult` Analyze produced, anchored to the
// snapshot state it was produced at. A hit returns the finished result —
// nothing downstream of the fingerprint runs.
//
// Validity: an entry is exact for its content version, and nothing more. A
// whole-session result reads the chunk database through the Property (1)
// window [S/(1+k), S] of every request and every group enumeration, so the
// chunks a live refresh appends land inside one of those windows; on every
// measured live replay no result ever survived an append (ch_live_replay:
// 24 of 24 cross-refresh lookups invalidated; six 10-min CH captures under
// csi_batch --follow-manifests: 12 of 12 at 2 refreshes, 30 of 30 at 5). So
// no result is inserted as surviving appends, and the shared anchored check
// (cache_common.h) yields:
//   * same state → hit;
//   * a compaction's republish with the same position count → re-anchor, hit;
//   * a reader pinning an older state → miss, the entry is kept;
//   * any append → invalidate, and the entry is dropped at once.
//
// A result carries its own costs, so an entry adds only the one fact an
// audit line needs beyond it: the media-flow count. A hit fills the caller's
// InferenceAudit with that count alone; its work counters stay zero, which is
// how a served-from-cache audit line reads.
//
// Lookups with non-empty display constraints bypass the cache (the engine
// keys only on the constraint-free path). Storage, eviction and accounting
// are the shared core's. A budget of 0 (BatchConfig::caches.result) means no
// cache is created at all.

#ifndef CSI_SRC_CSI_RESULT_CACHE_H_
#define CSI_SRC_CSI_RESULT_CACHE_H_

#include <cstdint>
#include <memory>

#include "src/csi/cache_common.h"
#include "src/csi/db_snapshot.h"
#include "src/csi/prefix_cache.h"
#include "src/csi/settings.h"
#include "src/csi/types.h"

namespace csi::infer {

// Key, context and names of the result tier over the shared core
// (cache_common.h).
struct ResultTier {
  // Every setting a result reads: the InferenceSettings slice of the
  // engine's config (settings.h). Pools and cache pointers are outside it.
  using Context = InferenceSettings;
  struct Query {
    TraceFingerprint fingerprint;
    uint32_t context = 0;
    uint64_t lineage = 0;

    friend bool operator==(const Query&, const Query&) = default;
  };
  struct Hash {
    size_t operator()(const Query& q) const;
  };
  using Value = InferenceResult;
  // The media-flow count of the analyzed capture (InferenceAudit::media_flows).
  using Extra = int;
  static constexpr internal::TierNames kNames{"result", "result_cache", "result_cache_lookup",
                                              "same_state", /*revalidates=*/true};
};

class ResultCache : public internal::CacheCore<ResultTier> {
 public:
  using CacheCore::CacheCore;

  // Assembles a key from an already-computed fingerprint (the engine shares
  // one FingerprintColumns pass with the prefix cache) and `db`'s lineage.
  static Query MakeQuery(const TraceFingerprint& fingerprint, uint32_t context,
                         const DbSnapshot& db);

  // Returns the cached result when a valid entry exists for `query` under
  // `db`'s state, else null (see the core's lookup outcomes). Fills
  // `media_flows` (if non-null) on a hit.
  std::shared_ptr<const InferenceResult> Lookup(const Query& query, const DbSnapshot& db,
                                                int* media_flows = nullptr);

  // Publishes a result computed against `db`; results larger than a whole
  // shard's budget are not admitted.
  void Insert(const Query& query, const DbSnapshot& db,
              std::shared_ptr<const InferenceResult> result, int media_flows);
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_RESULT_CACHE_H_
