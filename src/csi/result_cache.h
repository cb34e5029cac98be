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
// csi_batch --follow-manifests: 12 of 12 at 2 refreshes, 30 of 30 at 5). The
// tier therefore reports a constant unsafe dependence, and the shared
// anchored check (cache_common.h) yields:
//   * same state → hit;
//   * a compaction's republish with the same position count → re-anchor, hit;
//   * a reader pinning an older state → miss, the entry is kept;
//   * any append → invalidate, and the entry is dropped at once.
//
// Entries also carry the audit shape of the skipped work (media flows,
// groups, sequence count, best/runner-up costs) so a hit can fill the
// caller's InferenceAudit; per-stage work counters stay zero, which is how a
// replayed audit line is recognizable as served-from-cache.
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
  // Audit shape of the work a hit skips, replayed into the caller's
  // InferenceAudit so replayed audit lines stay meaningful. Per-stage work
  // counters (enumerations, DFS nodes, chain nodes, ...) are deliberately
  // absent: a hit did none of that work and reports zeros.
  struct AuditShape {
    int media_flows = 0;
    int groups = 0;
    int sequences = 0;
    bool truncated = false;
    bool has_best_cost = false;
    double best_cost = 0.0;
    bool has_runner_up_cost = false;
    double runner_up_cost = 0.0;
  };
  using Value = InferenceResult;
  using Extra = AuditShape;
  static constexpr internal::TierNames kNames{"result", "result_cache", "result_cache_lookup",
                                              "same_state", /*revalidates=*/true};

  // Any append may change a result (see the file comment), whatever the entry.
  static PositionDependence Dependence(const Query&, const Extra&, int) {
    return {.sensitive = true, .unsafe = true};
  }
};

class ResultCache : public internal::CacheCore<ResultTier> {
 public:
  using AuditShape = ResultTier::AuditShape;

  using CacheCore::CacheCore;

  // Assembles a key from an already-computed fingerprint (the engine shares
  // one FingerprintColumns pass with the prefix cache) and `db`'s lineage.
  static Query MakeQuery(const TraceFingerprint& fingerprint, uint32_t context,
                         const DbSnapshot& db);

  // Returns the cached result when a valid entry exists for `query` under
  // `db`'s state, else null (see the core's lookup outcomes). Fills `shape`
  // (if non-null) on a hit.
  std::shared_ptr<const InferenceResult> Lookup(const Query& query, const DbSnapshot& db,
                                                AuditShape* shape = nullptr);

  // Publishes a result computed against `db`; results larger than a whole
  // shard's budget are not admitted.
  void Insert(const Query& query, const DbSnapshot& db,
              std::shared_ptr<const InferenceResult> result, const AuditShape& shape);
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_RESULT_CACHE_H_
