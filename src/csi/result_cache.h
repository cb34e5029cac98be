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
// Snapshot awareness is the candidate tier's rule one level up (the
// soundness argument is in cache_common.h). While Analyze computes a result,
// a thread-local ResultHull collector (installed by the engine) folds in
// every way the computation touched the position axis:
//
//   * each group enumeration contributes its EnumerationDependence at the
//     analyze-time position count (RecordEnumerationForResultCache), and
//   * each merge-repair size probe contributes its admissible window
//     [AdmissibleLow(estimate, k), estimate] (RecordSizeProbeForResultCache).
//
// The union is one PositionDependence; an entry computed at state A
// revalidates under a later state B of the same lineage by the shared
// anchored check, one delta probe over that union for the whole pipeline.
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

#include "src/common/units.h"
#include "src/csi/cache_common.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/db_snapshot.h"
#include "src/csi/prefix_cache.h"
#include "src/csi/settings.h"
#include "src/csi/types.h"

namespace csi::infer {

// Everything one Analyze call's output depended on along the position axis:
// the union of its enumerations' and size probes' dependences.
using ResultHull = PositionDependence;

// Thread-local collector the engine installs around the compute path of one
// Analyze. Same shape as AuditScope: scopes nest, null is a valid no-op
// target, and the previous collector is restored on destruction.
class ResultHullScope {
 public:
  explicit ResultHullScope(ResultHull* hull);
  ~ResultHullScope();

  ResultHullScope(const ResultHullScope&) = delete;
  ResultHullScope& operator=(const ResultHullScope&) = delete;

 private:
  ResultHull* previous_;
};

// The collector installed on this thread, or null. Record* helpers below are
// the intended writers; exposed for tests.
ResultHull* CurrentResultHull();

// Folds one group enumeration's EnumerationDependence into the active
// collector (no-op without one): `canonical_start_hi` must already be
// canonicalized (GroupCandidateCache::kOpenHi when the range reached the live
// edge), `positions` is the analyze-time snapshot's count.
void RecordEnumerationForResultCache(const CandidateSetHull& hull, int start_lo,
                                     int canonical_start_hi, int positions);

// Folds one merge-repair size probe into the active collector (no-op without
// one): the probe's answer can only flip if an appended chunk lands in the
// admissible window [AdmissibleLow(estimated, k), estimated].
void RecordSizeProbeForResultCache(Bytes estimated, double k);

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
  struct Extra {
    ResultHull hull;
    AuditShape shape;
  };
  static constexpr internal::TierNames kNames{"result", "result_cache", "result_cache_lookup",
                                              "same_state", /*revalidates=*/true};

  // The hull the entry's computation collected, whatever the anchor.
  static PositionDependence Dependence(const Query&, const Extra& extra, int) {
    return extra.hull;
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

  // Publishes a result computed against `db` with the hull its computation
  // collected; results larger than a whole shard's budget are not admitted.
  void Insert(const Query& query, const DbSnapshot& db, const ResultHull& hull,
              std::shared_ptr<const InferenceResult> result, const AuditShape& shape);
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_RESULT_CACHE_H_
