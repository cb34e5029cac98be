// Snapshot-keyed end-to-end cache of complete inference results.
//
// The prefix cache (PR 8) skips the per-packet stages and the candidate cache
// (PR 6) skips per-group enumerations, but a warm `--follow-manifests` repeat
// still pays for classification dispatch, group-by-group cache probes, merge
// repair and the full chain/beam sequence search on every trace. ResultCache
// is the top tier that collapses all of it: a sharded, concurrent,
// byte-budgeted cache mapping
//
//   (128-bit trace fingerprint, interned full-config context,
//    database lineage)
//
// to the immutable `InferenceResult` Analyze produced, anchored to the
// snapshot state it was produced at. A hit returns the finished result —
// nothing downstream of the fingerprint runs.
//
// Snapshot awareness reuses the candidate cache's delta-revalidation idea one
// level up. While Analyze computes a result, a thread-local ResultHull
// collector (installed by the engine) folds in every way the computation
// touched the position axis:
//
//   * each group enumeration contributes the same concrete/growth conditions
//     GroupCandidateCache::Revalidate would check for it, evaluated at
//     analyze time (RecordEnumerationForResultCache), and
//   * each merge-repair size probe contributes its admissible window
//     [AdmissibleLow(estimate, k), estimate] (RecordSizeProbeForResultCache).
//
// The union is a single window [probe_lo, probe_hi] plus an `unsafe` bit for
// enumerations whose per-start DFS budgets were above the floor (those shift
// whenever the live edge moves, so no window can prove identity). An entry
// computed at state A revalidates under a later state B of the same lineage
// with one DbSnapshot::DeltaHasSizeInWindow probe: if no appended chunk's
// size lands in the window (and no compaction hid the appends), every stage
// would have produced byte-identical output, so the cached result *is* the
// result — and the entry re-anchors to B (O(1) from then on). Anything not
// provable invalidates and falls through to a full analyze.
//
// Entries also carry the audit shape of the skipped work (media flows,
// groups, sequence count, best/runner-up costs) so a hit can fill the
// caller's InferenceAudit; per-stage work counters stay zero, which is how a
// replayed audit line is recognizable as served-from-cache.
//
// Hits share the result by pointer internally; lookups with non-empty
// display constraints bypass the cache (the engine keys only on the
// constraint-free path). Eviction is per-shard second-chance (clock) over a
// byte budget via the shared ShardedClockStore (cache_common.h). Force-off
// escape hatch: CSI_CACHE=result:off turns every lookup into a miss and
// every insert into a no-op.

#ifndef CSI_SRC_CSI_RESULT_CACHE_H_
#define CSI_SRC_CSI_RESULT_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/csi/cache_common.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/db_snapshot.h"
#include "src/csi/prefix_cache.h"
#include "src/csi/splitter.h"
#include "src/csi/types.h"

namespace csi::infer {

// Everything one Analyze call's output depended on along the position axis,
// folded into a single invalidation test. Widened monotonically; wider is
// always sound (more invalidation, never a missed one).
struct ResultHull {
  // False until the first contribution: the computation never read the
  // position axis and the result is valid under every state of the lineage.
  bool sensitive = false;
  // Some enumeration's output could shift with the live edge in a way no size
  // window can rule out (per-start DFS budget above the floor); the entry
  // only ever hits at the exact state it was computed at.
  bool unsafe = false;
  // Union of all probe windows on true chunk-byte sizes.
  Bytes probe_lo = 0;
  Bytes probe_hi = 0;

  void Widen(Bytes lo, Bytes hi) {
    if (!sensitive) {
      sensitive = true;
      probe_lo = lo;
      probe_hi = hi;
      return;
    }
    probe_lo = std::min(probe_lo, lo);
    probe_hi = std::max(probe_hi, hi);
  }

  friend bool operator==(const ResultHull&, const ResultHull&) = default;
};

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

// Folds one group enumeration's snapshot dependence into the active collector
// (no-op without one, or when the enumeration has no video split). Mirrors
// the conditions GroupCandidateCache::Revalidate checks for the entry this
// enumeration would produce, evaluated at analyze time: `canonical_start_hi`
// must already be canonicalized (GroupCandidateCache::kOpenHi when the range
// reached the live edge), `positions` is the analyze-time snapshot's count.
void RecordEnumerationForResultCache(const CandidateSetHull& hull, int start_lo,
                                     int canonical_start_hi, int positions);

// Folds one merge-repair size probe into the active collector (no-op without
// one): the probe's answer can only flip if an appended chunk lands in the
// admissible window [AdmissibleLow(estimated, k), estimated].
void RecordSizeProbeForResultCache(Bytes estimated, double k);

class ResultCache {
 public:
  static constexpr int kDefaultShards = 16;

  // Unified stats block shared by every cache tier (cache_common.h).
  using Stats = CacheStats;

  // The result-relevant subset of InferenceConfig, interned with full
  // structural equality. Thread pools, db-build knobs and the cache pointers
  // themselves are excluded: results are byte-identical across those by
  // construction.
  struct Context {
    DesignType design = DesignType::kCH;
    std::string host_suffix;
    SplitterConfig splitter;
    double k_https = 0.0;
    double k_quic = 0.0;
    double expected_overhead_https = 0.0;
    double expected_overhead_quic = 0.0;
    Bytes expected_fixed_overhead = 0;
    int max_sequences = 0;
    int max_candidates_per_group = 0;
    bool enable_wildcards = false;
    bool enable_merge_repair = false;
    bool enable_phantom_deficit = false;
    bool enable_calibrated_ranking = false;
    std::vector<Bytes> other_object_sizes;

    friend bool operator==(const Context&, const Context&) = default;
  };

  struct Query {
    TraceFingerprint fingerprint;
    uint32_t context = 0;
    uint64_t lineage = 0;

    friend bool operator==(const Query&, const Query&) = default;
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

  explicit ResultCache(size_t budget_bytes, int shards = kDefaultShards);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // True when the CSI_CACHE=result:off (or all:off) override forces the
  // cache out of the picture
  // (environment checked once per process), or a test forced it via
  // ForceEnvOffForTest. Engines treat the cache as absent; a constructed
  // cache stays empty.
  static bool EnvForcesOff();
  // Test seam simulating CSI_CACHE=result:off in-process (the real env read
  // is cached in a static). Always reset to false before the test returns.
  static void ForceEnvOffForTest(bool off);

  // Interns a result context and returns a process-stable id (>= 1). Full
  // structural equality — never a lossy hash. The engine interns once at
  // construction.
  uint32_t InternContext(const Context& context);

  // Assembles a key from an already-computed fingerprint (the engine shares
  // one FingerprintColumns pass with the prefix cache) and `db`'s lineage.
  static Query MakeQuery(const TraceFingerprint& fingerprint, uint32_t context,
                         const DbSnapshot& db);

  // Returns the cached result when a valid entry exists for `query` under
  // `db`'s state, else null. An entry computed at an older state of the same
  // lineage is revalidated against `db`'s delta buffer (and re-anchored on
  // success); one that provably cannot be revalidated is dropped and counted
  // as an invalidation. Fills `shape` (if non-null) on a hit.
  std::shared_ptr<const InferenceResult> Lookup(const Query& query, const DbSnapshot& db,
                                                AuditShape* shape = nullptr);

  // Publishes a result computed against `db` with the hull its computation
  // collected. Replaces any existing entry for the key; results larger than a
  // whole shard's budget are not admitted. No-op when the env forces the
  // cache off.
  void Insert(const Query& query, const DbSnapshot& db, const ResultHull& hull,
              std::shared_ptr<const InferenceResult> result, const AuditShape& shape);

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
    ResultHull hull;
    std::shared_ptr<const InferenceResult> result;
    AuditShape shape;
    size_t bytes = 0;
    // Second-chance bit, guarded by the shard mutex.
    bool referenced = false;
  };

  // True when the entry's output is byte-identical under `db`; re-anchors the
  // entry on success. Caller holds the shard mutex.
  static bool Revalidate(Entry& entry, const DbSnapshot& db);
  static size_t ApproxBytes(const InferenceResult& result);

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

#endif  // CSI_SRC_CSI_RESULT_CACHE_H_
