// Parallel batch-inference engine.
//
// The deployment-scale workload is many concurrent sessions of the *same*
// service (one manifest, one fingerprint database), not one capture at a
// time: a gateway tap produces a stream of per-device captures that all need
// Step 1 + Step 2 analysis. BatchAnalyzer owns one InferenceEngine — and
// therefore one immutable ChunkDatabase shared by every worker — and fans
// Analyze calls for N captures' PacketColumns out across a fixed thread pool.
//
// Determinism: results land in the output vector by input index, and the
// per-capture analysis itself is scheduling-independent, so AnalyzeAll
// returns bit-identical results for any worker count (tested in
// batch_analyzer_test).

#ifndef CSI_SRC_CSI_BATCH_ANALYZER_H_
#define CSI_SRC_CSI_BATCH_ANALYZER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/csi/inference.h"

namespace csi::infer {

struct BatchConfig {
  // Worker threads for the trace fan-out; 0 means hardware concurrency.
  int threads = 0;
  // Unified per-tier knobs for the shared caches this analyzer creates when
  // the matching InferenceConfig cache pointer is null (an explicit pointer
  // always wins). One CacheOptions (cache_common.h) per tier:
  //  * prefix    — analysis-prefix cache (prefix_cache.h): repeats of the
  //    same trace bytes skip the per-packet stages. Snapshot-independent.
  //  * candidate — group-candidate cache (candidate_cache.h): repeated group
  //    signatures across traces and refreshes skip enumeration.
  //  * result    — whole-result cache (result_cache.h): a repeat of the same
  //    trace under the same snapshot state (or a compaction's republish of
  //    it) skips the entire pipeline.
  // `budget_mb = 0` disables a tier. Results are byte-identical with any
  // subset disabled (inference_e2e_test's AnyTierSubsetKeepsGoldenDigests,
  // plus the per-tier on-vs-off tests).
  struct Caches {
    CacheOptions prefix{/*budget_mb=*/32};
    CacheOptions candidate{/*budget_mb=*/64};
    CacheOptions result{/*budget_mb=*/64};
  };
  Caches caches;
  // Test seam / fault injection: when set, called instead of
  // InferenceEngine::Analyze for every capture of a batch.
  std::function<InferenceResult(const capture::PacketColumns&)> analyze_override;
  // Invoked with (completed, total) after every `progress_every`-th completed
  // trace and once at batch end. Called from worker threads, serialized by a
  // mutex — keep it cheap. Completion order is scheduling-dependent; only the
  // counts are meaningful.
  std::function<void(size_t completed, size_t total)> progress;
  size_t progress_every = 16;
};

// The one path from tier budgets to tiers: creates each tier of `caches`
// that is still null and has a positive budget in `budgets`. A tier the caller
// attached already is kept.
void AttachCaches(const BatchConfig::Caches& budgets, InferenceConfig::Caches* caches);

class BatchAnalyzer {
 public:
  // `manifest` must outlive the analyzer (same contract as InferenceEngine).
  // Builds the shared database once, serially, before any trace runs.
  BatchAnalyzer(const media::Manifest* manifest, InferenceConfig config,
                BatchConfig batch = {});

  // Primary constructor: analyzes against an already-built snapshot (e.g.
  // LiveChunkDatabase::Acquire()). The snapshot pins its database version for
  // every trace of a batch; swap versions between batches with
  // UpdateSnapshot.
  BatchAnalyzer(DbSnapshot snapshot, InferenceConfig config, BatchConfig batch = {});

  // Re-points the shared engine at a newer database version. Must not be
  // called while AnalyzeAll is running (single-writer, quiesced contract —
  // same as InferenceEngine::UpdateSnapshot).
  void UpdateSnapshot(DbSnapshot snapshot) { engine_.UpdateSnapshot(std::move(snapshot)); }

  // Analyzes *columns[i] into result[i]. Blocks until the whole batch is
  // done. The caller builds each capture's columns once
  // (PacketColumns::Build) and keeps them alive for the call; re-analyzing
  // the same captures (csi_batch --repeat / --follow-manifests) reuses them.
  // If `trace_seconds` is non-null it is resized to the batch size and
  // slot i receives capture i's wall-clock analysis time (by-index slots, so
  // the output is deterministic even though scheduling is not).
  //
  // Fault isolation: a capture whose analysis throws does not poison its
  // siblings. The failed slot keeps a default-constructed InferenceResult,
  // the exception message lands in trace_errors[i] (when non-null; sibling
  // slots hold empty strings), and csi_batch_trace_analyze_failures_total is
  // incremented — the batch itself always completes. When a flight-recorder
  // trace session is active, the first failing capture also dumps the
  // per-thread event rings (TraceSession::DumpFlightRecord) before the batch
  // moves on.
  //
  // If `audits` is non-null it is resized to the batch size and slot i
  // receives capture i's inference audit record (see audit.h). Audits are
  // by-index like the other out-params, so they stay deterministic; slots of
  // failed captures keep whatever was recorded before the throw. The
  // analyze_override test seam bypasses the engine and leaves audits empty.
  std::vector<InferenceResult> AnalyzeAll(
      const std::vector<const capture::PacketColumns*>& columns,
      std::vector<double>* trace_seconds = nullptr,
      std::vector<std::string>* trace_errors = nullptr,
      std::vector<InferenceAudit>* audits = nullptr);

  const InferenceEngine& engine() const { return engine_; }
  int threads() const { return pool_.num_workers(); }
  // The shared group-candidate cache (caller-provided or analyzer-created);
  // null when disabled. Stats reads are safe while a batch runs.
  const GroupCandidateCache* candidate_cache() const {
    return engine_.config().caches.candidate.get();
  }
  // The shared analysis-prefix cache (caller-provided or analyzer-created);
  // null when disabled. Stats reads are safe while a batch runs.
  const AnalysisPrefixCache* prefix_cache() const {
    return engine_.config().caches.prefix.get();
  }
  // The shared whole-result cache (caller-provided or analyzer-created); null
  // when disabled. Stats reads are safe while a batch runs.
  const ResultCache* result_cache() const { return engine_.config().caches.result.get(); }

 private:
  // Both constructors funnel through this: it attaches the batch's cache
  // tiers to `config` and returns the engine by value (guaranteed elision),
  // which keeps the member-init list free of evaluation-order traps.
  static InferenceEngine MakeEngine(DbSnapshot snapshot, InferenceConfig config,
                                    const BatchConfig& batch);

  BatchConfig batch_;
  ThreadPool pool_;
  InferenceEngine engine_;
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_BATCH_ANALYZER_H_
