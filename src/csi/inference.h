// CSI inference engine: encrypted capture -> candidate chunk sequences.
//
// Orchestrates the full pipeline of paper §5.3 for all four design types
// (Table 2): flow classification by SNI (Step 1.1), request detection and
// size estimation (Step 1.2; with SP1/SP2 traffic splitting for SQ), and the
// two-level candidate/graph search (Step 2). Optionally applies
// displayed-chunk constraints gathered from screen analysis (§4.2).

#ifndef CSI_SRC_CSI_INFERENCE_H_
#define CSI_SRC_CSI_INFERENCE_H_

#include <memory>
#include <string>

#include "src/capture/packet_columns.h"
#include "src/capture/packet_record.h"
#include "src/csi/audit.h"
#include "src/csi/chunk_database.h"
#include "src/csi/db_snapshot.h"
#include "src/csi/group_search.h"
#include "src/csi/prefix_cache.h"
#include "src/csi/result_cache.h"
#include "src/csi/splitter.h"
#include "src/csi/types.h"

namespace csi::infer {

struct InferenceConfig {
  DesignType design = DesignType::kCH;
  // Hostname suffix identifying the service's media flows.
  std::string host_suffix;
  double k_https = 0.01;
  double k_quic = 0.05;
  // Calibrated overhead model for candidate ranking (§3.2 measurements):
  // TLS record framing + HTTP headers for HTTPS; QUIC frame headers +
  // undetectable retransmissions for QUIC.
  double expected_overhead_https = 0.0015;
  double expected_overhead_quic = 0.006;
  Bytes expected_fixed_overhead = 180;
  int max_sequences = 512;
  SplitterConfig splitter;
  int max_candidates_per_group = 5000;
  // Ablation switches (see bench_ablation_robustness).
  bool enable_wildcards = true;
  bool enable_merge_repair = true;
  bool enable_phantom_deficit = true;
  bool enable_calibrated_ranking = true;
  // Sizes of known non-media objects (manifest etc.) for SQ group matching.
  // Auto-filled with the manifest size when empty.
  std::vector<Bytes> other_object_sizes;
  // Optional worker pool for the SQ candidate enumeration (see
  // GroupSearchConfig::pool). Results are identical with or without it.
  // Caller keeps the pool alive for the engine's lifetime.
  ThreadPool* search_pool = nullptr;
  // The shared cache tiers. All three are share-owned (several engines, or a
  // BatchAnalyzer plus standalone engines, may point at one cache and warm
  // each other up), optional (null: no caching at that tier) and
  // byte-transparent: results are identical with any subset attached.
  //  * result (result_cache.h) memoizes whole InferenceResults keyed on
  //    (trace fingerprint, config context, database lineage) — a hit skips
  //    classification, splitting, enumeration and the sequence search
  //    outright; calls with display constraints bypass it.
  //  * prefix (prefix_cache.h) is consulted before the per-packet stages
  //    (flow classification, size estimation, traffic splitting). Keyed on a
  //    trace fingerprint + interned config context, and snapshot-independent:
  //    entries stay valid across UpdateSnapshot / LiveChunkDatabase publishes.
  //  * candidate (candidate_cache.h) holds group-candidate sets consulted by
  //    the group enumeration of every design.
  struct Caches {
    std::shared_ptr<AnalysisPrefixCache> prefix;
    std::shared_ptr<GroupCandidateCache> candidate;
    std::shared_ptr<ResultCache> result;
  };
  Caches caches;
};

class InferenceEngine {
 public:
  // Primary constructor: the engine queries `snapshot` — an immutable,
  // epoch-tagged database version (see db_snapshot.h / live_database.h). The
  // snapshot's manifest fills config defaults (host suffix, manifest object
  // size).
  InferenceEngine(DbSnapshot snapshot, InferenceConfig config);

  // Builds a full database from `manifest` (caller keeps it alive), then
  // behaves like the snapshot constructor with that database at epoch 0.
  InferenceEngine(const media::Manifest* manifest, InferenceConfig config);

  // Runs the inference on a capture's columns (see
  // capture/packet_columns.h): the cache fingerprint mixes over the columns
  // and the per-packet stages consume FlowViews. `display` optionally carries
  // (index -> track) constraints from screen analysis. `audit`, when
  // non-null, is filled with the per-trace explanation record (see audit.h);
  // collecting it never changes the result.
  InferenceResult Analyze(const capture::PacketColumns& columns,
                          const DisplayConstraints& display = {},
                          InferenceAudit* audit = nullptr) const;

  // Convenience for one-shot callers: PacketColumns::Build, then the columns
  // overload. Callers that analyze the same capture repeatedly (csi_batch
  // --repeat, --follow-manifests) build the columns once instead.
  InferenceResult Analyze(const capture::CaptureTrace& trace,
                          const DisplayConstraints& display = {},
                          InferenceAudit* audit = nullptr) const;

  // Re-points the engine at a newer database version (e.g. after a
  // LiveChunkDatabase publish). Config stays frozen — defaults derived from
  // the construction-time manifest are not recomputed. NOT safe to call while
  // an Analyze is in flight on another thread: callers that fan Analyze out
  // (BatchAnalyzer) must quiesce first.
  void UpdateSnapshot(DbSnapshot snapshot);

  const DbSnapshot& snapshot() const { return snapshot_; }
  const InferenceConfig& config() const { return config_; }

 private:
  // Shared tail of both constructors: config defaults derived from manifest_.
  void FinishConfig();
  // The snapshot-independent front of Analyze: flow classification plus — for
  // the dominant media flow — SP1/SP2 traffic splitting (SQ) or SNI-filtered
  // per-exchange size estimation (pre-merge-repair). A pure function of
  // (capture, design, host_suffix, splitter); what the prefix cache memoizes.
  AnalysisPrefix ComputePrefix(const capture::PacketColumns& columns) const;
  // True if `estimate` satisfies Property (1) for some video chunk, audio
  // chunk, or known non-media object.
  bool MatchesSomething(Bytes estimate, double k) const;
  // Repairs exchanges split in two by retransmitted QUIC request packets.
  void MergePhantomSplits(std::vector<EstimatedExchange>* exchanges, double k) const;

  const media::Manifest* manifest_;
  InferenceConfig config_;
  DbSnapshot snapshot_;
  // Interned prefix-cache context id for this engine's (design, host_suffix,
  // splitter) triple; 0 when no prefix cache is attached.
  uint32_t prefix_context_ = 0;
  // Interned result-cache context id for this engine's full result-relevant
  // config; 0 when no result cache is attached.
  uint32_t result_context_ = 0;
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_INFERENCE_H_
