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
#include "src/csi/audit.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/chunk_database.h"
#include "src/csi/db_snapshot.h"
#include "src/csi/group_search.h"
#include "src/csi/prefix_cache.h"
#include "src/csi/result_cache.h"
#include "src/csi/settings.h"
#include "src/csi/types.h"

namespace csi::infer {

// The settings a result depends on (InferenceSettings, settings.h) plus how
// the engine runs: neither member below enters a cache key.
struct InferenceConfig : InferenceSettings {
  // Optional worker pool for the SQ candidate enumeration (see
  // GroupSearchConfig::pool). Results are identical with or without it.
  // Caller keeps the pool alive for the engine's lifetime.
  ThreadPool* search_pool = nullptr;
  // The shared cache tiers. All three are share-owned (several engines, or a
  // BatchAnalyzer plus standalone engines, may point at one cache), optional
  // (null: no caching at that tier) and byte-transparent: results are
  // identical with any subset attached. The result and candidate tiers key on
  // the database lineage, so engines share their entries only when built
  // from one DbSnapshot (or snapshots of one LiveChunkDatabase); engines
  // built from a Manifest* each build their own database, a lineage of its
  // own, and share only the prefix tier.
  //  * result (result_cache.h) memoizes whole InferenceResults keyed on
  //    (trace fingerprint, InferenceSettings, database lineage) — a hit skips
  //    classification, splitting, enumeration and the sequence search
  //    outright; calls with display constraints bypass it. An entry is exact
  //    for its snapshot state: any append invalidates it.
  //  * prefix (prefix_cache.h) is consulted before the per-packet stages
  //    (flow classification, size estimation, traffic splitting). Keyed on a
  //    trace fingerprint + PrefixSettings, and snapshot-independent: entries
  //    stay valid across UpdateSnapshot / LiveChunkDatabase publishes.
  //  * candidate (candidate_cache.h) holds group-candidate sets consulted by
  //    the group enumeration of every design, keyed on the engine's
  //    EnumerationSettings and the call's display constraints.
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
  // size). Throws std::invalid_argument when config.max_sequences < 1 or
  // config.other_object_sizes holds more than kMaxOtherObjects sizes.
  InferenceEngine(DbSnapshot snapshot, InferenceConfig config);

  // Builds a full database from `manifest` (caller keeps it alive), then
  // behaves like the snapshot constructor with that database at epoch 0.
  InferenceEngine(const media::Manifest* manifest, InferenceConfig config);

  // Runs the inference on a capture's columns (see
  // capture/packet_columns.h), the library's one input: the caller builds
  // them from the capture once (PacketColumns::Build) and may analyze them
  // any number of times. The cache fingerprint mixes over the columns and
  // the per-packet stages consume FlowViews. `display` optionally carries
  // (index -> track) constraints from screen analysis. `audit`, when
  // non-null, is filled with the per-trace explanation record (see audit.h);
  // collecting it never changes the result.
  InferenceResult Analyze(const capture::PacketColumns& columns,
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
  // Shared tail of both constructors: validates the config, fills the
  // defaults derived from manifest_, interns the cache contexts and builds
  // search_.
  void FinishConfig();
  // True if `estimate` satisfies Property (1) for some video chunk, audio
  // chunk, or known non-media object.
  bool MatchesSomething(Bytes estimate, double k) const;
  // Repairs exchanges split in two by retransmitted QUIC request packets.
  void MergePhantomSplits(std::vector<EstimatedExchange>* exchanges, double k) const;

  const media::Manifest* manifest_;
  InferenceConfig config_;
  DbSnapshot snapshot_;
  // The group search's config, derived from config_ once.
  GroupSearchConfig search_;
  // Interned ids of config_'s PrefixSettings and InferenceSettings slices; 0
  // when that tier is not attached.
  uint32_t prefix_context_ = 0;
  uint32_t result_context_ = 0;
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_INFERENCE_H_
