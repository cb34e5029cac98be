#include "src/csi/inference.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/size_estimator.h"

namespace csi::infer {

std::string DesignTypeName(DesignType type) {
  switch (type) {
    case DesignType::kCH:
      return "CH";
    case DesignType::kSH:
      return "SH";
    case DesignType::kCQ:
      return "CQ";
    case DesignType::kSQ:
      return "SQ";
  }
  return "?";
}

bool IsQuic(DesignType type) {
  return type == DesignType::kCQ || type == DesignType::kSQ;
}

bool HasSeparateAudio(DesignType type) {
  return type == DesignType::kSH || type == DesignType::kSQ;
}

InferenceEngine::InferenceEngine(DbSnapshot snapshot, InferenceConfig config)
    : manifest_(snapshot.manifest()),
      config_(std::move(config)),
      snapshot_(std::move(snapshot)) {
  FinishConfig();
}

InferenceEngine::InferenceEngine(const media::Manifest* manifest, InferenceConfig config)
    : manifest_(manifest),
      config_(std::move(config)),
      snapshot_(std::make_shared<const ChunkDatabase>(manifest)) {
  FinishConfig();
}

void InferenceEngine::FinishConfig() {
  if (config_.max_sequences < 1) {
    throw std::invalid_argument("max_sequences must be >= 1");
  }
  if (config_.other_object_sizes.size() > static_cast<size_t>(kMaxOtherObjects)) {
    throw std::invalid_argument("other_object_sizes holds more than " +
                                std::to_string(kMaxOtherObjects) + " sizes");
  }
  if (config_.host_suffix.empty()) {
    config_.host_suffix = manifest_->host;
  }
  if (config_.other_object_sizes.empty()) {
    // The manifest is fetched once per session; its on-the-wire estimate
    // includes the response headers.
    config_.other_object_sizes.push_back(manifest_->SerializedSize() +
                                         config_.expected_fixed_overhead);
  }
  // Intern after the default fills, so two engines built from the same
  // manifest share a context whether or not the defaults were explicit.
  if (config_.caches.prefix != nullptr) {
    prefix_context_ = config_.caches.prefix->InternContext(config_);
  }
  if (config_.caches.result != nullptr) {
    result_context_ = config_.caches.result->InternContext(config_);
  }
  const bool quic = IsQuic(config_.design);
  search_.k = quic ? config_.k_quic : config_.k_https;
  search_.expected_overhead =
      quic ? config_.expected_overhead_quic : config_.expected_overhead_https;
  search_.expected_fixed_overhead = config_.expected_fixed_overhead;
  search_.max_sequences = config_.max_sequences;
  search_.max_candidates_per_group = config_.max_candidates_per_group;
  search_.other_object_sizes = config_.other_object_sizes;
  search_.enable_wildcards = config_.enable_wildcards;
  search_.enable_merge_repair = config_.enable_merge_repair;
  search_.pool = config_.search_pool;
  search_.shared_cache = config_.caches.candidate.get();
  if (!config_.enable_phantom_deficit) {
    search_.max_phantom_requests = 0;
  }
  if (!config_.enable_calibrated_ranking) {
    search_.expected_overhead = 0.0;
    search_.expected_fixed_overhead = 0;
  }
}

void InferenceEngine::UpdateSnapshot(DbSnapshot snapshot) {
  manifest_ = snapshot.manifest();
  snapshot_ = std::move(snapshot);
}

bool InferenceEngine::MatchesSomething(Bytes estimate, double k) const {
  if (snapshot_.HasVideoCandidate(estimate, k) || snapshot_.AudioPossible(estimate, k)) {
    return true;
  }
  for (Bytes other : config_.other_object_sizes) {
    const double size = static_cast<double>(other);
    if (size <= static_cast<double>(estimate) &&
        static_cast<double>(estimate) <= (1.0 + k) * size) {
      return true;
    }
  }
  return false;
}

void InferenceEngine::MergePhantomSplits(std::vector<EstimatedExchange>* exchanges,
                                         double k) const {
  // A retransmitted QUIC request carries a new packet number, so the request
  // detector sees a phantom request that splits one object's window in two
  // (paper §2: QUIC retransmissions are not identifiable). Repair: when an
  // exchange matches nothing but its union with a neighbor matches a chunk,
  // merge them.
  bool changed = true;
  for (int pass = 0; pass < 3 && changed; ++pass) {
    changed = false;
    for (size_t i = 0; i + 1 < exchanges->size(); ++i) {
      EstimatedExchange& a = (*exchanges)[i];
      const EstimatedExchange& b = (*exchanges)[i + 1];
      // Phantom signature: the retransmission fires an RTO (~0.2-3 s) into
      // the download, so the first fragment is the *smaller* piece (it may
      // still coincidentally match some chunk), while the remainder matches
      // nothing on its own. A truncated session-end download looks different
      // (large complete piece first), so it is left alone.
      if (MatchesSomething(b.estimated_size, k)) {
        continue;
      }
      if (a.estimated_size >= b.estimated_size) {
        continue;
      }
      const Bytes merged = a.estimated_size + b.estimated_size;
      if (!MatchesSomething(merged, k)) {
        continue;
      }
      a.estimated_size = merged;
      a.last_data_time = std::max(a.last_data_time, b.last_data_time);
      exchanges->erase(exchanges->begin() + static_cast<long>(i) + 1);
      changed = true;
    }
  }
}

namespace {

// The snapshot-independent front of Analyze: flow classification plus — for
// the dominant media flow — SP1/SP2 traffic splitting (SQ) or SNI-filtered
// per-exchange size estimation (pre-merge-repair). It takes only the
// PrefixSettings slice, the prefix tier's key, so it cannot read a setting
// that key leaves out.
AnalysisPrefix ComputePrefix(const capture::PacketColumns& columns,
                             const PrefixSettings& settings) {
  AnalysisPrefix prefix;
  std::vector<uint32_t> media;
  {
    CSI_SPAN("flow_classify", {"packets", static_cast<int64_t>(columns.packet_count())});
    media = ClassifyMediaFlowIds(columns, settings.host_suffix);
  }
  prefix.media_flows = static_cast<int>(media.size());
  if (media.empty()) {
    return prefix;
  }
  // The player streams over one connection; if several media flows exist
  // (e.g. probes), analyze the one carrying the bulk of the download (the
  // first such flow on a tie).
  uint32_t main_flow = media.front();
  for (const uint32_t f : media) {
    if (columns.flow_downlink_bytes(f) > columns.flow_downlink_bytes(main_flow)) {
      main_flow = f;
    }
  }
  const capture::FlowView view = columns.flow(main_flow);

  if (settings.design == DesignType::kSQ) {
    CSI_SPAN("traffic_split", {"packets", static_cast<int64_t>(view.size())});
    prefix.groups = SplitIntoGroups(view, settings.splitter);
  } else {
    CSI_SPAN("size_estimate", {"packets", static_cast<int64_t>(view.size())});
    for (const EstimatedExchange& ex :
         EstimateExchanges(view, IsQuic(settings.design))) {
      if (ex.carries_sni) {
        // Handshake exchange (ClientHello / QUIC Initial): the data in its
        // window is the server's handshake flight, not a media object.
        continue;
      }
      prefix.exchanges.push_back(ex);
    }
    // Merge repair stays OUT of the prefix: MatchesSomething probes the
    // database snapshot, so the repaired exchange list is snapshot-dependent
    // while everything above this line is not.
  }
  return prefix;
}

}  // namespace

InferenceResult InferenceEngine::Analyze(const capture::PacketColumns& columns,
                                         const DisplayConstraints& display,
                                         InferenceAudit* audit) const {
  CSI_SPAN("analyze", {"packets", static_cast<int64_t>(columns.packet_count())});
  CSI_COUNTER_INC("csi_analyze_calls_total");

  AnalysisPrefixCache* const prefix_cache = config_.caches.prefix.get();
  // Top tier: the whole-result cache. Calls with display constraints bypass
  // it — the key deliberately covers only the unconstrained path.
  ResultCache* const result_cache = display.empty() ? config_.caches.result.get() : nullptr;
  // One fingerprint pass feeds both the result- and prefix-tier keys.
  TraceFingerprint fingerprint;
  if (result_cache != nullptr || prefix_cache != nullptr) {
    fingerprint = FingerprintColumns(columns);
  }
  ResultCache::Query result_query;
  if (result_cache != nullptr) {
    result_query = ResultCache::MakeQuery(fingerprint, result_context_, snapshot_);
    int media_flows = 0;
    if (std::shared_ptr<const InferenceResult> hit =
            result_cache->Lookup(result_query, snapshot_, &media_flows)) {
      // The result carries the rest of the audit line; the skipped work
      // counts as zero, which is how a served-from-cache line reads.
      if (audit != nullptr) {
        audit->media_flows = media_flows;
      }
      return *hit;
    }
  }
  const AuditScope audit_scope(audit);

  // Consult the shared prefix cache before paying for the per-packet stages;
  // on a miss, compute and publish so later repeats (this engine or any other
  // sharing the cache) jump straight to the snapshot-dependent search.
  std::shared_ptr<const AnalysisPrefix> prefix;
  AnalysisPrefixCache::Query prefix_query;
  if (prefix_cache != nullptr) {
    prefix_query.fingerprint = fingerprint;
    prefix_query.context = prefix_context_;
    prefix = prefix_cache->Lookup(prefix_query);
  }
  if (prefix == nullptr) {
    auto computed = std::make_shared<AnalysisPrefix>(ComputePrefix(columns, config_));
    if (prefix_cache != nullptr) {
      prefix_cache->Insert(prefix_query, computed);
    }
    prefix = std::move(computed);
  }

  if (audit != nullptr) {
    audit->media_flows = prefix->media_flows;
  }
  if (prefix->media_flows == 0) {
    CSI_COUNTER_INC("csi_analyze_no_media_flow_total");
    CSI_TRACE_INSTANT("analyze_no_media_flow", "stage");
    if (result_cache != nullptr) {
      result_cache->Insert(result_query, snapshot_, std::make_shared<InferenceResult>(), 0);
    }
    return {};
  }

  // Both cases reduce to the same layered search (Fig. 9): for transport MUX
  // the layers are SP1/SP2 traffic groups (already split in the prefix);
  // otherwise every exchange becomes its own single-request group after the
  // snapshot-dependent phantom-merge repair.
  std::vector<TrafficGroup> local_groups;
  // SQ reads the prefix's groups in place (no copy on a warm hit); the non-MUX
  // designs rebuild single-request groups from the repaired exchange list.
  const std::vector<TrafficGroup>* groups = &prefix->groups;
  if (config_.design != DesignType::kSQ) {
    std::vector<EstimatedExchange> exchanges = prefix->exchanges;
    if (IsQuic(config_.design) && config_.enable_merge_repair) {
      MergePhantomSplits(&exchanges, search_.k);
    }
    for (const EstimatedExchange& ex : exchanges) {
      TrafficGroup g;
      DetectedRequest req;
      req.time = ex.request_time;
      g.requests.push_back(req);
      g.start_time = ex.request_time;
      g.end_time = ex.last_data_time;
      g.estimated_total = ex.estimated_size;
      local_groups.push_back(std::move(g));
    }
    groups = &local_groups;
  }
  CSI_SPAN("group_search", {"groups", static_cast<int64_t>(groups->size())});
  InferenceResult result = SearchGroupSequences(*groups, snapshot_, search_, display);
  if (audit != nullptr) {
    // Surface the audit in the trace too, so a Perfetto view of the session
    // carries the explanation without the JSONL side channel.
    CSI_TRACE_INSTANT("inference_audit_stages", "audit",
                      {"media_flows", audit->media_flows},
                      {"groups", static_cast<int64_t>(result.group_sizes.size())},
                      {"sequences", static_cast<int64_t>(result.sequences.size())},
                      {"truncated", result.truncated ? 1 : 0});
    CSI_TRACE_INSTANT("inference_audit_enum", "audit",
                      {"enumerations", audit->enumerations},
                      {"candidates", audit->candidates},
                      {"dfs_nodes_expanded", audit->dfs_nodes_expanded},
                      {"dfs_nodes_pruned", audit->dfs_nodes_pruned});
    CSI_TRACE_INSTANT("inference_audit_cache", "audit",
                      {"hits", audit->cache_hits},
                      {"revalidations", audit->cache_revalidations},
                      {"invalidations", audit->cache_invalidations},
                      {"misses", audit->cache_misses});
    if (result.best_cost.has_value()) {
      CSI_TRACE_INSTANT("inference_audit_scores", "audit",
                        {"best_cost", *result.best_cost},
                        {"runner_up_cost", result.runner_up_cost.value_or(-1.0)});
    }
  }
  if (result_cache != nullptr) {
    auto owned = std::make_shared<InferenceResult>(std::move(result));
    result_cache->Insert(result_query, snapshot_, owned, prefix->media_flows);
    return *owned;
  }
  return result;
}

}  // namespace csi::infer
