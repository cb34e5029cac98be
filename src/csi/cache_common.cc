#include "src/csi/cache_common.h"

#include "src/common/tracing.h"

namespace csi::infer::internal {

TierMetrics::TierMetrics(const TierNames& tier_names) : names(tier_names) {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  const std::string stem = std::string("csi_") + names.metric_stem + "_cache_";
  const auto counter = [&](const char* what) {
    return registry.GetCounter(stem + what + "_total");
  };
  lookups = counter("lookups");
  hits = counter("hits");
  misses = counter("misses");
  inserts = counter("inserts");
  evictions = counter("evictions");
  refused = counter("refused");
  invalidations = names.revalidates ? counter("invalidations") : nullptr;
  bytes = registry.GetGauge(stem + "bytes");
}

void TierTallies::CountLookup(LookupOutcome outcome, const TierMetrics& metrics) {
  const char* const instant = metrics.names.instant;
  metrics.lookups->Increment();
  const char* miss_reason = "absent";
  switch (outcome) {
    case LookupOutcome::kHit:
      hits_.fetch_add(1, std::memory_order_relaxed);
      metrics.hits->Increment();
      CSI_TRACE_INSTANT(instant, "cache", {"outcome", "hit"},
                        {"reason", metrics.names.hit_reason});
      return;
    case LookupOutcome::kRevalidated:
      hits_.fetch_add(1, std::memory_order_relaxed);
      metrics.hits->Increment();
      CSI_TRACE_INSTANT(instant, "cache", {"outcome", "revalidated"},
                        {"reason", "delta_proven_disjoint"});
      return;
    case LookupOutcome::kInvalidated:
      invalidations_.fetch_add(1, std::memory_order_relaxed);
      metrics.invalidations->Increment();
      CSI_TRACE_INSTANT(instant, "cache", {"outcome", "invalidated"},
                        {"reason", "delta_in_window_or_compaction"});
      miss_reason = "invalidated";
      break;
    case LookupOutcome::kStaleSnapshot:
      miss_reason = "stale_snapshot";
      break;
    case LookupOutcome::kAbsent:
      break;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  metrics.misses->Increment();
  CSI_TRACE_INSTANT(instant, "cache", {"outcome", "miss"}, {"reason", miss_reason});
}

void TierTallies::CountInsert(int64_t evicted, const TierMetrics& metrics) {
  if (evicted < 0) {
    // Bigger than a whole shard's budget: never admitted, but counted.
    refused_.fetch_add(1, std::memory_order_relaxed);
    metrics.refused->Increment();
    return;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  metrics.inserts->Increment();
  if (evicted > 0) {
    evictions_.fetch_add(static_cast<uint64_t>(evicted), std::memory_order_relaxed);
    metrics.evictions->Add(evicted);
  }
}

void TierTallies::Read(CacheStats* stats) const {
  stats->hits = hits_.load(std::memory_order_relaxed);
  stats->misses = misses_.load(std::memory_order_relaxed);
  stats->inserts = inserts_.load(std::memory_order_relaxed);
  stats->evictions = evictions_.load(std::memory_order_relaxed);
  stats->refused = refused_.load(std::memory_order_relaxed);
  stats->invalidations = invalidations_.load(std::memory_order_relaxed);
}

}  // namespace csi::infer::internal
