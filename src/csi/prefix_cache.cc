#include "src/csi/prefix_cache.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <utility>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"

namespace csi::infer {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// The two independent mixes behind the 128-bit fingerprint: a word-granular
// FNV-1a (lo) and the boost-style combine the candidate cache uses (hi). They
// share no structure, so a collision requires both to collide on the same
// field stream.
inline uint64_t FnvStep(uint64_t h, uint64_t v) { return (h ^ v) * kFnvPrime; }

inline uint64_t MixStep(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

// Accumulates the two mixes over the observer-visible field stream.
struct Mixer {
  uint64_t lo = kFnvOffset;
  uint64_t hi = 0x9AE16A3B2F90404Full;  // arbitrary odd seed, distinct from lo

  void Absorb(uint64_t v) {
    lo = FnvStep(lo, v);
    hi = MixStep(hi, v);
  }

  void AbsorbString(const std::string& s) {
    Absorb(static_cast<uint64_t>(s.size()));
    for (const char c : s) {
      Absorb(static_cast<uint64_t>(static_cast<uint8_t>(c)));
    }
  }
};

}  // namespace

TraceFingerprint FingerprintColumns(const capture::PacketColumns& columns) {
  Mixer mixer;
  mixer.Absorb(static_cast<uint64_t>(columns.packet_count()));
  mixer.Absorb(static_cast<uint64_t>(columns.flow_count()));
  for (uint32_t f = 0; f < columns.flow_count(); ++f) {
    const capture::FlowKey& key = columns.flow_key(f);
    // Pack the small fields into one word so short traces still stir both
    // accumulators instead of feeding runs of near-zero words.
    mixer.Absorb((static_cast<uint64_t>(key.client_port) << 48) |
                 (static_cast<uint64_t>(key.server_port) << 32) |
                 static_cast<uint64_t>(static_cast<uint8_t>(key.transport)));
    mixer.Absorb((static_cast<uint64_t>(key.client_ip) << 32) |
                 static_cast<uint64_t>(key.server_ip));
    mixer.AbsorbString(columns.flow_sni(f));
    const capture::FlowView view = columns.flow(f);
    mixer.Absorb(static_cast<uint64_t>(view.size()));
    for (size_t i = view.begin; i < view.end; ++i) {
      mixer.Absorb(static_cast<uint64_t>(columns.timestamps()[i]));
      mixer.Absorb(columns.flags()[i]);
      mixer.Absorb(columns.payloads()[i]);
      mixer.Absorb(columns.tcp_seqs()[i]);
    }
  }
  return TraceFingerprint{mixer.lo, mixer.hi};
}

size_t AnalysisPrefixCache::QueryHash::operator()(const Query& q) const {
  uint64_t h = q.fingerprint.lo;
  h = MixStep(h, q.fingerprint.hi);
  h = MixStep(h, q.context);
  return static_cast<size_t>(h);
}

AnalysisPrefixCache::AnalysisPrefixCache(size_t budget_bytes, int shards)
    : store_(budget_bytes, shards) {}

uint32_t AnalysisPrefixCache::InternContext(DesignType design, const std::string& host_suffix,
                                            const SplitterConfig& splitter) {
  Context ctx;
  ctx.design = design;
  ctx.host_suffix = host_suffix;
  // The splitter only runs for SQ, but interning it unconditionally is free
  // and keeps the id a function of the full knob set.
  ctx.splitter = splitter;

  std::lock_guard<std::mutex> lock(contexts_mu_);
  for (size_t i = 0; i < contexts_.size(); ++i) {
    if (contexts_[i] == ctx) {
      return static_cast<uint32_t>(i) + 1;
    }
  }
  contexts_.push_back(std::move(ctx));
  return static_cast<uint32_t>(contexts_.size());
}

AnalysisPrefixCache::Query AnalysisPrefixCache::MakeQuery(
    const capture::PacketColumns& columns, uint32_t context) {
  Query q;
  q.fingerprint = FingerprintColumns(columns);
  q.context = context;
  return q;
}

size_t AnalysisPrefixCache::ApproxBytes(const AnalysisPrefix& prefix) {
  size_t bytes = sizeof(Entry) + sizeof(AnalysisPrefix) +
                 prefix.groups.capacity() * sizeof(TrafficGroup) +
                 prefix.exchanges.capacity() * sizeof(EstimatedExchange);
  for (const TrafficGroup& g : prefix.groups) {
    bytes += g.requests.capacity() * sizeof(DetectedRequest);
  }
  return bytes;
}

std::shared_ptr<const AnalysisPrefix> AnalysisPrefixCache::Lookup(const Query& query) {
  CSI_SPAN("prefix_cache_lookup");
  auto& shard = store_.ShardFor(query);
  std::shared_ptr<const AnalysisPrefix> hit;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(query);
    if (it != shard.index.end()) {
      it->second->referenced = true;
      hit = it->second->prefix;
    }
  }
  CSI_COUNTER_INC("csi_prefix_cache_lookups_total");
  if (hit != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    CSI_COUNTER_INC("csi_prefix_cache_hits_total");
    CSI_TRACE_INSTANT("prefix_cache", "cache", {"outcome", "hit"},
                      {"reason", "fingerprint_match"});
    return hit;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CSI_COUNTER_INC("csi_prefix_cache_misses_total");
  CSI_TRACE_INSTANT("prefix_cache", "cache", {"outcome", "miss"}, {"reason", "absent"});
  return nullptr;
}

void AnalysisPrefixCache::Insert(const Query& query,
                                 std::shared_ptr<const AnalysisPrefix> prefix) {
  if (prefix == nullptr) {
    return;
  }
  Entry entry;
  entry.query = query;
  entry.bytes = ApproxBytes(*prefix);
  entry.prefix = std::move(prefix);
  // A replaced entry means a racing thread computed the same trace; values
  // are deterministic, so either copy serves — the store keeps the fresher.
  const int64_t evicted = store_.InsertAndEvict(std::move(entry));
  if (evicted < 0) {
    // Bigger than a whole shard's budget: never admitted, but counted.
    refused_.fetch_add(1, std::memory_order_relaxed);
    CSI_COUNTER_INC("csi_prefix_cache_refused_total");
    return;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  CSI_COUNTER_INC("csi_prefix_cache_inserts_total");
  if (evicted > 0) {
    evictions_.fetch_add(static_cast<uint64_t>(evicted), std::memory_order_relaxed);
    CSI_COUNTER_ADD("csi_prefix_cache_evictions_total", evicted);
  }
  // Per-shard drift between inserts is fine for a gauge; exact totals come
  // from stats().
  CSI_GAUGE_SET("csi_prefix_cache_bytes", static_cast<int64_t>(stats().bytes));
}

void AnalysisPrefixCache::Clear() { store_.Clear(); }

AnalysisPrefixCache::Stats AnalysisPrefixCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  store_.AccumulateShards(&s);
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    s.contexts = contexts_.size();
  }
  return s;
}

}  // namespace csi::infer
