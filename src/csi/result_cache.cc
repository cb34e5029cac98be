#include "src/csi/result_cache.h"

#include <utility>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"
#include "src/csi/chunk_database.h"

namespace csi::infer {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

// In-process override simulating CSI_CACHE=result:off (the real env read is
// latched in a function-local static and cannot be flipped after first use).
std::atomic<bool> g_force_env_off{false};

// The collector the engine installed around the running Analyze, if any.
thread_local ResultHull* t_result_hull = nullptr;

}  // namespace

ResultHullScope::ResultHullScope(ResultHull* hull) : previous_(t_result_hull) {
  t_result_hull = hull;
}

ResultHullScope::~ResultHullScope() { t_result_hull = previous_; }

ResultHull* CurrentResultHull() { return t_result_hull; }

void RecordEnumerationForResultCache(const CandidateSetHull& hull, int start_lo,
                                     int canonical_start_hi, int positions) {
  ResultHull* const collector = CurrentResultHull();
  if (collector == nullptr || !hull.has_video_split) {
    // Video-free (and wildcard-fallback) explanations never read the position
    // axis; nothing to record.
    return;
  }
  const int pa = positions;
  if (canonical_start_hi != GroupCandidateCache::kOpenHi) {
    // Concrete range (hi < pa - 1): the clamped start range and every
    // per-start budget are position-count independent, and the single-chunk
    // path drops appended refs via its index filter. Only multi-chunk runs
    // that start in range but extend past pa can differ — same condition
    // GroupCandidateCache::Revalidate checks, evaluated here at analyze time.
    if (hull.v_max <= 1 || start_lo > canonical_start_hi ||
        canonical_start_hi + hull.v_max <= pa) {
      return;  // no run can cross the analyze-time live edge
    }
    // A crossing run is pruned before its DFS expands a node iff every
    // appended chunk alone exceeds every multi-chunk upper bound.
    collector->Widen(0, hull.hull2_hi);
    return;
  }
  // Growth range: the enumeration ran to the live edge. Appended positions
  // join the range under a later state; their candidates must all be
  // pruned/filtered, and surviving old starts must keep their exact budgets.
  const int range = pa - std::max(start_lo, 0);
  if (hull.v_max >= 2 && range >= 1 &&
      kMaxDfsNodes / range > GroupCandidateCache::kPerStartNodeFloor) {
    // The per-start budget exceeded the floor, so widening the range would
    // shrink it — same inputs, different cutoff. No window can prove
    // identity; the result only ever hits at this exact state.
    collector->sensitive = true;
    collector->unsafe = true;
    return;
  }
  // An appended chunk inside the probe window could seed a new single-chunk
  // candidate (v == 1 hull) or let a run through it survive the MinSum prune.
  collector->Widen(hull.v_max >= 2 ? 0 : hull.hull1_lo, hull.hull_all_hi);
}

void RecordSizeProbeForResultCache(Bytes estimated, double k) {
  ResultHull* const collector = CurrentResultHull();
  if (collector == nullptr) {
    return;
  }
  // Recorded for positive and negative probes alike: an appended chunk in the
  // window can flip a negative answer to positive (and a compaction-proof
  // positive stays positive, so widening is merely conservative).
  collector->Widen(ChunkDatabase::AdmissibleLow(estimated, k), estimated);
}

size_t ResultCache::QueryHash::operator()(const Query& q) const {
  uint64_t h = q.fingerprint.lo;
  h = Mix(h, q.fingerprint.hi);
  h = Mix(h, q.context);
  h = Mix(h, q.lineage);
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(size_t budget_bytes, int shards) : store_(budget_bytes, shards) {}

bool ResultCache::EnvForcesOff() {
  static const bool off = CsiCacheEnvDisables("result");
  return off || g_force_env_off.load(std::memory_order_relaxed);
}

void ResultCache::ForceEnvOffForTest(bool off) {
  g_force_env_off.store(off, std::memory_order_relaxed);
}

uint32_t ResultCache::InternContext(const Context& context) {
  std::lock_guard<std::mutex> lock(contexts_mu_);
  for (size_t i = 0; i < contexts_.size(); ++i) {
    if (contexts_[i] == context) {
      return static_cast<uint32_t>(i) + 1;
    }
  }
  contexts_.push_back(context);
  return static_cast<uint32_t>(contexts_.size());
}

ResultCache::Query ResultCache::MakeQuery(const TraceFingerprint& fingerprint,
                                          uint32_t context, const DbSnapshot& db) {
  Query q;
  q.fingerprint = fingerprint;
  q.context = context;
  q.lineage = db.lineage_id();
  return q;
}

// Decides whether `entry` (computed at state A := entry.state_id with
// positions_at =: P_A) yields byte-identical output under `db` (state B with
// P_B positions). The hull froze, at analyze time, every condition the
// candidate-tier Revalidate would check per enumeration plus every
// merge-repair window; one delta probe over the union answers for the whole
// pipeline (see the soundness argument in the header).
bool ResultCache::Revalidate(Entry& entry, const DbSnapshot& db) {
  if (db.state_id() == entry.state_id) {
    return true;
  }
  const int pa = entry.positions_at;
  const int pb = db.num_positions();
  const auto anchor = [&entry, &db, pb] {
    entry.state_id = db.state_id();
    entry.positions_at = pb;
    return true;
  };
  if (pb == pa) {
    // Same data, different publish (e.g. a compaction): identical output.
    return anchor();
  }
  if (pb < pa) {
    // A reader pinning an older state than the entry was computed at (a
    // publish raced the batch). The entry is not wrong — just not provable
    // from this snapshot — so miss without dropping it.
    return false;
  }
  // P_B > P_A: positions were appended since the entry was computed.
  if (!entry.hull.sensitive) {
    // The computation never read the position axis (no media flows, or every
    // enumeration was video-free / provably edge-disjoint).
    return anchor();
  }
  if (entry.hull.unsafe) {
    // Some per-start DFS budget was above the floor; it shifts with the live
    // edge and no window can prove identity.
    return false;
  }
  if (db.base_positions() > pa) {
    // A compaction folded the appends into the base; they can no longer be
    // probed one-sidedly against P_A.
    return false;
  }
  return db.DeltaHasSizeInWindow(entry.hull.probe_lo, entry.hull.probe_hi, pa) ? false
                                                                               : anchor();
}

size_t ResultCache::ApproxBytes(const InferenceResult& result) {
  size_t bytes = sizeof(Entry) + sizeof(InferenceResult) +
                 result.sequences.capacity() * sizeof(InferredSequence) +
                 result.exchanges.capacity() * sizeof(EstimatedExchange) +
                 result.group_sizes.capacity() * sizeof(int);
  for (const InferredSequence& s : result.sequences) {
    bytes += s.slots.capacity() * sizeof(InferredSlot);
  }
  return bytes;
}

std::shared_ptr<const InferenceResult> ResultCache::Lookup(const Query& query,
                                                           const DbSnapshot& db,
                                                           AuditShape* shape) {
  if (EnvForcesOff()) {
    return nullptr;
  }
  CSI_SPAN("result_cache_lookup");
  auto& shard = store_.ShardFor(query);
  std::shared_ptr<const InferenceResult> hit;
  bool found = false;
  bool same_state = false;
  bool stale_snapshot = false;
  bool invalidated = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(query);
    if (it != shard.index.end()) {
      found = true;
      Entry& entry = *it->second;
      same_state = entry.state_id == db.state_id();
      if (Revalidate(entry, db)) {
        entry.referenced = true;
        hit = entry.result;
        if (shape != nullptr) {
          *shape = entry.shape;
        }
      } else if (db.num_positions() > entry.positions_at) {
        // Provably unusable under every state from here on (appends intersect
        // the hull, a budget was unsafe, or a compaction hid the delta): drop
        // it now instead of letting it rot until eviction.
        shard.bytes -= entry.bytes;
        shard.entries.erase(it->second);
        shard.index.erase(it);
        invalidated = true;
      } else {
        // The probing snapshot is older than the entry (a publish raced the
        // batch): miss without dropping — the entry stays right for newer
        // snapshots.
        stale_snapshot = true;
      }
    }
  }
  CSI_COUNTER_INC("csi_result_cache_lookups_total");
  if (hit != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    CSI_COUNTER_INC("csi_result_cache_hits_total");
    CSI_TRACE_INSTANT("result_cache", "cache",
                      {"outcome", same_state ? "hit" : "revalidated"},
                      {"reason", same_state ? "same_state" : "delta_proven_disjoint"});
    return hit;
  }
  if (invalidated) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    CSI_COUNTER_INC("csi_result_cache_invalidations_total");
    CSI_TRACE_INSTANT("result_cache", "cache", {"outcome", "invalidated"},
                      {"reason", "delta_in_window_or_compaction"});
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CSI_COUNTER_INC("csi_result_cache_misses_total");
  CSI_TRACE_INSTANT("result_cache", "cache", {"outcome", "miss"},
                    {"reason", !found          ? "absent"
                               : stale_snapshot ? "stale_snapshot"
                                                : "invalidated"});
  return nullptr;
}

void ResultCache::Insert(const Query& query, const DbSnapshot& db, const ResultHull& hull,
                         std::shared_ptr<const InferenceResult> result,
                         const AuditShape& shape) {
  if (EnvForcesOff() || result == nullptr) {
    return;
  }
  Entry entry;
  entry.query = query;
  entry.state_id = db.state_id();
  entry.positions_at = db.num_positions();
  entry.hull = hull;
  entry.shape = shape;
  entry.bytes = ApproxBytes(*result);
  entry.result = std::move(result);
  const int64_t evicted = store_.InsertAndEvict(std::move(entry));
  if (evicted < 0) {
    // Bigger than a whole shard's budget: never admitted, but counted.
    refused_.fetch_add(1, std::memory_order_relaxed);
    CSI_COUNTER_INC("csi_result_cache_refused_total");
    return;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  CSI_COUNTER_INC("csi_result_cache_inserts_total");
  if (evicted > 0) {
    evictions_.fetch_add(static_cast<uint64_t>(evicted), std::memory_order_relaxed);
    CSI_COUNTER_ADD("csi_result_cache_evictions_total", evicted);
  }
  // Per-shard drift between inserts is fine for a gauge; exact totals come
  // from stats().
  CSI_GAUGE_SET("csi_result_cache_bytes", static_cast<int64_t>(stats().bytes));
}

void ResultCache::Clear() { store_.Clear(); }

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  store_.AccumulateShards(&s);
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    s.contexts = contexts_.size();
  }
  return s;
}

}  // namespace csi::infer
