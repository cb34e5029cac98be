#include "src/csi/candidate_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"
#include "src/csi/audit.h"

namespace csi::infer {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

size_t GroupCandidateCache::QueryHash::operator()(const Query& q) const {
  uint64_t h = q.lineage;
  h = Mix(h, q.context);
  h = Mix(h, static_cast<uint64_t>(q.requests));
  h = Mix(h, static_cast<uint64_t>(q.estimated_total));
  h = Mix(h, static_cast<uint64_t>(q.start_lo));
  h = Mix(h, static_cast<uint64_t>(q.start_hi));
  return static_cast<size_t>(h);
}

GroupCandidateCache::GroupCandidateCache(size_t budget_bytes, int shards)
    : store_(budget_bytes, shards) {}

uint32_t GroupCandidateCache::InternContext(const GroupSearchConfig& config,
                                            const DisplayConstraints& display) {
  // Only the knobs EnumerateGroupCandidateSet reads. pool is excluded (output
  // is pool-independent by construction), and max_sequences /
  // enable_merge_repair steer the sequence chain, not the per-group
  // enumeration.
  Context ctx;
  ctx.k = config.k;
  ctx.expected_overhead = config.expected_overhead;
  ctx.expected_fixed_overhead = config.expected_fixed_overhead;
  ctx.max_candidates_per_group = config.max_candidates_per_group;
  ctx.max_group_requests = config.max_group_requests;
  ctx.max_phantom_requests = config.max_phantom_requests;
  ctx.other_object_sizes = config.other_object_sizes;
  ctx.enable_wildcards = config.enable_wildcards;
  ctx.display = display;

  std::lock_guard<std::mutex> lock(contexts_mu_);
  for (size_t i = 0; i < contexts_.size(); ++i) {
    if (contexts_[i] == ctx) {
      return static_cast<uint32_t>(i) + 1;
    }
  }
  contexts_.push_back(std::move(ctx));
  return static_cast<uint32_t>(contexts_.size());
}

GroupCandidateCache::Query GroupCandidateCache::MakeQuery(const DbSnapshot& db,
                                                          uint32_t context, int requests,
                                                          Bytes estimated_total, int start_lo,
                                                          int start_hi) {
  Query q;
  q.lineage = db.lineage_id();
  q.context = context;
  q.requests = requests;
  q.estimated_total = estimated_total;
  q.start_lo = std::max(start_lo, 0);
  // "Reaches the live edge" ranges share one key across refreshes; the
  // concrete-hi invariant (hi < positions at every state the entry is
  // anchored to) is what lets non-growth revalidation treat the clamped range
  // as fixed.
  q.start_hi = start_hi >= db.num_positions() - 1 ? kOpenHi : start_hi;
  return q;
}

// Decides whether `entry` (computed at state A := entry.state_id with
// positions_at =: P_A) yields byte-identical output under `db` (state B with
// P_B positions). Sound because a lineage only ever appends: sizes of
// positions < P_A are immutable, so the enumeration can only diverge through
// (a) new single-chunk candidates drawn from appended positions, (b) DFS runs
// that touch an appended position, or (c) per-start node budgets shifting
// with the clamped range. Each case is ruled out in turn; anything not
// provably identical returns false.
bool GroupCandidateCache::Revalidate(Entry& entry, const DbSnapshot& db) {
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
  const CandidateSetHull& hull = entry.hull;
  if (!hull.has_video_split) {
    // Only video-free (and wildcard-fallback) explanations exist; they never
    // read the position axis.
    return anchor();
  }

  const bool growth = entry.query.start_hi == kOpenHi;
  if (!growth) {
    // Concrete hi < P_A - 1 <= P_B - 1: the clamped start range — and with it
    // every per-start budget — is identical at both states, and the
    // single-chunk path drops appended refs via its index > start_hi filter.
    // Only multi-chunk runs that start inside the range but extend past P_A
    // can differ.
    const int req_hi = entry.query.start_hi;
    if (hull.v_max <= 1 || entry.query.start_lo > req_hi ||
        req_hi + hull.v_max <= pa) {
      return anchor();
    }
    if (db.base_positions() > pa) {
      // A compaction folded the appends into the base; they can no longer be
      // probed one-sidedly against P_A.
      return false;
    }
    // A crossing run is pruned before its DFS expands a node iff its minimum
    // sum already exceeds the split's window — guaranteed when every appended
    // chunk alone is bigger than every multi-chunk upper bound.
    return db.DeltaHasSizeInWindow(0, hull.hull2_hi, pa) ? false : anchor();
  }

  // Growth: the range ran to the live edge at A and runs further at B. New
  // start positions >= P_A join the range; their candidates must all be
  // pruned/filtered, and surviving old starts must keep their exact budgets.
  if (db.base_positions() > pa) {
    return false;
  }
  const int range_a = pa - entry.query.start_lo;  // starts enumerated at A
  if (hull.v_max >= 2 && range_a >= 1 &&
      kMaxDfsNodes / range_a > kPerStartNodeFloor) {
    // The per-start budget at A exceeded the floor, so widening the range at
    // B would shrink it — same inputs, different cutoff.
    return false;
  }
  // An appended chunk inside the probe window could seed a new single-chunk
  // candidate (v == 1 hull) or let a run through it survive the MinSum prune
  // (any chunk <= the v >= 2 bound keeps the minimum sum under it).
  const Bytes probe_lo = hull.v_max >= 2 ? 0 : hull.hull1_lo;
  return db.DeltaHasSizeInWindow(probe_lo, hull.hull_all_hi, pa) ? false : anchor();
}

size_t GroupCandidateCache::ApproxBytes(const GroupCandidateSet& set) {
  size_t bytes = sizeof(Entry) + sizeof(GroupCandidateSet) +
                 set.candidates.capacity() * sizeof(GroupCandidate);
  for (const GroupCandidate& c : set.candidates) {
    bytes += c.tracks.capacity() * sizeof(int);
  }
  return bytes;
}

std::shared_ptr<const GroupCandidateSet> GroupCandidateCache::Lookup(
    const Query& query, const DbSnapshot& db, CandidateSetHull* hull_out) {
  CSI_SPAN("group_cache_lookup");
  auto& shard = store_.ShardFor(query);
  std::shared_ptr<const GroupCandidateSet> hit;
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
        hit = entry.set;
        if (hull_out != nullptr) {
          *hull_out = entry.hull;
        }
      } else if (db.num_positions() > entry.positions_at) {
        // Provably unusable under every state from here on (appends intersect
        // its windows, or a compaction hid them): drop it now instead of
        // letting it rot until eviction.
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
  InferenceAudit* const audit = CurrentAudit();
  CSI_COUNTER_INC("csi_candidate_cache_lookups_total");
  if (hit != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    CSI_COUNTER_INC("csi_candidate_cache_hits_total");
    if (audit != nullptr) {
      ++(same_state ? audit->cache_hits : audit->cache_revalidations);
    }
    CSI_TRACE_INSTANT("group_cache", "cache",
                      {"outcome", same_state ? "hit" : "revalidated"},
                      {"reason", same_state ? "same_state" : "delta_proven_disjoint"});
    return hit;
  }
  if (invalidated) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    CSI_COUNTER_INC("csi_candidate_cache_invalidations_total");
    if (audit != nullptr) {
      ++audit->cache_invalidations;
    }
    CSI_TRACE_INSTANT("group_cache", "cache", {"outcome", "invalidated"},
                      {"reason", "delta_in_window_or_compaction"});
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CSI_COUNTER_INC("csi_candidate_cache_misses_total");
  if (audit != nullptr) {
    ++audit->cache_misses;
  }
  CSI_TRACE_INSTANT("group_cache", "cache", {"outcome", "miss"},
                    {"reason", !found          ? "absent"
                               : stale_snapshot ? "stale_snapshot"
                                                : "invalidated"});
  return nullptr;
}

void GroupCandidateCache::Insert(const Query& query, const DbSnapshot& db,
                                 const CandidateSetHull& hull,
                                 std::shared_ptr<const GroupCandidateSet> set) {
  if (set == nullptr) {
    return;
  }
  Entry entry;
  entry.query = query;
  entry.state_id = db.state_id();
  entry.positions_at = db.num_positions();
  entry.hull = hull;
  entry.bytes = ApproxBytes(*set);
  entry.set = std::move(set);
  const int64_t evicted = store_.InsertAndEvict(std::move(entry));
  if (evicted < 0) {
    // Bigger than a whole shard's budget: never admitted, but counted.
    refused_.fetch_add(1, std::memory_order_relaxed);
    CSI_COUNTER_INC("csi_candidate_cache_refused_total");
    return;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  CSI_COUNTER_INC("csi_candidate_cache_inserts_total");
  if (evicted > 0) {
    evictions_.fetch_add(static_cast<uint64_t>(evicted), std::memory_order_relaxed);
    CSI_COUNTER_ADD("csi_candidate_cache_evictions_total", evicted);
  }
  // Per-shard drift between publishes is fine for a gauge; exact totals come
  // from stats().
  CSI_GAUGE_SET("csi_candidate_cache_bytes", static_cast<int64_t>(stats().bytes));
}

void GroupCandidateCache::Clear() { store_.Clear(); }

GroupCandidateCache::Stats GroupCandidateCache::stats() const {
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
