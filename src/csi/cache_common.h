// The one core behind the three cache tiers (prefix / candidate / result).
//
// Each tier is a sharded, concurrent, byte-budgeted map from a key to an
// immutable value shared by pointer: readers never copy a value and never
// block behind an insert on another shard. What behaves the same across
// tiers is written once, here:
//   * the budget knob (CacheOptions), the stats block (CacheStats) and its
//     one summary line;
//   * the store: a shard per key hash, each a second-chance (clock) list
//     over a byte budget, with Insert's refused/evicted/inserted accounting
//     and the bytes gauge;
//   * Lookup: one shard probe, then one of five outcomes (LookupOutcome),
//     each with its counters and its trace instant;
//   * context interning with full structural equality, never a lossy hash;
//   * the snapshot rule: the anchored revalidation.
//
// A tier supplies a traits struct and a thin class over CacheCore<Tier>:
//   Query, Hash   the key and its hash;
//   Context       the settings slice the cached computation reads
//                 (settings.h), interned by its defaulted operator==;
//   Value, Extra  the shared payload and the per-entry side data a hit
//                 returns (the result tier's media-flow count);
//   kNames        metric stem, trace instant, lookup span, hit reason, and
//                 whether entries revalidate against a DbSnapshot.
// The class keeps its public names (MakeQuery, Lookup, Insert) and its
// payload's byte estimate; callers intern a context with the core's
// InternContext.
//
// Snapshot revalidation — why a hit under a newer state is exact. Within one
// database lineage, refreshes only ever append positions: chunk sizes at
// positions below an entry's anchor P never change and audio is CBR. So a
// value computed at state A stays byte-identical at a later state B if the
// computation never read a position at or past P. The tier decides that once,
// at Insert (`survives_appends`): a candidate enumeration whose splits ask for
// no video, or whose concrete start range keeps every run below P
// (candidate_cache.h); never a whole-session result (result_cache.h).
// Revalidate below is the one anchored check both tiers run:
//   * same state → hit;
//   * an older snapshot than the anchor → miss, and the entry is kept for
//     newer readers;
//   * same position count (a compaction's republish) → re-anchor;
//   * appended positions → re-anchor if the entry survives appends, else
//     invalidate and drop it at once, since no later state of the lineage can
//     prove it.
// Re-anchoring makes the rule transitive across refreshes.

#ifndef CSI_SRC_CSI_CACHE_COMMON_H_
#define CSI_SRC_CSI_CACHE_COMMON_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/telemetry.h"
#include "src/csi/db_snapshot.h"

namespace csi::infer {

// Budget knob for one cache tier — the unit of the unified `caches` block in
// BatchConfig and of the `--cache-mb` tool flag. A budget of 0 (or less)
// turns the tier off.
struct CacheOptions {
  int budget_mb = 0;

  friend bool operator==(const CacheOptions&, const CacheOptions&) = default;
};

// Unified stats block every cache tier reports. Tiers without a revalidation
// step simply leave `invalidations` at zero.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  // Inserts not admitted because the entry alone exceeds one shard's budget.
  uint64_t refused = 0;
  // Entries dropped because a newer state appended positions they may have
  // read.
  uint64_t invalidations = 0;
  uint64_t bytes = 0;
  uint64_t entries = 0;
  uint64_t contexts = 0;

  uint64_t lookups() const { return hits + misses; }
  double hit_ratio() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// The one summary line per tier both csi_batch and csi_analyze print.
inline std::string FormatCacheSummary(const std::string& name, const CacheStats& stats) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s cache: %.1f%% hit ratio (%llu hit(s), %llu miss(es)), "
                "%llu invalidation(s), %llu eviction(s), %llu refused, "
                "%.1f MiB in %llu entries",
                name.c_str(), 100.0 * stats.hit_ratio(),
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.invalidations),
                static_cast<unsigned long long>(stats.evictions),
                static_cast<unsigned long long>(stats.refused),
                static_cast<double>(stats.bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(stats.entries));
  return buffer;
}

namespace internal {

// Boost-style hash combine shared by the tiers' key hashes and the prefix
// tier's fingerprint.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

// Where one lookup landed. Hits are kHit and kRevalidated; the rest are
// misses, and kInvalidated also drops the entry.
enum class LookupOutcome { kHit, kRevalidated, kInvalidated, kStaleSnapshot, kAbsent };

// The published state an entry's value is exact for; revalidation moves it
// forward. `survives_appends`: the value read no position at or past
// `positions`, so appends leave it exact.
struct SnapshotAnchor {
  uint64_t state_id = 0;
  int positions = 0;
  bool survives_appends = false;
};

// One lookup's outcome and, for kRevalidated and kInvalidated, its cause (a
// string literal: the trace ring stores the pointer).
struct LookupVerdict {
  LookupOutcome outcome = LookupOutcome::kAbsent;
  const char* reason = nullptr;
};

// The one anchored check (see the soundness argument above). Re-anchors on
// kRevalidated. Caller holds the entry's shard mutex.
inline LookupVerdict Revalidate(SnapshotAnchor& anchor, const DbSnapshot& db) {
  if (db.state_id() == anchor.state_id) {
    return {LookupOutcome::kHit};
  }
  const int positions = db.num_positions();
  if (positions < anchor.positions) {
    // A reader pinning an older state than the anchor (a publish raced the
    // batch): not provable from this snapshot, but still right for newer ones.
    return {LookupOutcome::kStaleSnapshot};
  }
  const char* reason = "same_positions";
  if (positions > anchor.positions) {
    if (!anchor.survives_appends) {
      return {LookupOutcome::kInvalidated, "append"};
    }
    reason = "position_insensitive";
  }
  anchor.state_id = db.state_id();
  anchor.positions = positions;
  return {LookupOutcome::kRevalidated, reason};
}

// The names one tier exports under. All must be string literals: the trace
// ring stores the pointers.
struct TierNames {
  const char* metric_stem;  // csi_<stem>_cache_{lookups,...}_total, _bytes
  const char* instant;      // trace instant per lookup outcome
  const char* lookup_span;  // stage span around each lookup
  const char* hit_reason;   // reason of a plain hit
  bool revalidates;         // entries are anchored to a DbSnapshot state
};

// A tier's metric handles, resolved once per process (CacheCore::Metrics).
struct TierMetrics {
  explicit TierMetrics(const TierNames& tier_names);

  TierNames names;
  telemetry::Counter* lookups;
  telemetry::Counter* hits;
  telemetry::Counter* misses;
  telemetry::Counter* inserts;
  telemetry::Counter* evictions;
  telemetry::Counter* refused;
  telemetry::Counter* invalidations;  // null unless names.revalidates
  telemetry::Gauge* bytes;
};

// One cache instance's lock-free tallies behind stats(), bumped together with
// the process-wide metrics.
class TierTallies {
 public:
  // Counts one lookup and emits its trace instant (an invalidation emits an
  // "invalidated" instant, with its cause, before its miss).
  void CountLookup(const LookupVerdict& verdict, const TierMetrics& metrics);
  // Counts one insert: refused when `evicted` < 0, else admitted after
  // evicting that many entries.
  void CountInsert(int64_t evicted, const TierMetrics& metrics);
  void Read(CacheStats* stats) const;

 private:
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> invalidations_{0};
};

template <typename Tier>
class CacheCore {
 public:
  using Query = typename Tier::Query;
  using Context = typename Tier::Context;
  using Stats = CacheStats;
  static constexpr int kDefaultShards = 16;

  explicit CacheCore(size_t budget_bytes, int shards = kDefaultShards)
      : budget_bytes_(budget_bytes),
        num_shards_(std::max(shards, 1)),
        shard_budget_(budget_bytes / static_cast<size_t>(num_shards_)),
        shards_(std::make_unique<Shard[]>(static_cast<size_t>(num_shards_))) {}

  CacheCore(const CacheCore&) = delete;
  CacheCore& operator=(const CacheCore&) = delete;

  // Returns a process-stable id (>= 1) for `context`, by full structural
  // equality.
  uint32_t InternContext(const Context& context) {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    const auto it = std::find(contexts_.begin(), contexts_.end(), context);
    if (it != contexts_.end()) {
      return static_cast<uint32_t>(it - contexts_.begin()) + 1;
    }
    contexts_.push_back(context);
    return static_cast<uint32_t>(contexts_.size());
  }

  // Drops every entry (stats survive). Test/bench seam for cold-start runs.
  void Clear() {
    for (int i = 0; i < num_shards_; ++i) {
      Shard& shard = shards_[static_cast<size_t>(i)];
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.entries.clear();
      shard.index.clear();
      shard.bytes = 0;
    }
  }

  Stats stats() const {
    Stats s;
    tallies_.Read(&s);
    for (int i = 0; i < num_shards_; ++i) {
      const Shard& shard = shards_[static_cast<size_t>(i)];
      std::lock_guard<std::mutex> lock(shard.mu);
      s.bytes += shard.bytes;
      s.entries += shard.entries.size();
    }
    std::lock_guard<std::mutex> lock(contexts_mu_);
    s.contexts = contexts_.size();
    return s;
  }

  size_t budget_bytes() const { return budget_bytes_; }
  int shards() const { return num_shards_; }

 protected:
  using Value = typename Tier::Value;
  using Extra = typename Tier::Extra;

  // Probes the key's shard. On a hit (kHit or kRevalidated) copies the value,
  // and the entry's Extra when `extra` is non-null. `db` is the reader's
  // snapshot for revalidating tiers and null for the others.
  LookupOutcome Lookup(const Query& query, const DbSnapshot* db,
                       std::shared_ptr<const Value>* value, Extra* extra = nullptr) {
    CSI_SPAN(Tier::kNames.lookup_span);
    Shard& shard = ShardFor(query);
    LookupVerdict verdict;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.index.find(query);
      if (it != shard.index.end()) {
        Entry& entry = *it->second;
        verdict.outcome = LookupOutcome::kHit;
        if constexpr (Tier::kNames.revalidates) {
          verdict = Revalidate(entry.anchor, *db);
        }
        if (verdict.outcome == LookupOutcome::kHit ||
            verdict.outcome == LookupOutcome::kRevalidated) {
          entry.referenced = true;
          *value = entry.value;
          if (extra != nullptr) {
            *extra = entry.extra;
          }
        } else if (verdict.outcome == LookupOutcome::kInvalidated) {
          // Unusable under every later state too: drop it now instead of
          // letting it rot until eviction.
          shard.bytes -= entry.bytes;
          shard.entries.erase(it->second);
          shard.index.erase(it);
        }
      }
    }
    tallies_.CountLookup(verdict, Metrics());
    return verdict.outcome;
  }

  // Publishes `value`, computed against `db` (null for tiers that do not
  // revalidate), charging `value_bytes` plus the entry itself.
  // `survives_appends` marks a value that read no position at or past `db`'s
  // position count (see the soundness argument above). Replaces any
  // entry for the key (a racing thread computed the same key, or a fresher
  // state supersedes a stale entry), then runs the clock sweep; a value
  // larger than a whole shard's budget is refused.
  void Insert(const Query& query, const DbSnapshot* db, std::shared_ptr<const Value> value,
              size_t value_bytes, Extra extra = {}, bool survives_appends = false) {
    if (value == nullptr) {
      return;
    }
    const TierMetrics& metrics = Metrics();
    const size_t bytes = sizeof(Entry) + value_bytes;
    if (bytes > shard_budget_) {
      tallies_.CountInsert(-1, metrics);  // would evict a whole shard and still not fit
      return;
    }
    Shard& shard = ShardFor(query);
    int64_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.index.find(query);
      if (it != shard.index.end()) {
        shard.bytes -= it->second->bytes;
        shard.entries.erase(it->second);
        shard.index.erase(it);
      }
      SnapshotAnchor anchor;
      if (db != nullptr) {
        anchor = SnapshotAnchor{db->state_id(), db->num_positions(), survives_appends};
      }
      shard.entries.push_back(
          Entry{query, anchor, std::move(extra), std::move(value), bytes, false});
      shard.index.emplace(query, std::prev(shard.entries.end()));
      shard.bytes += bytes;
      // Clock order: the front is the next victim; a referenced victim gets
      // its bit cleared and one more trip to the back.
      while (shard.bytes > shard_budget_ && shard.entries.size() > 1) {
        Entry& victim = shard.entries.front();
        if (victim.referenced) {
          victim.referenced = false;
          shard.entries.splice(shard.entries.end(), shard.entries, shard.entries.begin());
          shard.index[victim.query] = std::prev(shard.entries.end());
          continue;
        }
        shard.bytes -= victim.bytes;
        shard.index.erase(victim.query);
        shard.entries.pop_front();
        ++evicted;
      }
    }
    tallies_.CountInsert(evicted, metrics);
    // Per-shard drift between inserts is fine for a gauge; exact totals come
    // from stats().
    metrics.bytes->Set(static_cast<double>(stats().bytes));
  }

 private:
  struct Entry {
    Query query;
    SnapshotAnchor anchor;
    [[no_unique_address]] Extra extra;
    std::shared_ptr<const Value> value;
    size_t bytes = 0;
    // Second-chance bit, guarded by the shard mutex.
    bool referenced = false;
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::list<Entry> entries;
    std::unordered_map<Query, typename std::list<Entry>::iterator, typename Tier::Hash> index;
    size_t bytes = 0;
  };

  static const TierMetrics& Metrics() {
    static const TierMetrics metrics(Tier::kNames);
    return metrics;
  }

  Shard& ShardFor(const Query& query) {
    const size_t h = typename Tier::Hash{}(query);
    // The map consumes the low bits; pick the shard from the high ones.
    return shards_[(h >> 17) % static_cast<size_t>(num_shards_)];
  }

  size_t budget_bytes_;
  int num_shards_;
  size_t shard_budget_;
  std::unique_ptr<Shard[]> shards_;

  mutable std::mutex contexts_mu_;
  std::vector<Context> contexts_;

  TierTallies tallies_;
};

}  // namespace internal

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_CACHE_COMMON_H_
