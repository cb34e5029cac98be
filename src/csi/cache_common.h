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
//   * the snapshot rule: PositionDependence and the anchored revalidation.
//
// A tier supplies a traits struct and a thin class over CacheCore<Tier>:
//   Query, Hash   the key and its hash;
//   Context       the settings slice the cached computation reads
//                 (settings.h), interned by its defaulted operator==;
//   Value, Extra  the shared payload and the per-entry side data a hit
//                 returns (the candidate tier's hulls, the result tier's
//                 dependence and audit shape);
//   kNames        metric stem, trace instant, lookup span, hit reason, and
//                 whether entries revalidate against a DbSnapshot;
//   Dependence    (revalidating tiers) the entry's PositionDependence at a
//                 position count.
// The class keeps its public names (MakeQuery, Lookup, Insert) and its
// payload's byte estimate; callers intern a context with the core's
// InternContext.
//
// Snapshot revalidation — why a hit under a newer state is exact. Within one
// database lineage, refreshes only ever append positions: chunk sizes at
// positions below an entry's anchor P_A never change and audio is CBR. So a
// value computed at state A stays byte-identical at a later state B unless an
// appended chunk could have entered the computation. PositionDependence
// records, per entry, how the computation read the position axis:
//   * insensitive — never (video-free enumerations, concrete start ranges
//     whose longest run ends before P_A, results without media flows);
//   * a size window [probe_lo, probe_hi] — an appended chunk can change the
//     output only if its size lies inside: a single-chunk candidate needs its
//     size in a v == 1 split window, a multi-chunk run through it survives the
//     DFS's MinSum prune only if it alone is below the run's upper bound, and
//     a merge-repair probe flips only for a size in its admissible window;
//   * unsafe — a growth range whose per-start DFS budget sat above the floor
//     (GroupCandidateCache::kPerStartNodeFloor): the budget shrinks as the
//     live edge moves, a different cutoff on the same inputs, which no window
//     can rule out.
// EnumerationDependence (candidate_cache.h) maps one group enumeration to its
// dependence. The candidate tier evaluates it per entry at the entry's
// current anchor; the result tier folds every enumeration and merge-repair
// probe of one Analyze into a union at analyze time (ResultHull). Revalidate
// below is then the one anchored check both tiers run: same state → hit;
// same positions (a compaction's republish) → re-anchor; an older snapshot
// than the anchor → miss and keep the entry for newer readers; appended
// positions → re-anchor when the dependence is insensitive, or when no
// appended chunk's size lies in its window (one DbSnapshot::
// DeltaHasSizeInWindow probe, O(log delta)). A compaction that folded the
// appends into the base can no longer be probed one-sidedly against P_A, so
// sensitive entries then invalidate, as do unsafe ones. Re-anchoring makes
// later checks O(1) and the rule transitive across refreshes; an invalidated
// entry is dropped at once, since no later state of the lineage can prove it.

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
#include "src/common/units.h"
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
  // Entries dropped because a newer state's appends (or a compaction that hid
  // them) could have changed their output.
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

// How a cached value depends on the database's position axis (see the
// soundness argument above): insensitive (`sensitive` false), a size window
// [probe_lo, probe_hi], or `unsafe`. Widened monotonically; wider is always
// sound (more invalidation, never a missed one).
struct PositionDependence {
  bool sensitive = false;
  bool unsafe = false;
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

  // Folds another dependence into this union.
  void Merge(const PositionDependence& other) {
    if (!other.sensitive) {
      return;
    }
    if (other.unsafe) {
      sensitive = true;
      unsafe = true;
      return;
    }
    Widen(other.probe_lo, other.probe_hi);
  }

  friend bool operator==(const PositionDependence&, const PositionDependence&) = default;
};

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
// forward.
struct SnapshotAnchor {
  uint64_t state_id = 0;
  int positions = 0;
};

// The one anchored check (see the soundness argument above). `dependence_at`
// maps the anchor's position count to the entry's PositionDependence; it runs
// only when positions were appended since the anchor. Re-anchors on
// kRevalidated. Caller holds the entry's shard mutex.
template <typename DependenceAt>
LookupOutcome Revalidate(SnapshotAnchor& anchor, const DbSnapshot& db,
                         const DependenceAt& dependence_at) {
  if (db.state_id() == anchor.state_id) {
    return LookupOutcome::kHit;
  }
  const int pa = anchor.positions;
  const int pb = db.num_positions();
  if (pb < pa) {
    // A reader pinning an older state than the anchor (a publish raced the
    // batch): not provable from this snapshot, but still right for newer ones.
    return LookupOutcome::kStaleSnapshot;
  }
  if (pb > pa) {
    const PositionDependence dependence = dependence_at(pa);
    if (dependence.sensitive &&
        (dependence.unsafe || db.base_positions() > pa ||
         db.DeltaHasSizeInWindow(dependence.probe_lo, dependence.probe_hi, pa))) {
      return LookupOutcome::kInvalidated;
    }
  }
  anchor = SnapshotAnchor{db.state_id(), pb};
  return LookupOutcome::kRevalidated;
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
  // "invalidated" instant before its miss).
  void CountLookup(LookupOutcome outcome, const TierMetrics& metrics);
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
    LookupOutcome outcome = LookupOutcome::kAbsent;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.index.find(query);
      if (it != shard.index.end()) {
        Entry& entry = *it->second;
        outcome = LookupOutcome::kHit;
        if constexpr (Tier::kNames.revalidates) {
          outcome = Revalidate(entry.anchor, *db, [&entry](int positions) {
            return Tier::Dependence(entry.query, entry.extra, positions);
          });
        }
        if (outcome == LookupOutcome::kHit || outcome == LookupOutcome::kRevalidated) {
          entry.referenced = true;
          *value = entry.value;
          if (extra != nullptr) {
            *extra = entry.extra;
          }
        } else if (outcome == LookupOutcome::kInvalidated) {
          // Unusable under every later state too: drop it now instead of
          // letting it rot until eviction.
          shard.bytes -= entry.bytes;
          shard.entries.erase(it->second);
          shard.index.erase(it);
        }
      }
    }
    tallies_.CountLookup(outcome, Metrics());
    return outcome;
  }

  // Publishes `value`, computed against `db` (null for tiers that do not
  // revalidate), charging `value_bytes` plus the entry itself. Replaces any
  // entry for the key (a racing thread computed the same key, or a fresher
  // state supersedes a stale entry), then runs the clock sweep; a value
  // larger than a whole shard's budget is refused.
  void Insert(const Query& query, const DbSnapshot* db, std::shared_ptr<const Value> value,
              size_t value_bytes, Extra extra = {}) {
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
        anchor = SnapshotAnchor{db->state_id(), db->num_positions()};
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
