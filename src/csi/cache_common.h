// Common machinery behind the three cache tiers (prefix / candidate /
// result): the unified budget/enable knob, the shared stats block and its
// summary formatter, the CSI_CACHE env override, and the sharded
// second-chance (clock) store that used to be copy-pasted between
// prefix_cache.cc and candidate_cache.cc.
//
// Each tier keeps its own Query/Entry/Lookup semantics (the prefix cache has
// no revalidation, the candidate and result caches revalidate against the
// snapshot delta buffer); what lives here is everything that must behave
// identically across tiers so operators see one coherent cache surface.

#ifndef CSI_SRC_CSI_CACHE_COMMON_H_
#define CSI_SRC_CSI_CACHE_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace csi::infer {

// Budget/enable knob for one cache tier — the unit of the unified `caches`
// block in InferenceConfig/BatchConfig and of the `--cache` / `--cache-mb`
// tool flags. `enabled == false` beats any budget.
struct CacheOptions {
  int budget_mb = 0;
  bool enabled = true;

  int effective_budget_mb() const { return enabled ? budget_mb : 0; }

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

// The "off" spellings every cache env override accepts.
inline bool CacheOffSpelling(const std::string& value) {
  return value == "off" || value == "OFF" || value == "0" || value == "none";
}

// True when CSI_CACHE disables the named tier. The value is a comma-separated
// list of <name>:off entries (= also accepted as the separator), e.g.
// CSI_CACHE=prefix:off,result:off; <name> is prefix, candidate, result, or
// all. Reads the environment on every call — the per-cache EnvForcesOff
// wrappers latch the result in a function-local static.
inline bool CsiCacheEnvDisables(const char* name) {
  const char* env = std::getenv("CSI_CACHE");
  if (env == nullptr) {
    return false;
  }
  const std::string spec(env);
  const std::string want(name);
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string token = spec.substr(pos, comma - pos);
    size_t sep = token.find(':');
    if (sep == std::string::npos) {
      sep = token.find('=');
    }
    if (sep != std::string::npos) {
      const std::string key = token.substr(0, sep);
      if ((key == want || key == "all") && CacheOffSpelling(token.substr(sep + 1))) {
        return true;
      }
    }
    pos = comma + 1;
  }
  return false;
}

namespace internal {

// Sharded second-chance (clock) store over a byte budget. Entry must expose
// `query`, `bytes` and `referenced` fields; Lookup-side semantics (plain hit,
// delta revalidation, eager invalidation drops) stay in each cache, which
// locks the shard it gets from ShardFor and walks index/entries directly.
template <typename Query, typename Entry, typename Hash>
class ShardedClockStore {
 public:
  struct Shard {
    mutable std::mutex mu;
    // Clock order: front is next eviction victim; a referenced victim gets
    // its bit cleared and one more trip to the back.
    std::list<Entry> entries;
    std::unordered_map<Query, typename std::list<Entry>::iterator, Hash> index;
    size_t bytes = 0;
  };

  ShardedClockStore(size_t budget_bytes, int shards) : budget_bytes_(budget_bytes) {
    const int n = std::max(shards, 1);
    shard_budget_ = budget_bytes_ / static_cast<size_t>(n);
    shards_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  ShardedClockStore(const ShardedClockStore&) = delete;
  ShardedClockStore& operator=(const ShardedClockStore&) = delete;

  Shard& ShardFor(const Query& query) {
    const size_t h = Hash{}(query);
    // The map consumes the low bits; pick the shard from the high ones.
    return *shards_[(h >> 17) % shards_.size()];
  }

  // Publishes `entry`, replacing any existing entry for its key, then runs
  // the clock sweep. Returns the number of entries evicted, or -1 when the
  // entry is bigger than a whole shard's budget and was refused.
  int64_t InsertAndEvict(Entry entry) {
    if (entry.bytes > shard_budget_) {
      return -1;  // would evict a whole shard and still not fit
    }
    Shard& shard = ShardFor(entry.query);
    int64_t evicted = 0;
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(entry.query);
    if (it != shard.index.end()) {
      // Replace in place (a racing thread recomputed the same key, or a
      // fresher state supersedes a stale entry).
      shard.bytes -= it->second->bytes;
      shard.entries.erase(it->second);
      shard.index.erase(it);
    }
    shard.bytes += entry.bytes;
    const Query query = entry.query;
    shard.entries.push_back(std::move(entry));
    shard.index.emplace(query, std::prev(shard.entries.end()));
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
    return evicted;
  }

  // Drops every entry (caller-side stats survive).
  void Clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->entries.clear();
      shard->index.clear();
      shard->bytes = 0;
    }
  }

  // Adds the live per-shard byte/entry totals into `stats`.
  void AccumulateShards(CacheStats* stats) const {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      stats->bytes += shard->bytes;
      stats->entries += shard->entries.size();
    }
  }

  size_t budget_bytes() const { return budget_bytes_; }
  size_t shard_budget() const { return shard_budget_; }
  int shards() const { return static_cast<int>(shards_.size()); }

 private:
  size_t budget_bytes_ = 0;
  size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace internal

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_CACHE_COMMON_H_
