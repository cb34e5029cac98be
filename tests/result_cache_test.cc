// Differential replay harness for the snapshot-keyed whole-result cache.
//
// Same absolute contract as the lower tiers, one level up: inference output
// is byte-identical with the result cache on and off, for every design path,
// capture set, repeat schedule, thread count, and live-refresh replay — the
// cache may only change WHETHER the pipeline runs, never what it produces. On
// top of the differential sweeps this suite pins the result tier's one
// validity rule (same state hits, a compaction's republish re-anchors, an
// older reader misses and keeps the entry, any append invalidates), engine
// sharing through one lineage, the shared core's five lookup outcomes and
// their causes on the candidate and result tiers alike, a hit's audit line
// (the result's shape, zero work), eviction under a tiny budget, and a
// TSan'd hammer where concurrent BatchAnalyzers share one result cache while
// a LiveChunkDatabase publishes refreshes under them.
//
// The seeded sweep honors CSI_TEST_SCHEDULES (tests/test_env.h): tier-1 CI
// runs the fast default, the scheduled deep-differential job raises it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"
#include "src/csi/audit.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/chunk_database.h"
#include "src/csi/live_database.h"
#include "src/csi/result_cache.h"
#include "src/testbed/experiment.h"
#include "tests/inference_digest.h"
#include "tests/test_env.h"

namespace csi::infer {
namespace {

using testutil::MakeBatch;

capture::PacketRecord BasePacket() {
  capture::PacketRecord p;
  p.timestamp = 1000;
  p.from_client = true;
  p.transport = net::Transport::kUdp;
  p.client_ip = 0x0a000001;
  p.server_ip = 0xc0a80101;
  p.client_port = 51000;
  p.server_port = 443;
  p.payload = 1200;
  p.sni = "v.example.com";
  return p;
}

ResultCache::Query QueryFor(const DbSnapshot& db, uint32_t context, TimeUs stamp) {
  capture::PacketRecord p = BasePacket();
  p.timestamp = stamp;
  return ResultCache::MakeQuery(FingerprintColumns(capture::PacketColumns::Build({p})),
                                context, db);
}

std::shared_ptr<const InferenceResult> MakeResult(int sequences) {
  auto result = std::make_shared<InferenceResult>();
  for (int s = 0; s < sequences; ++s) {
    InferredSequence seq;
    seq.slots.resize(4);
    result->sequences.push_back(std::move(seq));
  }
  return result;
}

// The first half of `full` as a live database's start, and the rest as one
// refresh that appends its real chunk sizes (tens of KB).
std::pair<media::Manifest, ManifestRefresh> SplitAsset(const media::Manifest& full) {
  const int start_positions = std::max(1, full.num_positions() / 2);
  media::Manifest prefix = full;
  for (auto& track : prefix.video_tracks) {
    track.chunks.resize(static_cast<size_t>(start_positions));
  }
  for (auto& track : prefix.audio_tracks) {
    track.chunks.resize(std::min(track.chunks.size(),
                                 static_cast<size_t>(start_positions)));
  }
  ManifestRefresh refresh;
  refresh.video_appends.resize(full.video_tracks.size());
  for (size_t t = 0; t < full.video_tracks.size(); ++t) {
    const auto& chunks = full.video_tracks[t].chunks;
    refresh.video_appends[t].assign(chunks.begin() + start_positions, chunks.end());
  }
  return {prefix, refresh};
}

std::pair<media::Manifest, ManifestRefresh> HalfSqAsset() {
  return SplitAsset(testbed::MakeAssetForDesign(DesignType::kSQ, 1, 60 * kUsPerSec));
}

// One appended position whose chunks (3 GiB each) are far bigger than any
// Property (1) window a session's requests can read.
ManifestRefresh OversizedAppend(const media::Manifest& manifest) {
  ManifestRefresh refresh;
  refresh.video_appends.resize(manifest.video_tracks.size());
  for (auto& appends : refresh.video_appends) {
    appends.push_back(media::Chunk{static_cast<Bytes>(3) << 30, 2 * kUsPerSec});
  }
  return refresh;
}

// --- Cache mechanics --------------------------------------------------------

// The result tier keys on the InferenceSettings slice. Two engines that share
// one ResultCache and differ in a single setting must not share an entry: the
// second engine's Analyze of the same capture misses. The mutations take the
// whole InferenceConfig, so a setting moved out of the slice still compiles
// here and fails the check.
TEST(ResultTierKey, EveryInferenceSettingSplitsTheKey) {
  const TimeUs duration = 20 * kUsPerSec;
  const media::Manifest manifest = testbed::MakeAssetForDesign(DesignType::kSQ, 1, duration);
  const capture::PacketColumns columns =
      capture::PacketColumns::Build(MakeBatch(manifest, DesignType::kSQ, 1, duration)[0]);
  // One snapshot, so every engine queries the same lineage.
  const DbSnapshot snapshot(std::make_shared<const ChunkDatabase>(&manifest));
  InferenceConfig base;
  base.design = DesignType::kSQ;
  // Explicit, so that no setting reaches the key only through a default fill.
  base.host_suffix = manifest.host;
  base.other_object_sizes = {manifest.SerializedSize() + base.expected_fixed_overhead};

  using Mutation = void (*)(InferenceConfig&);
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"design", [](InferenceConfig& c) { c.design = DesignType::kCQ; }},
      {"host_suffix", [](InferenceConfig& c) { c.host_suffix = "other.example"; }},
      {"splitter.idle_threshold", [](InferenceConfig& c) { c.splitter.idle_threshold += 1; }},
      {"splitter.simultaneity_window",
       [](InferenceConfig& c) { c.splitter.simultaneity_window += 1; }},
      {"splitter.enable_sp1", [](InferenceConfig& c) { c.splitter.enable_sp1 = false; }},
      {"splitter.enable_sp2", [](InferenceConfig& c) { c.splitter.enable_sp2 = false; }},
      {"k_https", [](InferenceConfig& c) { c.k_https += 0.01; }},
      {"k_quic", [](InferenceConfig& c) { c.k_quic += 0.01; }},
      {"expected_overhead_https", [](InferenceConfig& c) { c.expected_overhead_https += 0.001; }},
      {"expected_overhead_quic", [](InferenceConfig& c) { c.expected_overhead_quic += 0.001; }},
      {"expected_fixed_overhead", [](InferenceConfig& c) { c.expected_fixed_overhead += 1; }},
      {"max_sequences", [](InferenceConfig& c) { c.max_sequences = 7; }},
      {"max_candidates_per_group", [](InferenceConfig& c) { c.max_candidates_per_group = 100; }},
      {"enable_wildcards", [](InferenceConfig& c) { c.enable_wildcards = false; }},
      {"enable_merge_repair", [](InferenceConfig& c) { c.enable_merge_repair = false; }},
      {"enable_phantom_deficit", [](InferenceConfig& c) { c.enable_phantom_deficit = false; }},
      {"enable_calibrated_ranking",
       [](InferenceConfig& c) { c.enable_calibrated_ranking = false; }},
      {"other_object_sizes", [](InferenceConfig& c) { c.other_object_sizes.push_back(1000); }},
  };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    InferenceConfig config = base;
    config.caches.result = std::make_shared<ResultCache>(64u << 20);
    const ResultCache& cache = *config.caches.result;
    ASSERT_FALSE(InferenceEngine(snapshot, config).Analyze(columns).sequences.empty());
    // Control: the same settings hit.
    InferenceEngine(snapshot, config).Analyze(columns);
    ASSERT_EQ(cache.stats().hits, 1u);
    mutate(config);
    InferenceEngine(snapshot, config).Analyze(columns);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().contexts, 2u);
  }
}

// The result tier's one validity rule: an entry is exact for its content
// version. Any append invalidates it, whatever the appended sizes; a reader
// pinning an older state misses and the entry survives; another lineage never
// shares.
TEST(ResultCacheMechanics, RevalidationBoundariesAcrossLiveStates) {
  const media::Manifest prefix = HalfSqAsset().first;
  LiveDbOptions options;
  options.compact_after_delta_chunks = SIZE_MAX;  // appends stay in the delta
  LiveChunkDatabase live(prefix, options);
  const DbSnapshot a = live.Acquire();
  ResultCache cache(1 << 20);

  // The entry's one side fact, the media-flow count, comes back on a hit.
  const auto query = QueryFor(a, 1, 1000);
  cache.Insert(query, a, MakeResult(1), 2);
  int media_flows = 0;
  ASSERT_NE(cache.Lookup(query, a, &media_flows), nullptr);
  EXPECT_EQ(media_flows, 2);

  // An append no window could touch still invalidates: dropped, counted once,
  // and absent afterwards.
  const DbSnapshot b = live.ApplyRefresh(OversizedAppend(prefix));
  ASSERT_GT(b.num_positions(), a.num_positions());
  ASSERT_EQ(b.lineage_id(), a.lineage_id());
  ASSERT_EQ(b.base_positions(), a.num_positions());
  const auto before = cache.stats();
  EXPECT_EQ(cache.Lookup(query, b), nullptr);
  const auto after = cache.stats();
  EXPECT_EQ(after.invalidations, before.invalidations + 1);
  EXPECT_EQ(after.entries, before.entries - 1);
  EXPECT_EQ(cache.Lookup(query, b), nullptr);
  EXPECT_EQ(cache.stats().invalidations, after.invalidations);  // already gone

  // Recomputed at B: a reader still pinning A misses, but the entry survives
  // for current readers.
  cache.Insert(query, b, MakeResult(1), {});
  EXPECT_EQ(cache.Lookup(query, a), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_NE(cache.Lookup(query, b), nullptr);
  EXPECT_EQ(cache.stats().invalidations, after.invalidations);

  // A different lineage never shares entries, whatever the fingerprint.
  LiveChunkDatabase other(prefix, {});
  const DbSnapshot c = other.Acquire();
  ASSERT_NE(c.lineage_id(), a.lineage_id());
  EXPECT_EQ(cache.Lookup(QueryFor(c, 1, 1000), c), nullptr);
}

// A compaction's republish with the same position count changes no chunk: an
// entry anchored after the last append re-anchors and hits. One anchored
// before an append the compaction folded in invalidates like any append.
TEST(ResultCacheMechanics, CompactionRepublishReanchorsAndHits) {
  const auto [prefix, refresh] = HalfSqAsset();
  LiveDbOptions options;
  options.compact_after_delta_chunks = SIZE_MAX;  // compact only on CompactNow
  LiveChunkDatabase live(prefix, options);
  const DbSnapshot a = live.Acquire();
  ResultCache cache(1 << 20);
  const auto before_append = QueryFor(a, 1, 1000);
  cache.Insert(before_append, a, MakeResult(1), {});
  const DbSnapshot b = live.ApplyRefresh(refresh);
  const auto after_append = QueryFor(b, 1, 2000);
  cache.Insert(after_append, b, MakeResult(1), {});

  const DbSnapshot c = live.CompactNow();
  ASSERT_NE(c.state_id(), b.state_id());
  ASSERT_EQ(c.num_positions(), b.num_positions());
  ASSERT_EQ(c.base_positions(), c.num_positions());
  EXPECT_NE(cache.Lookup(after_append, c), nullptr);  // re-anchored to C
  EXPECT_NE(cache.Lookup(after_append, c), nullptr);  // now a same-state hit
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.Lookup(before_append, c), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// Engines share result and candidate entries only through one database
// lineage. Engines built from one manifest pointer each build their own
// database, so the second one hits the prefix tier alone; engines built from
// one snapshot share the result entry.
TEST(ResultCacheSharing, EnginesShareResultsOnlyThroughOneLineage) {
  const TimeUs duration = 20 * kUsPerSec;
  const media::Manifest manifest = testbed::MakeAssetForDesign(DesignType::kSQ, 1, duration);
  const capture::PacketColumns columns =
      capture::PacketColumns::Build(MakeBatch(manifest, DesignType::kSQ, 1, duration)[0]);
  const auto config_with_fresh_caches = [] {
    InferenceConfig config;
    config.design = DesignType::kSQ;
    config.caches.prefix = std::make_shared<AnalysisPrefixCache>(64u << 20);
    config.caches.candidate = std::make_shared<GroupCandidateCache>(64u << 20);
    config.caches.result = std::make_shared<ResultCache>(64u << 20);
    return config;
  };
  {
    const InferenceConfig config = config_with_fresh_caches();
    const InferenceResult first = InferenceEngine(&manifest, config).Analyze(columns);
    ASSERT_FALSE(first.sequences.empty());
    const CacheStats candidate_first = config.caches.candidate->stats();
    EXPECT_EQ(InferenceEngine(&manifest, config).Analyze(columns), first);
    EXPECT_EQ(config.caches.prefix->stats().hits, 1u);
    EXPECT_EQ(config.caches.result->stats().hits, 0u);
    EXPECT_EQ(config.caches.result->stats().misses, 2u);
    // The second engine repeats the first one's lookups, none across engines.
    const CacheStats candidate = config.caches.candidate->stats();
    EXPECT_EQ(candidate.hits, 2 * candidate_first.hits);
    EXPECT_EQ(candidate.misses, 2 * candidate_first.misses);
  }
  {
    const InferenceConfig config = config_with_fresh_caches();
    const DbSnapshot snapshot(std::make_shared<const ChunkDatabase>(&manifest));
    const InferenceResult first = InferenceEngine(snapshot, config).Analyze(columns);
    EXPECT_EQ(InferenceEngine(snapshot, config).Analyze(columns), first);
    EXPECT_EQ(config.caches.result->stats().hits, 1u);
    EXPECT_EQ(config.caches.result->stats().misses, 1u);
  }
}

TEST(ResultCacheMechanics, EvictionKeepsBytesUnderTinyBudget) {
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kCH, 1, 30 * kUsPerSec);
  LiveChunkDatabase live(manifest, {});
  const DbSnapshot db = live.Acquire();

  ResultCache cache(4096, 2);
  for (int i = 0; i < 64; ++i) {
    cache.Insert(QueryFor(db, 1, 1000 + i), db, MakeResult(2), {});
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 4096u);
  EXPECT_GT(stats.entries, 0u);

  // A result bigger than a whole shard is refused outright.
  const auto huge_q = QueryFor(db, 1, 999999);
  cache.Insert(huge_q, db, MakeResult(256), {});
  EXPECT_EQ(cache.Lookup(huge_q, db), nullptr);

  cache.Clear();
  const auto cleared = cache.stats();
  EXPECT_EQ(cleared.entries, 0u);
  EXPECT_EQ(cleared.bytes, 0u);
}

TEST(ResultCacheMechanics, OversizedResultIsRefusedAndCounted) {
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kCH, 1, 30 * kUsPerSec);
  LiveChunkDatabase live(manifest, {});
  const DbSnapshot db = live.Acquire();

  // Two shards of 2 KiB each: a 256-sequence result alone exceeds one shard.
  ResultCache cache(4096, 2);
  const auto query = QueryFor(db, 1, 1000);
  cache.Insert(query, db, MakeResult(256), {});
  const auto stats = cache.stats();
  EXPECT_EQ(stats.refused, 1u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(cache.Lookup(query, db), nullptr);
}

// --- The shared core's lookup outcomes, per revalidating tier -------------

// Per-tier adapters: Insert stores an entry that any append invalidates. Both
// tiers' Lookup(key, db) is called directly.
struct CandidateTierOps {
  using Cache = GroupCandidateCache;
  static constexpr const char* kStem = "candidate";
  static constexpr const char* kInstant = "group_cache";
  static constexpr const char* kSpan = "group_cache_lookup";

  static Cache::Query Key(const DbSnapshot& db, int id) {
    // A range reaching the live edge: the same key at every state.
    return Cache::MakeQuery(db, 1, id, 1000, 0, db.num_positions());
  }
  static void Insert(Cache* cache, const Cache::Query& key, const DbSnapshot& db) {
    // Single-chunk splits over a growth range: appended starts join it.
    cache->Insert(key, db, /*v_max=*/1, std::make_shared<GroupCandidateSet>());
  }
};

struct ResultTierOps {
  using Cache = ResultCache;
  static constexpr const char* kStem = "result";
  static constexpr const char* kInstant = "result_cache";
  static constexpr const char* kSpan = "result_cache_lookup";

  static Cache::Query Key(const DbSnapshot& db, int id) { return QueryFor(db, 1, 1000 + id); }
  static void Insert(Cache* cache, const Cache::Query& key, const DbSnapshot& db) {
    cache->Insert(key, db, MakeResult(1), {});
  }
};

template <typename Ops>
class CacheCoreOutcomes : public ::testing::Test {};
using RevalidatingTiers = ::testing::Types<CandidateTierOps, ResultTierOps>;
TYPED_TEST_SUITE(CacheCoreOutcomes, RevalidatingTiers);

// Each of the five outcomes moves the tier's stats and exported counters as
// documented and explains itself with its trace instant(s), once per lookup.
TYPED_TEST(CacheCoreOutcomes, FiveOutcomesCountAndTraceOnce) {
  using Ops = TypeParam;
  const auto [prefix, refresh] = HalfSqAsset();
  LiveDbOptions options;
  options.compact_after_delta_chunks = SIZE_MAX;  // compact only on CompactNow
  LiveChunkDatabase live(prefix, options);
  const DbSnapshot a = live.Acquire();
  typename Ops::Cache cache(1 << 20);
  Ops::Insert(&cache, Ops::Key(a, 2), a);  // anchored before the append
  const DbSnapshot b = live.ApplyRefresh(refresh);
  ASSERT_GT(b.num_positions(), a.num_positions());
  Ops::Insert(&cache, Ops::Key(b, 1), b);  // anchored after it

  const auto exported = [](const char* what) {
    return telemetry::MetricsRegistry::Global()
        .GetCounter(std::string("csi_") + Ops::kStem + "_cache_" + what + "_total")
        ->Value();
  };
  const CacheStats stats_before = cache.stats();
  const int64_t lookups_before = exported("lookups");
  const int64_t hits_before = exported("hits");
  const int64_t misses_before = exported("misses");
  const int64_t invalidations_before = exported("invalidations");

  trace::TraceSession& session = trace::TraceSession::Global();
  session.Start({});
  EXPECT_NE(cache.Lookup(Ops::Key(b, 1), b), nullptr);  // hit: same state
  EXPECT_EQ(cache.Lookup(Ops::Key(b, 3), b), nullptr);  // absent
  // A compaction's republish: new state, same positions.
  const DbSnapshot c = live.CompactNow();
  ASSERT_EQ(c.num_positions(), b.num_positions());
  EXPECT_NE(cache.Lookup(Ops::Key(c, 1), c), nullptr);  // revalidated, re-anchored to C
  EXPECT_EQ(cache.Lookup(Ops::Key(a, 1), a), nullptr);  // stale snapshot: kept
  EXPECT_EQ(cache.stats().entries, stats_before.entries);
  EXPECT_EQ(cache.Lookup(Ops::Key(c, 2), c), nullptr);  // invalidated: dropped
  EXPECT_EQ(cache.stats().entries, stats_before.entries - 1);
  session.Stop();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits - stats_before.hits, 2u);
  EXPECT_EQ(stats.misses - stats_before.misses, 3u);
  EXPECT_EQ(stats.invalidations - stats_before.invalidations, 1u);
  EXPECT_EQ(exported("lookups") - lookups_before, 5);
  EXPECT_EQ(exported("hits") - hits_before, 2);
  EXPECT_EQ(exported("misses") - misses_before, 3);
  EXPECT_EQ(exported("invalidations") - invalidations_before, 1);

  std::vector<std::pair<std::string, std::string>> instants;
  int spans = 0;
  for (const trace::TraceEvent& e : session.Collect()) {
    if (e.phase == 'B' && std::string(e.name) == Ops::kSpan) {
      ++spans;
    }
    if (e.phase == 'i' && std::string(e.name) == Ops::kInstant) {
      ASSERT_EQ(e.num_args, 2);
      instants.emplace_back(e.args[0].string_value, e.args[1].string_value);
    }
  }
  EXPECT_EQ(spans, 5);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"hit", "same_state"},
      {"miss", "absent"},
      {"revalidated", "same_positions"},
      {"miss", "stale_snapshot"},
      {"invalidated", "append"},
      {"miss", "invalidated"},
  };
  EXPECT_EQ(instants, expected);
}

// The anchored check names the cause of every revalidation and invalidation,
// and re-anchors only on a revalidation.
TEST(Revalidate, ReportsEachCause) {
  const auto [prefix, refresh] = HalfSqAsset();
  LiveDbOptions options;
  options.compact_after_delta_chunks = SIZE_MAX;  // compact only on CompactNow
  LiveChunkDatabase live(prefix, options);
  const DbSnapshot a = live.Acquire();
  const DbSnapshot b = live.ApplyRefresh(refresh);
  const DbSnapshot c = live.CompactNow();
  ASSERT_EQ(b.base_positions(), a.num_positions());
  ASSERT_GT(c.base_positions(), a.num_positions());

  struct Case {
    const char* name;
    const DbSnapshot* anchored_at;
    const DbSnapshot* reader;
    bool survives_appends;
    internal::LookupOutcome outcome;
    const char* reason;
  };
  using internal::LookupOutcome;
  const std::vector<Case> cases = {
      {"same state", &b, &b, false, LookupOutcome::kHit, nullptr},
      {"older reader", &b, &a, false, LookupOutcome::kStaleSnapshot, nullptr},
      {"republish", &b, &c, false, LookupOutcome::kRevalidated, "same_positions"},
      {"append, survives", &a, &b, true, LookupOutcome::kRevalidated, "position_insensitive"},
      {"append", &a, &b, false, LookupOutcome::kInvalidated, "append"},
      {"folded append, survives", &a, &c, true, LookupOutcome::kRevalidated,
       "position_insensitive"},
      {"folded append", &a, &c, false, LookupOutcome::kInvalidated, "append"},
  };
  for (const Case& test : cases) {
    SCOPED_TRACE(test.name);
    const internal::SnapshotAnchor start{test.anchored_at->state_id(),
                                         test.anchored_at->num_positions(),
                                         test.survives_appends};
    internal::SnapshotAnchor anchor = start;
    const internal::LookupVerdict verdict = internal::Revalidate(anchor, *test.reader);
    EXPECT_EQ(verdict.outcome, test.outcome);
    EXPECT_STREQ(verdict.reason, test.reason);
    const bool moved = anchor.state_id != start.state_id || anchor.positions != start.positions;
    EXPECT_EQ(moved, test.outcome == LookupOutcome::kRevalidated);
    EXPECT_EQ(anchor.survives_appends, start.survives_appends);
  }
}

// A result-tier hit's audit line: media flows, groups, sequences, truncation
// and both costs equal the computing line's, and every work counter reads 0.
// Checked for a same-state hit and for one re-anchored by a compaction's
// republish, on an SQ and a CH capture.
TEST(ResultCacheAudit, HitLineKeepsTheShapeAndZeroesTheWork) {
  for (const DesignType design : {DesignType::kSQ, DesignType::kCH}) {
    SCOPED_TRACE(DesignTypeName(design));
    const TimeUs duration = 30 * kUsPerSec;
    const media::Manifest full = testbed::MakeAssetForDesign(design, 1, duration);
    const capture::PacketColumns columns =
        capture::PacketColumns::Build(MakeBatch(full, design, 1, duration)[0]);
    const auto [prefix, refresh] = SplitAsset(full);
    LiveDbOptions options;
    options.compact_after_delta_chunks = SIZE_MAX;  // compact only on CompactNow
    LiveChunkDatabase live(prefix, options);
    live.ApplyRefresh(refresh);
    InferenceConfig config;
    config.design = design;
    config.caches.result = std::make_shared<ResultCache>(256u << 20);
    InferenceEngine engine(live.Acquire(), config);

    InferenceAudit computing;
    const InferenceResult computed = engine.Analyze(columns, {}, &computing);
    ASSERT_TRUE(computed.best_cost.has_value());
    ASSERT_EQ(computing.media_flows, 1);
    ASSERT_GT(computing.enumerations, 0);
    ASSERT_GT(computing.chain_nodes, 0);
    // The computing line with every work counter at 0.
    InferenceAudit no_work;
    no_work.media_flows = computing.media_flows;
    const std::string want = no_work.ToJsonLine("s", 0, computed);
    ASSERT_NE(computing.ToJsonLine("s", 0, computed), want);

    InferenceAudit hit;
    const InferenceResult same_state = engine.Analyze(columns, {}, &hit);
    EXPECT_EQ(same_state, computed);
    EXPECT_EQ(hit, no_work);
    EXPECT_EQ(hit.ToJsonLine("s", 0, same_state), want);

    const DbSnapshot republished = live.CompactNow();
    ASSERT_EQ(republished.num_positions(), full.num_positions());
    engine.UpdateSnapshot(republished);
    InferenceAudit reanchored;
    const InferenceResult after_compaction = engine.Analyze(columns, {}, &reanchored);
    EXPECT_EQ(after_compaction, computed);
    EXPECT_EQ(reanchored, no_work);
    EXPECT_EQ(reanchored.ToJsonLine("s", 0, after_compaction), want);
    EXPECT_EQ(config.caches.result->stats().hits, 2u);
    EXPECT_EQ(config.caches.result->stats().misses, 1u);
  }
}

// --- Differential replay: on vs off -----------------------------------------

std::vector<capture::CaptureTrace> SeededCaptureSet(const media::Manifest& manifest,
                                                    DesignType design, int unique) {
  auto traces = MakeBatch(manifest, design, unique, 60 * kUsPerSec);
  // Duplicates are the top tier's whole purpose: re-analyzing the same bytes
  // must hit, and hit output must equal recomputed output.
  const size_t n = traces.size();
  for (size_t i = 0; i < n; ++i) {
    traces.push_back(traces[i]);
  }
  return traces;
}

TEST(ResultCacheDifferential, CacheOnOffByteIdenticalAcrossSchedules) {
  // Capture sets (per design) × repeat schedules × thread counts. Tier-1 runs
  // the default; CSI_TEST_SCHEDULES raises the repeat sweep for the deep job.
  const int max_repeats = static_cast<int>(std::min<uint64_t>(
      3 + (testutil::ScheduleCount(0) / 50), 16));
  for (const DesignType design : {DesignType::kSQ, DesignType::kCH, DesignType::kCQ}) {
    const media::Manifest manifest =
        testbed::MakeAssetForDesign(design, 1, 60 * kUsPerSec);
    const auto traces = SeededCaptureSet(manifest, design, 3);
    const std::string ctx = DesignTypeName(design);

    // Reference: every cache tier off, serial.
    InferenceConfig config;
    config.design = design;
    BatchConfig off;
    off.threads = 1;
    off.caches.candidate.budget_mb = 0;
    off.caches.prefix.budget_mb = 0;
    off.caches.result.budget_mb = 0;
    BatchAnalyzer reference(&manifest, config, off);
    const auto expected = reference.AnalyzeAll(traces);
    EXPECT_EQ(reference.result_cache(), nullptr);

    for (const int threads : {1, 3}) {
      for (int repeats = 1; repeats <= max_repeats; ++repeats) {
        BatchConfig on;
        on.threads = threads;
        BatchAnalyzer analyzer(&manifest, config, on);
        for (int r = 0; r < repeats; ++r) {
          const auto got = analyzer.AnalyzeAll(traces);
          ASSERT_EQ(got.size(), expected.size());
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], expected[i])
                << ctx << " threads=" << threads << " repeat " << r << " trace " << i;
          }
        }
        ASSERT_NE(analyzer.result_cache(), nullptr);
        const auto stats = analyzer.result_cache()->stats();
        // Serial passes must hit on the duplicated back half; a single
        // concurrent pass may race dup pairs to all-miss, but any second
        // pass runs against a fully warm cache at the same state.
        if (threads == 1 || repeats >= 2) {
          EXPECT_GT(stats.hits, 0u) << ctx << " threads=" << threads << " repeats=" << repeats;
        }
        EXPECT_LE(stats.misses,
                  static_cast<uint64_t>(traces.size()) * static_cast<uint64_t>(threads))
            << ctx;
      }
    }
  }
}

TEST(ResultCacheSharing, SecondBatchOverSameTracesRunsFullyWarm) {
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kSQ, 1, 60 * kUsPerSec);
  const auto traces = MakeBatch(manifest, DesignType::kSQ, 3, 60 * kUsPerSec);

  InferenceConfig config;
  config.design = DesignType::kSQ;
  BatchConfig batch;
  batch.threads = 2;
  BatchAnalyzer analyzer(&manifest, config, batch);
  const auto expected = analyzer.AnalyzeAll(traces);
  ASSERT_NE(analyzer.result_cache(), nullptr);
  const auto cold = analyzer.result_cache()->stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, static_cast<uint64_t>(traces.size()));

  // Same engine, same snapshot: the second pass never runs the pipeline.
  const auto warm = analyzer.AnalyzeAll(traces);
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i], expected[i]) << "trace " << i;
  }
  const auto stats = analyzer.result_cache()->stats();
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(traces.size()));
  EXPECT_EQ(stats.inserts, cold.inserts);
}

// --- Live-refresh replay: revalidation boundaries under real growth ---------

// Appends the back half of `full` to `live` in `steps` refreshes.
std::vector<ManifestRefresh> TailRefreshes(const media::Manifest& full, int start_positions,
                                           int steps) {
  std::vector<ManifestRefresh> refreshes;
  const int tail = full.num_positions() - start_positions;
  for (int r = 0; r < steps; ++r) {
    const int lo = start_positions + tail * r / steps;
    const int hi = start_positions + tail * (r + 1) / steps;
    ManifestRefresh refresh;
    refresh.video_appends.resize(full.video_tracks.size());
    for (size_t t = 0; t < full.video_tracks.size(); ++t) {
      const auto& chunks = full.video_tracks[t].chunks;
      refresh.video_appends[t].assign(chunks.begin() + lo, chunks.begin() + hi);
    }
    refreshes.push_back(std::move(refresh));
  }
  return refreshes;
}

media::Manifest PrefixManifest(const media::Manifest& full, int positions) {
  media::Manifest prefix = full;
  for (auto& track : prefix.video_tracks) {
    track.chunks.resize(static_cast<size_t>(positions));
  }
  for (auto& track : prefix.audio_tracks) {
    track.chunks.resize(std::min(track.chunks.size(), static_cast<size_t>(positions)));
  }
  return prefix;
}

TEST(ResultCacheLiveReplay, RefreshRoundsStayByteIdenticalAndWarmWithinAState) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest full =
      testbed::MakeAssetForDesign(DesignType::kSQ, 1, duration);
  const auto traces = MakeBatch(full, DesignType::kSQ, 3, duration);
  const int start_positions = std::max(1, full.num_positions() / 2);
  const auto refreshes = TailRefreshes(full, start_positions, 3);
  ASSERT_FALSE(refreshes.empty());

  LiveChunkDatabase live(PrefixManifest(full, start_positions), {});

  // Pin the config knobs that would otherwise be derived from the growing
  // manifest (same discipline as csi_batch --follow-manifests).
  InferenceConfig config;
  config.design = DesignType::kSQ;
  config.host_suffix = full.host;
  config.other_object_sizes.push_back(full.SerializedSize() +
                                      config.expected_fixed_overhead);
  auto shared = std::make_shared<ResultCache>(32 << 20);
  config.caches.result = shared;
  BatchConfig batch;
  batch.threads = 2;
  BatchAnalyzer analyzer(live.Acquire(), config, batch);

  InferenceConfig no_cache = config;
  no_cache.caches.result = nullptr;
  BatchConfig off;
  off.threads = 1;
  off.caches.candidate.budget_mb = 0;
  off.caches.prefix.budget_mb = 0;
  off.caches.result.budget_mb = 0;

  for (size_t round = 0; round <= refreshes.size(); ++round) {
    if (round > 0) {
      live.ApplyRefresh(refreshes[round - 1]);
    }
    const DbSnapshot snapshot = live.Acquire();
    analyzer.UpdateSnapshot(snapshot);
    // First pass at this state: any mix of revalidated hits, invalidations
    // and misses — but byte-identical to a cold cache-off reference.
    const auto got = analyzer.AnalyzeAll(traces);
    BatchAnalyzer reference(snapshot, no_cache, off);
    const auto expected = reference.AnalyzeAll(traces);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "round " << round << " trace " << i;
    }
    // Second pass at the same state: fully warm, zero pipeline runs.
    const uint64_t hits_before = shared->stats().hits;
    const auto again = analyzer.AnalyzeAll(traces);
    for (size_t i = 0; i < again.size(); ++i) {
      ASSERT_EQ(again[i], expected[i]) << "round " << round << " warm trace " << i;
    }
    EXPECT_EQ(shared->stats().hits, hits_before + static_cast<uint64_t>(traces.size()))
        << "round " << round;
  }
  const auto stats = shared->stats();
  EXPECT_EQ(stats.lookups(), stats.hits + stats.misses);
  live.WaitForCompaction();
}

// --- TSan hammer: concurrent batches, shared cache, live publishes ----------

TEST(ResultCacheHammer, ConcurrentBatchesSharedCacheUnderLivePublishes) {
  const TimeUs duration = 45 * kUsPerSec;
  const media::Manifest full =
      testbed::MakeAssetForDesign(DesignType::kSQ, 1, duration);
  const auto traces = MakeBatch(full, DesignType::kSQ, 3, duration);
  const int start_positions = std::max(1, full.num_positions() / 2);
  const auto refreshes = TailRefreshes(full, start_positions, 6);

  LiveChunkDatabase live(PrefixManifest(full, start_positions), {});

  InferenceConfig config;
  config.design = DesignType::kSQ;
  config.host_suffix = full.host;
  config.other_object_sizes.push_back(full.SerializedSize() +
                                      config.expected_fixed_overhead);
  auto shared = std::make_shared<ResultCache>(32 << 20);
  config.caches.result = shared;

  constexpr int kWorkers = 2;
  constexpr int kRounds = 4;
  // Every (worker, round) records the snapshot it analyzed against plus its
  // results, so the serial reference below can replay the exact state.
  struct Recorded {
    DbSnapshot snapshot;
    std::vector<InferenceResult> results;
  };
  std::vector<std::vector<Recorded>> recorded(kWorkers);
  std::atomic<int> failures{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      try {
        BatchConfig batch;
        batch.threads = 2;
        BatchAnalyzer analyzer(live.Acquire(), config, batch);
        for (int r = 0; r < kRounds; ++r) {
          DbSnapshot snapshot = live.Acquire();
          analyzer.UpdateSnapshot(snapshot);
          auto results = analyzer.AnalyzeAll(traces);
          recorded[static_cast<size_t>(w)].push_back(
              Recorded{std::move(snapshot), std::move(results)});
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  std::thread publisher([&] {
    for (const ManifestRefresh& refresh : refreshes) {
      live.ApplyRefresh(refresh);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& t : workers) {
    t.join();
  }
  publisher.join();
  ASSERT_EQ(failures.load(), 0);

  // Serial reference per recorded snapshot, all caches off: the concurrent
  // results must be byte-identical per index.
  InferenceConfig no_cache = config;
  no_cache.caches.result = nullptr;
  BatchConfig off;
  off.threads = 1;
  off.caches.candidate.budget_mb = 0;
  off.caches.prefix.budget_mb = 0;
  off.caches.result.budget_mb = 0;
  for (int w = 0; w < kWorkers; ++w) {
    ASSERT_EQ(recorded[static_cast<size_t>(w)].size(), static_cast<size_t>(kRounds));
    for (int r = 0; r < kRounds; ++r) {
      const Recorded& rec = recorded[static_cast<size_t>(w)][static_cast<size_t>(r)];
      BatchAnalyzer reference(rec.snapshot, no_cache, off);
      const auto expected = reference.AnalyzeAll(traces);
      ASSERT_EQ(rec.results.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(rec.results[i], expected[i])
            << "worker " << w << " round " << r << " trace " << i;
      }
    }
  }
  live.WaitForCompaction();
}

// --- Batch knob plumbing ----------------------------------------------------

TEST(ResultCacheBatchConfig, KnobsCreateAndDisableTheTier) {
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kCH, 1, 60 * kUsPerSec);
  InferenceConfig config;
  config.design = DesignType::kCH;
  {
    BatchConfig batch;
    batch.threads = 1;
    BatchAnalyzer analyzer(&manifest, config, batch);
    EXPECT_NE(analyzer.result_cache(), nullptr);  // default-on tier
  }
  {
    BatchConfig batch;
    batch.threads = 1;
    batch.caches.result.budget_mb = 0;
    BatchAnalyzer analyzer(&manifest, config, batch);
    EXPECT_EQ(analyzer.result_cache(), nullptr);
  }
  {
    // An explicit engine-level cache always wins over the batch knobs.
    InferenceConfig with_cache = config;
    auto own = std::make_shared<ResultCache>(1 << 20);
    with_cache.caches.result = own;
    BatchConfig batch;
    batch.threads = 1;
    batch.caches.result.budget_mb = 0;
    BatchAnalyzer analyzer(&manifest, with_cache, batch);
    EXPECT_EQ(analyzer.result_cache(), own.get());
  }
}

}  // namespace
}  // namespace csi::infer
