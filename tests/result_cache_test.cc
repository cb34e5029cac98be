// Differential replay harness for the snapshot-keyed whole-result cache.
//
// Same absolute contract as the lower tiers, one level up: inference output
// is byte-identical with the result cache on and off, for every design path,
// capture set, repeat schedule, thread count, and live-refresh replay — the cache may only change WHETHER the pipeline runs,
// never what it produces. On top of the differential sweeps this suite pins
// the hull-capture rules (RecordEnumerationForResultCache mirrors the
// candidate tier's Revalidate conditions at analyze time), the revalidation
// boundaries (same state, delta-disjoint re-anchor, delta-in-window and
// compaction invalidations, stale-snapshot keeps), eviction under a tiny
// budget, and a TSan'd hammer where concurrent BatchAnalyzers share one
// result cache while a LiveChunkDatabase publishes refreshes under them.
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
  capture::CaptureTrace trace{BasePacket()};
  trace[0].timestamp = stamp;
  return ResultCache::MakeQuery(FingerprintColumns(capture::PacketColumns::Build(trace)),
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

// --- Hull capture rules -----------------------------------------------------

TEST(ResultHullScope, InstallsNestsAndRestores) {
  EXPECT_EQ(CurrentResultHull(), nullptr);
  ResultHull outer;
  {
    ResultHullScope scope(&outer);
    EXPECT_EQ(CurrentResultHull(), &outer);
    ResultHull inner;
    {
      ResultHullScope nested(&inner);
      EXPECT_EQ(CurrentResultHull(), &inner);
    }
    EXPECT_EQ(CurrentResultHull(), &outer);
    {
      ResultHullScope null_scope(nullptr);  // null is a valid no-op target
      EXPECT_EQ(CurrentResultHull(), nullptr);
      RecordSizeProbeForResultCache(1000, 0.96);  // must not crash
    }
    EXPECT_EQ(CurrentResultHull(), &outer);
  }
  EXPECT_EQ(CurrentResultHull(), nullptr);
  EXPECT_FALSE(outer.sensitive);
}

TEST(ResultHull, WidenUnionsWindows) {
  ResultHull hull;
  hull.Widen(100, 200);
  EXPECT_TRUE(hull.sensitive);
  EXPECT_EQ(hull.probe_lo, 100);
  EXPECT_EQ(hull.probe_hi, 200);
  hull.Widen(50, 150);
  EXPECT_EQ(hull.probe_lo, 50);
  EXPECT_EQ(hull.probe_hi, 200);
  hull.Widen(80, 900);
  EXPECT_EQ(hull.probe_lo, 50);
  EXPECT_EQ(hull.probe_hi, 900);
}

TEST(RecordEnumeration, MirrorsCandidateTierConditions) {
  CandidateSetHull video;
  video.has_video_split = true;
  video.v_max = 3;
  video.has_v1 = true;
  video.hull1_lo = 400;
  video.hull1_hi = 800;
  video.hull2_hi = 1200;
  video.hull_all_hi = 1500;
  // Wide enough that a [0, live edge] range floors the per-start DFS budget.
  constexpr int kPositions = 100;
  static_assert(kMaxDfsNodes / kPositions <= GroupCandidateCache::kPerStartNodeFloor);

  {
    // No video split: the enumeration never reads the position axis.
    ResultHull out;
    ResultHullScope scope(&out);
    CandidateSetHull no_video = video;
    no_video.has_video_split = false;
    RecordEnumerationForResultCache(no_video, 0, GroupCandidateCache::kOpenHi, kPositions);
    EXPECT_FALSE(out.sensitive);
  }
  {
    // Concrete range whose longest run cannot cross the live edge.
    ResultHull out;
    ResultHullScope scope(&out);
    RecordEnumerationForResultCache(video, 10, 20, kPositions);
    EXPECT_FALSE(out.sensitive);
  }
  {
    // Concrete range with a run crossing the analyze-time edge: the
    // multi-chunk upper bound is the only thing between an appended chunk and
    // a new candidate.
    ResultHull out;
    ResultHullScope scope(&out);
    RecordEnumerationForResultCache(video, 90, kPositions - 2, kPositions);
    EXPECT_TRUE(out.sensitive);
    EXPECT_FALSE(out.unsafe);
    EXPECT_EQ(out.probe_lo, 0);
    EXPECT_EQ(out.probe_hi, video.hull2_hi);
  }
  {
    // Growth range, multi-chunk splits, budget under the floor: appended
    // chunks can seed candidates anywhere up to the overall hull.
    ResultHull out;
    ResultHullScope scope(&out);
    RecordEnumerationForResultCache(video, 0, GroupCandidateCache::kOpenHi, kPositions);
    EXPECT_TRUE(out.sensitive);
    EXPECT_FALSE(out.unsafe);
    EXPECT_EQ(out.probe_lo, 0);
    EXPECT_EQ(out.probe_hi, video.hull_all_hi);
  }
  {
    // Growth range, single-chunk splits only: the v == 1 window floor holds.
    ResultHull out;
    ResultHullScope scope(&out);
    CandidateSetHull single = video;
    single.v_max = 1;
    RecordEnumerationForResultCache(single, 0, GroupCandidateCache::kOpenHi, kPositions);
    EXPECT_TRUE(out.sensitive);
    EXPECT_FALSE(out.unsafe);
    EXPECT_EQ(out.probe_lo, single.hull1_lo);
    EXPECT_EQ(out.probe_hi, single.hull_all_hi);
  }
  {
    // Growth range narrow enough that its per-start DFS budget sits above
    // the floor: the cutoff itself shifts with the live edge — unprovable by
    // any window.
    ResultHull out;
    ResultHullScope scope(&out);
    constexpr int kNarrowPositions = 10;
    static_assert(kMaxDfsNodes / kNarrowPositions > GroupCandidateCache::kPerStartNodeFloor);
    RecordEnumerationForResultCache(video, 0, GroupCandidateCache::kOpenHi, kNarrowPositions);
    EXPECT_TRUE(out.sensitive);
    EXPECT_TRUE(out.unsafe);
  }
}

TEST(RecordSizeProbe, UsesAdmissibleWindow) {
  ResultHull out;
  ResultHullScope scope(&out);
  const Bytes estimated = 100000;
  const double k = 0.96;
  RecordSizeProbeForResultCache(estimated, k);
  EXPECT_TRUE(out.sensitive);
  EXPECT_EQ(out.probe_lo, ChunkDatabase::AdmissibleLow(estimated, k));
  EXPECT_EQ(out.probe_hi, estimated);
}

// --- Cache mechanics --------------------------------------------------------

TEST(ResultCacheMechanics, InternContextDistinguishesEveryKnob) {
  ResultCache cache(1 << 20);
  ResultCache::Context base;
  base.design = DesignType::kSQ;
  base.host_suffix = "a.example.com";
  base.k_https = 0.96;
  base.max_sequences = 512;
  base.other_object_sizes = {1000};
  const uint32_t id = cache.InternContext(base);
  EXPECT_GE(id, 1u);
  EXPECT_EQ(cache.InternContext(base), id);

  const auto differs = [&](auto&& mutate) {
    ResultCache::Context c = base;
    mutate(c);
    return cache.InternContext(c) != id;
  };
  EXPECT_TRUE(differs([](auto& c) { c.design = DesignType::kCQ; }));
  EXPECT_TRUE(differs([](auto& c) { c.host_suffix = "b.example.com"; }));
  EXPECT_TRUE(differs([](auto& c) { c.splitter.idle_threshold += 1; }));
  EXPECT_TRUE(differs([](auto& c) { c.k_https += 0.01; }));
  EXPECT_TRUE(differs([](auto& c) { c.k_quic += 0.01; }));
  EXPECT_TRUE(differs([](auto& c) { c.expected_fixed_overhead += 1; }));
  EXPECT_TRUE(differs([](auto& c) { c.max_sequences += 1; }));
  EXPECT_TRUE(differs([](auto& c) { c.max_candidates_per_group += 1; }));
  EXPECT_TRUE(differs([](auto& c) { c.enable_wildcards = !c.enable_wildcards; }));
  EXPECT_TRUE(differs([](auto& c) { c.enable_merge_repair = !c.enable_merge_repair; }));
  EXPECT_TRUE(differs([](auto& c) { c.other_object_sizes.push_back(2000); }));
  EXPECT_EQ(cache.stats().contexts, 12u);
}

TEST(ResultCacheMechanics, RevalidationBoundariesAcrossLiveStates) {
  const media::Manifest full =
      testbed::MakeAssetForDesign(DesignType::kSQ, 1, 60 * kUsPerSec);
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

  LiveChunkDatabase live(prefix, {});
  const DbSnapshot a = live.Acquire();
  ResultCache cache(1 << 20);
  ResultCache::AuditShape shape_in;
  shape_in.media_flows = 2;
  shape_in.sequences = 1;
  shape_in.has_best_cost = true;
  shape_in.best_cost = 3.5;

  // Insensitive entry: valid at A and at every later state of the lineage.
  const auto insensitive_q = QueryFor(a, 1, 1000);
  cache.Insert(insensitive_q, a, ResultHull{}, MakeResult(1), shape_in);
  ResultCache::AuditShape shape_out;
  ASSERT_NE(cache.Lookup(insensitive_q, a, &shape_out), nullptr);
  EXPECT_EQ(shape_out.media_flows, 2);
  EXPECT_EQ(shape_out.sequences, 1);
  EXPECT_TRUE(shape_out.has_best_cost);
  EXPECT_EQ(shape_out.best_cost, 3.5);

  // Sensitive entries with a window the appended sizes cannot touch (real
  // chunks are tens of KB) vs. one that swallows every append.
  ResultHull disjoint;
  disjoint.Widen(1, 2);
  const auto disjoint_q = QueryFor(a, 1, 2000);
  cache.Insert(disjoint_q, a, disjoint, MakeResult(1), {});
  ResultHull covering;
  covering.Widen(0, static_cast<Bytes>(1) << 40);
  const auto covering_q = QueryFor(a, 1, 3000);
  cache.Insert(covering_q, a, covering, MakeResult(1), {});
  ResultHull unsafe;
  unsafe.sensitive = true;
  unsafe.unsafe = true;
  const auto unsafe_q = QueryFor(a, 1, 4000);
  cache.Insert(unsafe_q, a, unsafe, MakeResult(1), {});

  // All four hit at the exact state they were inserted at.
  EXPECT_NE(cache.Lookup(disjoint_q, a), nullptr);
  EXPECT_NE(cache.Lookup(covering_q, a), nullptr);
  EXPECT_NE(cache.Lookup(unsafe_q, a), nullptr);

  const DbSnapshot b = live.ApplyRefresh(refresh);
  ASSERT_GT(b.num_positions(), a.num_positions());
  ASSERT_EQ(b.lineage_id(), a.lineage_id());

  const auto before = cache.stats();
  // Insensitive and delta-disjoint entries revalidate and re-anchor to B...
  EXPECT_NE(cache.Lookup(insensitive_q, b), nullptr);
  EXPECT_NE(cache.Lookup(disjoint_q, b), nullptr);
  // ...the covering-window and unsafe entries are provably unusable: dropped,
  // counted, and absent afterwards.
  EXPECT_EQ(cache.Lookup(covering_q, b), nullptr);
  EXPECT_EQ(cache.Lookup(unsafe_q, b), nullptr);
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits + 2);
  EXPECT_EQ(after.invalidations, before.invalidations + 2);
  EXPECT_EQ(cache.Lookup(covering_q, b), nullptr);
  EXPECT_EQ(cache.stats().invalidations, after.invalidations);  // already gone

  // Re-anchored entries are now exact at B; a reader still pinning A gets a
  // miss but the entry survives for current readers.
  EXPECT_EQ(cache.Lookup(disjoint_q, a), nullptr);
  EXPECT_NE(cache.Lookup(disjoint_q, b), nullptr);

  // A different lineage never shares entries, whatever the fingerprint.
  LiveChunkDatabase other(prefix, {});
  const DbSnapshot c = other.Acquire();
  ASSERT_NE(c.lineage_id(), a.lineage_id());
  EXPECT_EQ(cache.Lookup(QueryFor(c, 1, 1000), c), nullptr);
}

TEST(ResultCacheMechanics, CompactionInvalidatesSensitiveEntries) {
  const media::Manifest full =
      testbed::MakeAssetForDesign(DesignType::kSQ, 1, 60 * kUsPerSec);
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

  LiveDbOptions options;
  options.compact_after_delta_chunks = 0;  // compact on every refresh
  LiveChunkDatabase live(prefix, options);
  const DbSnapshot a = live.Acquire();

  ResultCache cache(1 << 20);
  ResultHull disjoint;
  disjoint.Widen(1, 2);
  const auto query = QueryFor(a, 1, 1000);
  cache.Insert(query, a, disjoint, MakeResult(1), {});

  live.ApplyRefresh(refresh);
  live.WaitForCompaction();
  const DbSnapshot b = live.Acquire();
  ASSERT_GT(b.num_positions(), a.num_positions());
  if (b.base_positions() <= a.num_positions()) {
    GTEST_SKIP() << "compaction did not fold the delta; nothing to test";
  }
  // The appends are folded into the base: the one-sided delta probe can no
  // longer prove disjointness, even for a window no append could touch.
  EXPECT_EQ(cache.Lookup(query, b), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // An insensitive entry shrugs the compaction off.
  const auto easy = QueryFor(a, 1, 2000);
  cache.Insert(easy, b, ResultHull{}, MakeResult(1), {});
  EXPECT_NE(cache.Lookup(easy, b), nullptr);
}

TEST(ResultCacheMechanics, EvictionKeepsBytesUnderTinyBudget) {
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kCH, 1, 30 * kUsPerSec);
  LiveChunkDatabase live(manifest, {});
  const DbSnapshot db = live.Acquire();

  ResultCache cache(4096, 2);
  for (int i = 0; i < 64; ++i) {
    cache.Insert(QueryFor(db, 1, 1000 + i), db, ResultHull{}, MakeResult(2), {});
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 4096u);
  EXPECT_GT(stats.entries, 0u);

  // A result bigger than a whole shard is refused outright.
  const auto huge_q = QueryFor(db, 1, 999999);
  cache.Insert(huge_q, db, ResultHull{}, MakeResult(256), {});
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
  cache.Insert(query, db, ResultHull{}, MakeResult(256), {});
  const auto stats = cache.stats();
  EXPECT_EQ(stats.refused, 1u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(cache.Lookup(query, db), nullptr);
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
