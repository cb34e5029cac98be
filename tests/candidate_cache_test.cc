// Differential, invalidation, eviction, and concurrency tests for the shared
// group-candidate cache (src/csi/candidate_cache.h).
//
// The contract locked in here: enumeration results are byte-identical with
// the cache enabled, disabled, and across live-manifest refreshes — for any
// append schedule and compaction cadence. An entry that never read a position
// at or past its anchor must hit across appends and compactions, every other
// entry must invalidate on an append, the cache must stay under its byte
// budget while evicting, and it must survive concurrent readers racing a
// publisher (run under TSan in CI).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/tracing.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/group_search.h"
#include "src/csi/live_database.h"
#include "src/media/manifest.h"
#include "src/testbed/experiment.h"
#include "tests/test_env.h"

namespace csi::infer {
namespace {

using media::Chunk;
using media::Manifest;
using media::MediaType;
using media::Track;

Bytes RandomChunkSize(Rng* rng, std::vector<Bytes>* palette) {
  if (!palette->empty() && rng->Chance(0.35)) {
    return (*palette)[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(palette->size()) - 1))];
  }
  const Bytes size = rng->UniformInt(1, 4'000'000);
  palette->push_back(size);
  return size;
}

// Random uniform live-edge manifest (same shape as live_database_test). Mixes
// narrow manifests, where a growth range's per-start DFS budget
// (kMaxDfsNodes / range) sits above its floor, with wide ones (>= 31
// positions), where a chain-root range floors it.
Manifest RandomUniformManifest(Rng* rng, std::vector<Bytes>* palette) {
  Manifest m;
  m.asset_id = "cache-fuzz";
  m.host = "cdn.live.example";
  const int tracks = static_cast<int>(rng->UniformInt(1, 4));
  const int positions = rng->Chance(0.05)  ? 0
                        : rng->Chance(0.5) ? static_cast<int>(rng->UniformInt(1, 16))
                                           : static_cast<int>(rng->UniformInt(31, 40));
  for (int t = 0; t < tracks; ++t) {
    Track track;
    track.name = "v" + std::to_string(t);
    track.type = MediaType::kVideo;
    track.nominal_bitrate = (t + 1) * 1'000'000;
    for (int i = 0; i < positions; ++i) {
      track.chunks.push_back(Chunk{RandomChunkSize(rng, palette), 2'000'000});
    }
    m.video_tracks.push_back(std::move(track));
  }
  if (rng->Chance(0.6)) {
    Track audio;
    audio.name = "audio";
    audio.type = MediaType::kAudio;
    audio.nominal_bitrate = 128'000;
    const Bytes audio_size = rng->UniformInt(8'000, 64'000);
    for (int i = 0; i < positions; ++i) {
      audio.chunks.push_back(Chunk{audio_size, 2'000'000});
    }
    m.audio_tracks.push_back(std::move(audio));
  }
  return m;
}

ManifestRefresh RandomRefresh(Rng* rng, int tracks, int appended,
                              std::vector<Bytes>* palette) {
  ManifestRefresh refresh;
  refresh.video_appends.resize(static_cast<size_t>(tracks));
  for (int t = 0; t < tracks; ++t) {
    for (int i = 0; i < appended; ++i) {
      refresh.video_appends[static_cast<size_t>(t)].push_back(
          Chunk{RandomChunkSize(rng, palette), 2'000'000});
    }
  }
  return refresh;
}

TrafficGroup MakeGroup(int requests, Bytes estimated) {
  TrafficGroup g;
  for (int i = 0; i < requests; ++i) {
    g.requests.push_back(DetectedRequest{0, false});
  }
  g.start_time = 0;
  g.end_time = 5 * kUsPerSec;
  g.estimated_total = estimated;
  return g;
}

// One reusable query: a group plus a start-range recipe. Open ranges track
// the live edge (hi = positions at query time), the others stay fixed — both
// shapes the sequence chain produces.
struct QueryCase {
  TrafficGroup group;
  int lo = 0;
  int hi = 0;
  bool open = false;
};

std::vector<QueryCase> MakeQueryCases(Rng* rng, const Manifest& m, Bytes audio_size) {
  std::vector<QueryCase> cases;
  const int positions = m.num_positions();
  const int tracks = m.num_video_tracks();
  for (int qi = 0; qi < 6; ++qi) {
    QueryCase qc;
    const int requests = static_cast<int>(rng->UniformInt(1, 5));
    Bytes estimated = 0;
    if (positions > 0 && rng->Chance(0.7)) {
      // Plant a real explanation so the DFS has work to do.
      const int s = static_cast<int>(rng->UniformInt(0, positions - 1));
      const int v = static_cast<int>(
          rng->UniformInt(1, std::min<int64_t>({3, positions - s, requests})));
      Bytes total = 0;
      for (int j = 0; j < v; ++j) {
        const int t = static_cast<int>(rng->UniformInt(0, tracks - 1));
        total += m.video_tracks[static_cast<size_t>(t)]
                     .chunks[static_cast<size_t>(s + j)]
                     .size;
      }
      total += static_cast<Bytes>(requests - v) * audio_size;
      estimated = total + total / 300 + 1;
    } else {
      estimated = rng->UniformInt(1, 5'000'000);
    }
    qc.group = MakeGroup(requests, estimated);
    const int anchor = positions > 0 ? static_cast<int>(rng->UniformInt(0, positions - 1)) : 0;
    switch (rng->UniformInt(0, 3)) {
      case 0:
        qc.open = true;  // chain root: [0, live edge]
        break;
      case 1:
        qc.lo = anchor;
        qc.hi = anchor;  // post-transition single-start range
        break;
      case 2:
        qc.lo = 0;
        qc.hi = anchor;
        break;
      default:
        qc.lo = anchor;
        qc.open = true;  // [anchor, live edge]
        break;
    }
    cases.push_back(std::move(qc));
  }
  return cases;
}

GroupSearchConfig FuzzConfig(Rng* rng, const std::vector<Bytes>& palette) {
  GroupSearchConfig config;
  config.k = 0.05;
  config.expected_overhead = 0.005;
  config.expected_fixed_overhead = 0;
  if (rng->Chance(0.3) && !palette.empty()) {
    config.other_object_sizes.push_back(palette[0]);
  }
  return config;
}

// Runs every query case against `snap` with the shared cache on and off and
// asserts byte identity; runs the cached side twice so the second call takes
// the hit/revalidation path.
void ExpectCacheOnMatchesOff(const std::vector<QueryCase>& cases, const DbSnapshot& snap,
                             const GroupSearchConfig& off_config,
                             GroupCandidateCache* cache, const std::string& context) {
  GroupSearchConfig on_config = off_config;
  on_config.shared_cache = cache;
  for (size_t i = 0; i < cases.size(); ++i) {
    const QueryCase& qc = cases[i];
    const int hi = qc.open ? snap.num_positions() : qc.hi;
    const std::string ctx = context + " query " + std::to_string(i);
    bool trunc_off = false;
    bool trunc_on = false;
    bool trunc_on2 = false;
    const std::vector<GroupCandidate> off = EnumerateGroupCandidates(
        qc.group, snap, off_config, {}, qc.lo, hi, &trunc_off);
    const std::vector<GroupCandidate> on = EnumerateGroupCandidates(
        qc.group, snap, on_config, {}, qc.lo, hi, &trunc_on);
    const std::vector<GroupCandidate> on_again = EnumerateGroupCandidates(
        qc.group, snap, on_config, {}, qc.lo, hi, &trunc_on2);
    ASSERT_EQ(on, off) << ctx;
    ASSERT_EQ(on_again, off) << ctx << " (hit path)";
    ASSERT_EQ(trunc_on, trunc_off) << ctx;
    ASSERT_EQ(trunc_on2, trunc_off) << ctx << " (hit path)";
  }
}

// --- Cache-on vs cache-off byte identity over append schedules ------------

TEST(CandidateCacheDifferential, CacheOnMatchesCacheOffOn120Schedules) {
  ThreadPool pool(3);
  const uint64_t schedules = testutil::ScheduleCount(120);
  for (uint64_t seed = 0; seed < schedules; ++seed) {
    Rng rng(seed);
    std::vector<Bytes> palette;
    Manifest m = RandomUniformManifest(&rng, &palette);
    const std::string ctx = "seed " + std::to_string(seed);

    LiveChunkDatabase::Options options;
    options.pool = rng.Chance(0.5) ? &pool : nullptr;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        options.compact_after_delta_chunks = 0;
        break;
      case 1:
        options.compact_after_delta_chunks = static_cast<size_t>(rng.UniformInt(1, 12));
        break;
      default:
        options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
        break;
    }
    LiveChunkDatabase live(m, options);

    const Bytes audio_size =
        m.audio_tracks.empty() ? 0 : m.audio_tracks[0].chunks.empty()
                                         ? 0
                                         : m.audio_tracks[0].chunks[0].size;
    const GroupSearchConfig off_config = FuzzConfig(&rng, palette);
    std::vector<QueryCase> cases = MakeQueryCases(&rng, m, audio_size);
    // One cache across every state of this lineage: the cross-refresh
    // revalidation path is exactly what this loop exercises.
    GroupCandidateCache cache(8ull * 1024 * 1024);

    ASSERT_NO_FATAL_FAILURE(
        ExpectCacheOnMatchesOff(cases, live.Acquire(), off_config, &cache, ctx + " initial"));

    const int refreshes = static_cast<int>(rng.UniformInt(1, 4));
    for (int r = 0; r < refreshes; ++r) {
      const int appended = static_cast<int>(rng.UniformInt(1, 4));
      const ManifestRefresh refresh =
          RandomRefresh(&rng, m.num_video_tracks(), appended, &palette);
      const DbSnapshot snap = live.ApplyRefresh(refresh);
      const std::string step = ctx + " refresh " + std::to_string(r);
      ASSERT_NO_FATAL_FAILURE(
          ExpectCacheOnMatchesOff(cases, snap, off_config, &cache, step));
      if (rng.Chance(0.25)) {
        const DbSnapshot compacted = live.CompactNow();
        ASSERT_NO_FATAL_FAILURE(ExpectCacheOnMatchesOff(cases, compacted, off_config, &cache,
                                                        step + " compacted"));
      }
      live.WaitForCompaction();
      ASSERT_NO_FATAL_FAILURE(ExpectCacheOnMatchesOff(cases, live.Acquire(), off_config,
                                                      &cache, step + " settled"));
    }
  }
}

// --- Which enumerations survive appends ----------------------------------

// The one fact the candidate tier records per entry at Insert.
TEST(EnumerationSurvivesAppends, MapsEachRangeShapeToItsRule) {
  constexpr int kPositions = 100;
  constexpr int kOpen = GroupCandidateCache::kOpenHi;
  struct Case {
    const char* name;
    int v_max;
    int start_lo;
    int start_hi;
    bool survives;
  };
  const std::vector<Case> cases = {
      // No split asks for video: the position axis is never read.
      {"video-free growth range", 0, 0, kOpen, true},
      {"video-free concrete range", 0, 10, 20, true},
      // Concrete ranges whose longest run ends before P.
      {"concrete run ending before P", 3, 10, 20, true},
      {"concrete run ending at P - 1", 3, 90, kPositions - 3, true},
      {"single-chunk concrete range", 1, 0, kPositions - 2, true},
      // A run from the last starts would read an appended position.
      {"concrete run crossing P", 3, 90, kPositions - 2, false},
      // Appended positions join a growth range's starts.
      {"single-chunk growth range", 1, 0, kOpen, false},
      {"growth range from a late start", 3, 95, kOpen, false},
      // No start to enumerate, now or at any later state.
      {"empty concrete range", 3, 50, 40, true},
  };
  for (const Case& test : cases) {
    EXPECT_EQ(EnumerationSurvivesAppends(test.v_max, test.start_lo, test.start_hi, kPositions),
              test.survives)
        << test.name;
  }
}

// --- Targeted delta invalidation ------------------------------------------

// Fixed two-track manifest with well-separated sizes; audio 32000.
Manifest SmallManifest(int positions) {
  Manifest m;
  m.asset_id = "small";
  m.host = "cdn.small.example";
  for (int t = 0; t < 2; ++t) {
    Track track;
    track.name = "v" + std::to_string(t);
    track.type = MediaType::kVideo;
    track.nominal_bitrate = (t + 1) * 1'000'000;
    for (int i = 0; i < positions; ++i) {
      track.chunks.push_back(Chunk{1000 * (t + 1) + 7 * i, 2'000'000});
    }
    m.video_tracks.push_back(std::move(track));
  }
  Track audio;
  audio.name = "audio";
  audio.type = MediaType::kAudio;
  audio.nominal_bitrate = 128'000;
  for (int i = 0; i < positions; ++i) {
    audio.chunks.push_back(Chunk{32'000, 2'000'000});
  }
  m.audio_tracks.push_back(std::move(audio));
  return m;
}

ManifestRefresh UniformAppend(int tracks, Bytes size) {
  ManifestRefresh refresh;
  refresh.video_appends.resize(static_cast<size_t>(tracks));
  for (int t = 0; t < tracks; ++t) {
    refresh.video_appends[static_cast<size_t>(t)].push_back(Chunk{size, 2'000'000});
  }
  return refresh;
}

class CandidateCacheInvalidation : public ::testing::Test {
 protected:
  // Enumerates `group` over [lo, hi] (default: [0, live edge]) with the cache
  // and asserts the result matches a cache-off run at the same state.
  std::vector<GroupCandidate> Enumerate(const DbSnapshot& snap, const TrafficGroup& group,
                                        GroupCandidateCache* cache, int lo = 0, int hi = -1) {
    GroupSearchConfig off;
    off.k = 0.05;
    off.expected_overhead = 0.005;
    off.expected_fixed_overhead = 0;
    GroupSearchConfig on = off;
    on.shared_cache = cache;
    if (hi < 0) {
      hi = snap.num_positions();
    }
    bool trunc_on = false;
    bool trunc_off = false;
    const auto cached = EnumerateGroupCandidates(group, snap, on, {}, lo, hi, &trunc_on);
    const auto cold = EnumerateGroupCandidates(group, snap, off, {}, lo, hi, &trunc_off);
    EXPECT_EQ(cached, cold);
    EXPECT_EQ(trunc_on, trunc_off);
    return cached;
  }

  // The (outcome, reason) of every group_cache instant `run` emits.
  template <typename Run>
  std::vector<std::pair<std::string, std::string>> Instants(const Run& run) {
    trace::TraceSession& session = trace::TraceSession::Global();
    session.Start({});
    run();
    session.Stop();
    std::vector<std::pair<std::string, std::string>> instants;
    for (const trace::TraceEvent& e : session.Collect()) {
      if (e.phase == 'i' && std::string(e.name) == "group_cache") {
        EXPECT_EQ(e.num_args, 2);
        instants.emplace_back(e.args[0].string_value, e.args[1].string_value);
      }
    }
    return instants;
  }
};

TEST_F(CandidateCacheInvalidation, GrowthRangeEntryInvalidatesOnAnyAppend) {
  const Manifest m = SmallManifest(32);
  LiveChunkDatabase::Options options;
  options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
  LiveChunkDatabase live(m, options);
  GroupCandidateCache cache(1 << 20);
  // video (t0, i3) + one audio chunk.
  const Bytes truth = 1000 + 7 * 3 + 32'000;
  const TrafficGroup group = MakeGroup(2, truth + truth / 300);

  Enumerate(live.Acquire(), group, &cache);
  const auto before = cache.stats();
  EXPECT_GE(before.inserts, 1u);

  // The widest split window tops out at the estimate itself, so no appended
  // chunk just past it could enter the output — but the range runs to the
  // live edge, and the entry does not outlive the append.
  live.ApplyRefresh(UniformAppend(2, group.estimated_total + 1));
  const auto instants = Instants([&] { Enumerate(live.Acquire(), group, &cache); });
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"invalidated", "append"}, {"miss", "invalidated"}};
  EXPECT_EQ(instants, expected);
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.invalidations, before.invalidations + 1);
  // The re-inserted entry is anchored at the new state and hits again.
  Enumerate(live.Acquire(), group, &cache);
  EXPECT_GT(cache.stats().hits, after.hits);
}

TEST_F(CandidateCacheInvalidation, ConcreteRangeEntryRevalidatesAcrossAppendsAndCompaction) {
  const Manifest m = SmallManifest(32);
  LiveChunkDatabase::Options options;
  options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
  LiveChunkDatabase live(m, options);
  GroupCandidateCache cache(1 << 20);
  // CH-shaped: one request, video (t0, i4), starts [3, 5] well before the
  // live edge.
  const Bytes truth = 1000 + 7 * 4;
  const TrafficGroup group = MakeGroup(1, truth + truth / 300);
  constexpr int kLo = 3;
  constexpr int kHi = 5;

  const auto first = Enumerate(live.Acquire(), group, &cache, kLo, kHi);
  ASSERT_FALSE(first.empty());
  const auto before = cache.stats();
  EXPECT_EQ(before.inserts, 1u);

  // An appended chunk inside the entry's size window still cannot enter the
  // output: no start in [3, 5] reaches it.
  live.ApplyRefresh(UniformAppend(2, group.estimated_total));
  EXPECT_EQ(Instants([&] { Enumerate(live.Acquire(), group, &cache, kLo, kHi); }),
            (std::vector<std::pair<std::string, std::string>>{
                {"revalidated", "position_insensitive"}}));

  // A second append, folded into the base by a compaction before any lookup.
  live.ApplyRefresh(UniformAppend(2, group.estimated_total));
  const DbSnapshot compacted = live.CompactNow();
  ASSERT_EQ(compacted.base_positions(), compacted.num_positions());
  EXPECT_EQ(Instants([&] { Enumerate(compacted, group, &cache, kLo, kHi); }),
            (std::vector<std::pair<std::string, std::string>>{
                {"revalidated", "position_insensitive"}}));

  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits + 2);
  EXPECT_EQ(after.invalidations, before.invalidations);
  EXPECT_EQ(after.inserts, before.inserts);
}

TEST_F(CandidateCacheInvalidation, CompactionWithoutAppendsKeepsEntries) {
  const Manifest m = SmallManifest(32);
  LiveChunkDatabase::Options options;
  options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
  LiveChunkDatabase live(m, options);
  GroupCandidateCache cache(1 << 20);
  const Bytes truth = 1000 + 7 * 3 + 32'000;
  const TrafficGroup group = MakeGroup(2, truth + truth / 300);

  // Entry computed at a state that already includes the append...
  live.ApplyRefresh(UniformAppend(2, group.estimated_total + 1));
  Enumerate(live.Acquire(), group, &cache);
  const auto before = cache.stats();

  // ...stays valid across a compaction: same positions, same data, new
  // published state (epoch reuse after compaction).
  live.CompactNow();
  Enumerate(live.Acquire(), group, &cache);
  const auto after = cache.stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.invalidations, before.invalidations);
}

// --- The key covers every setting the enumeration reads -------------------

// The candidate tier keys on (EnumerationSettings, display). Two enumerations
// that share one GroupCandidateCache and differ in a single one of them must
// not share an entry. The mutations take the whole GroupSearchConfig, so a
// setting moved out of the slice still compiles here and fails the check.
TEST(CandidateTierKey, EveryEnumerationSettingAndTheDisplaySplitTheKey) {
  const Manifest m = SmallManifest(12);
  const DbSnapshot snap(std::make_shared<const ChunkDatabase>(&m));
  // Two requests: within every max_group_requests below, so each call probes
  // the cache.
  const TrafficGroup group = MakeGroup(2, 1000 + 1007 + 40);
  struct Call {
    GroupSearchConfig config;
    DisplayConstraints display;
  };
  using Mutation = void (*)(Call&);
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"k", [](Call& c) { c.config.k += 0.01; }},
      {"expected_overhead", [](Call& c) { c.config.expected_overhead += 0.001; }},
      {"expected_fixed_overhead", [](Call& c) { c.config.expected_fixed_overhead += 1; }},
      {"max_candidates_per_group", [](Call& c) { c.config.max_candidates_per_group = 3; }},
      {"max_group_requests", [](Call& c) { c.config.max_group_requests = 8; }},
      {"max_phantom_requests", [](Call& c) { c.config.max_phantom_requests = 0; }},
      {"other_object_sizes", [](Call& c) { c.config.other_object_sizes.push_back(500); }},
      {"enable_wildcards", [](Call& c) { c.config.enable_wildcards = false; }},
      {"display", [](Call& c) { c.display[0] = 1; }},
  };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    GroupCandidateCache cache(16u << 20);
    Call call;
    call.config.shared_cache = &cache;
    const auto enumerate = [&]() {
      return EnumerateGroupCandidateSet(group, snap, call.config, call.display, 0,
                                        snap.num_positions());
    };
    ASSERT_FALSE(enumerate()->candidates.empty());
    enumerate();  // control: the same settings hit
    ASSERT_EQ(cache.stats().hits, 1u);
    mutate(call);
    enumerate();
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().contexts, 2u);
  }
}

// --- Eviction stays under the byte budget ---------------------------------

TEST(CandidateCacheEviction, NeverExceedsByteBudgetUnderLoad) {
  const Manifest m = SmallManifest(12);
  const DbSnapshot snap(std::make_shared<const ChunkDatabase>(&m));
  constexpr size_t kBudget = 64 * 1024;
  GroupCandidateCache cache(kBudget, /*shards=*/2);
  GroupSearchConfig config;
  config.k = 0.05;
  config.shared_cache = &cache;

  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    // Distinct estimates make distinct keys; many land real candidate sets.
    const Bytes truth = 1000 + 7 * static_cast<Bytes>(rng.UniformInt(0, 11)) + 32'000;
    const TrafficGroup group =
        MakeGroup(static_cast<int>(rng.UniformInt(1, 4)), truth + static_cast<Bytes>(i));
    bool truncated = false;
    EnumerateGroupCandidates(group, snap, config, {}, 0, snap.num_positions(), &truncated);
    ASSERT_LE(cache.stats().bytes, kBudget) << "after insert " << i;
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.evictions, 0u) << "load must overflow the budget and evict";
  EXPECT_LE(stats.bytes, kBudget);
}

// --- Concurrent readers racing a live publisher (TSan) --------------------

TEST(CandidateCacheConcurrency, SharedCacheHammeredByReadersWhileRefreshing) {
  ThreadPool pool(2);
  std::vector<Bytes> palette;
  Rng setup_rng(42);
  Manifest m = SmallManifest(10);
  LiveChunkDatabase::Options options;
  options.pool = &pool;
  options.compact_after_delta_chunks = 6;
  LiveChunkDatabase live(m, options);
  GroupCandidateCache cache(4ull * 1024 * 1024);

  std::vector<QueryCase> cases = MakeQueryCases(&setup_rng, m, 32'000);
  GroupSearchConfig config;
  config.k = 0.05;
  config.shared_cache = &cache;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        const DbSnapshot snap = live.Acquire();
        const QueryCase& qc = cases[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(cases.size()) - 1))];
        const int hi = qc.open ? snap.num_positions() : qc.hi;
        bool trunc_on = false;
        bool trunc_off = false;
        GroupSearchConfig off = config;
        off.shared_cache = nullptr;
        const auto on =
            EnumerateGroupCandidates(qc.group, snap, config, {}, qc.lo, hi, &trunc_on);
        const auto cold =
            EnumerateGroupCandidates(qc.group, snap, off, {}, qc.lo, hi, &trunc_off);
        // Both ran against the same pinned snapshot: identity must hold even
        // while publishes land concurrently.
        if (on != cold || trunc_on != trunc_off) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  Rng writer_rng(7);
  for (int r = 0; r < 12; ++r) {
    live.ApplyRefresh(
        RandomRefresh(&writer_rng, m.num_video_tracks(), 2, &palette));
    if (r % 5 == 4) {
      live.CompactNow();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  live.WaitForCompaction();
}

// --- Batch-level identity and warm-start ----------------------------------

TEST(CandidateCacheBatch, SqBatchIdenticalWithCacheOnOffAndWarm) {
  using testbed::MakeAssetForDesign;
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSQ, 1, duration);
  std::vector<capture::CaptureTrace> traces;
  for (int i = 0; i < 3; ++i) {
    testbed::SessionConfig sc;
    sc.design = DesignType::kSQ;
    sc.manifest = &manifest;
    sc.downlink = nettrace::StableTrace("s", (4 + i) * kMbps);
    sc.duration = duration;
    sc.seed = 100 + static_cast<uint64_t>(i);
    traces.push_back(testbed::RunStreamingSession(sc).capture);
  }
  // Duplicate the list: the second half re-analyzes the same captures, which
  // is the cross-trace amortization the cache exists for.
  const size_t unique = traces.size();
  for (size_t i = 0; i < unique; ++i) {
    traces.push_back(traces[i]);
  }

  InferenceConfig config;
  config.design = DesignType::kSQ;
  BatchConfig cache_on;
  cache_on.threads = 2;
  // Keep the result tier out of the way: it would serve the duplicated back
  // half wholesale and starve the candidate-tier warm-hit stats under test.
  cache_on.caches.result.budget_mb = 0;
  BatchConfig cache_off;
  cache_off.threads = 2;
  cache_off.caches.candidate.budget_mb = 0;
  cache_off.caches.result.budget_mb = 0;

  BatchAnalyzer with_cache(&manifest, config, cache_on);
  BatchAnalyzer without_cache(&manifest, config, cache_off);
  const auto on = with_cache.AnalyzeAll(traces);
  const auto off = without_cache.AnalyzeAll(traces);
  ASSERT_EQ(on.size(), off.size());
  for (size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i], off[i]) << "trace " << i;
  }

  EXPECT_EQ(without_cache.candidate_cache(), nullptr);
  ASSERT_NE(with_cache.candidate_cache(), nullptr);
  const auto stats = with_cache.candidate_cache()->stats();
  EXPECT_GT(stats.hits, 0u) << "duplicate traces must warm-start from the shared cache";
  // A second batch over the same traces starts warm.
  const uint64_t hits_after_first = stats.hits;
  const auto again = with_cache.AnalyzeAll(traces);
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i], off[i]) << "warm trace " << i;
  }
  EXPECT_GT(with_cache.candidate_cache()->stats().hits, hits_after_first);
}

}  // namespace
}  // namespace csi::infer
