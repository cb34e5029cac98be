// Differential and concurrency tests for the snapshot-versioned live
// database (src/csi/live_database.h, src/csi/db_snapshot.h).
//
// The contract locked in here: for any uniform live manifest and any append
// schedule, queries against the incrementally updated database are
// byte-identical to a fresh full ChunkDatabase build of the manifest at the
// same refresh point — for every compaction cadence (inline, background,
// CompactNow, never) and SIMD backend. Snapshots acquired before
// a publish keep answering for their pinned version, and the whole structure
// is hammered by concurrent readers while a writer refreshes and compacts
// (run under TSan in CI).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/common/thread_pool.h"
#include "src/csi/chunk_database.h"
#include "src/csi/db_snapshot.h"
#include "src/csi/live_database.h"
#include "src/media/manifest.h"
#include "tests/test_env.h"

namespace csi::infer {
namespace {

using media::Chunk;
using media::ChunkRef;
using media::Manifest;
using media::MediaType;
using media::Track;

// Restores the pre-test dispatch choice even when an assertion fails
// mid-test; ForceBackend is process-wide state.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::ActiveBackend()) {}
  ~BackendGuard() { simd::ForceBackend(saved_); }

 private:
  simd::Backend saved_;
};

std::vector<simd::Backend> SupportedVectorBackends() {
  std::vector<simd::Backend> backends;
  for (simd::Backend b : {simd::Backend::kSse2, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::BackendSupported(b)) {
      backends.push_back(b);
    }
  }
  return backends;
}

Bytes RandomChunkSize(Rng* rng, std::vector<Bytes>* palette) {
  // Sizes collide often (within and across tracks, across base and delta):
  // ties are exactly where the base/delta merge could diverge from the
  // full-build (size, packed ref) order.
  if (!palette->empty() && rng->Chance(0.35)) {
    return (*palette)[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(palette->size()) - 1))];
  }
  const Bytes size = rng->UniformInt(1, 4'000'000);
  palette->push_back(size);
  return size;
}

// A random uniform live-edge manifest: every video track has the same number
// of positions (what LiveChunkDatabase requires and real live ladders do).
Manifest RandomUniformManifest(Rng* rng, std::vector<Bytes>* palette) {
  Manifest m;
  m.asset_id = "live-fuzz";
  m.host = "cdn.live.example";
  const int tracks = static_cast<int>(rng->UniformInt(1, 5));
  const int positions =
      rng->Chance(0.05) ? 0 : static_cast<int>(rng->UniformInt(1, 24));
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
  if (rng->Chance(0.5)) {
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

// A refresh appending `appended` chunks to each of `tracks` video tracks.
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

// Mirrors what LiveChunkDatabase::ApplyRefresh does to its internal manifest
// copy, so a fresh full build of `m` is the ground truth for the incremental
// snapshot: video appends verbatim, audio tracks repeat their constant (CBR)
// chunk by the same count, empty audio tracks stay empty.
void ApplyToManifest(Manifest* m, const ManifestRefresh& refresh) {
  size_t appended = 0;
  for (size_t t = 0; t < refresh.video_appends.size(); ++t) {
    const auto& chunks = refresh.video_appends[t];
    appended = chunks.size();
    m->video_tracks[t].chunks.insert(m->video_tracks[t].chunks.end(), chunks.begin(),
                                     chunks.end());
  }
  for (Track& audio : m->audio_tracks) {
    if (audio.chunks.empty()) {
      continue;
    }
    const Chunk repeat = audio.chunks[0];
    for (size_t i = 0; i < appended; ++i) {
      audio.chunks.push_back(repeat);
    }
  }
}

// Asserts that `snap` answers every query byte-identically to `full`, a fresh
// full build of the same manifest version. Exhaustive over positions; random
// probes over the size-window query surface.
void ExpectSnapshotMatchesFull(const DbSnapshot& snap, const ChunkDatabase& full,
                               Rng* rng, const std::string& context) {
  ASSERT_TRUE(snap.valid()) << context;
  ASSERT_EQ(snap.num_positions(), full.num_positions()) << context;
  ASSERT_EQ(snap.num_video_tracks(), full.num_video_tracks()) << context;
  ASSERT_EQ(snap.audio_sizes(), full.audio_sizes()) << context;
  for (int i = 0; i < full.num_positions(); ++i) {
    ASSERT_EQ(snap.MinSizeAt(i), full.MinSizeAt(i)) << context << " pos " << i;
    ASSERT_EQ(snap.MaxSizeAt(i), full.MaxSizeAt(i)) << context << " pos " << i;
    for (int t = 0; t < full.num_video_tracks(); ++t) {
      ASSERT_EQ(snap.VideoSize(t, i), full.VideoSize(t, i))
          << context << " track " << t << " pos " << i;
    }
  }
  const Bytes max_size =
      full.flat_sizes().empty() ? 4'000'000 : full.flat_sizes().back();
  for (int q = 0; q < 12; ++q) {
    const Bytes est = rng->UniformInt(1, max_size + 1000);
    const double k = (q % 2 == 0) ? 0.05 : rng->Uniform(0.0, 0.2);
    ASSERT_EQ(snap.VideoCandidates(est, k), full.VideoCandidates(est, k))
        << context << " estimate " << est << " k " << k;
    ASSERT_EQ(snap.HasVideoCandidate(est, k), full.HasVideoCandidate(est, k))
        << context << " estimate " << est << " k " << k;
    ASSERT_EQ(snap.AudioPossible(est, k), full.AudioPossible(est, k)) << context;
    ASSERT_EQ(snap.MatchingAudioTrack(est, k), full.MatchingAudioTrack(est, k)) << context;
    const Bytes lo = rng->UniformInt(0, max_size);
    const Bytes hi = rng->UniformInt(0, max_size + 1000);
    ASSERT_EQ(snap.VideoCandidatesInSizeRange(lo, hi),
              full.VideoCandidatesInSizeRange(lo, hi))
        << context << " window [" << lo << ", " << hi << "]";
  }
  // Degenerate windows: empty and INT64_MAX-adjacent.
  ASSERT_EQ(snap.VideoCandidatesInSizeRange(5, 1), full.VideoCandidatesInSizeRange(5, 1))
      << context;
  constexpr Bytes kMax = std::numeric_limits<Bytes>::max();
  ASSERT_EQ(snap.VideoCandidatesInSizeRange(kMax - 1, kMax),
            full.VideoCandidatesInSizeRange(kMax - 1, kMax))
      << context;
  ASSERT_EQ(snap.VideoCandidates(kMax, 0.05), full.VideoCandidates(kMax, 0.05)) << context;
}

// A small fixed two-track manifest for the targeted (non-fuzz) tests.
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

ManifestRefresh FixedRefresh(int tracks, int appended, Bytes base_size) {
  ManifestRefresh refresh;
  refresh.video_appends.resize(static_cast<size_t>(tracks));
  for (int t = 0; t < tracks; ++t) {
    for (int i = 0; i < appended; ++i) {
      refresh.video_appends[static_cast<size_t>(t)].push_back(
          Chunk{base_size + 100 * t + i, 2'000'000});
    }
  }
  return refresh;
}

// --- Incremental vs full-build byte identity ------------------------------

TEST(LiveDatabaseTest, IncrementalMatchesFullBuildOn120Schedules) {
  ThreadPool pool(3);
  const uint64_t schedules = testutil::ScheduleCount(120);
  for (uint64_t seed = 0; seed < schedules; ++seed) {
    Rng rng(seed);
    std::vector<Bytes> palette;
    Manifest m = RandomUniformManifest(&rng, &palette);
    const std::string ctx = "seed " + std::to_string(seed);

    LiveChunkDatabase::Options options;
    options.pool = rng.Chance(0.7) ? &pool : nullptr;
    rng.UniformInt(0, 3);  // unused draw: keeps each seed's schedule unchanged
    switch (rng.UniformInt(0, 2)) {
      case 0:
        options.compact_after_delta_chunks = 0;  // compact after every refresh
        break;
      case 1:
        options.compact_after_delta_chunks = static_cast<size_t>(rng.UniformInt(1, 12));
        break;
      default:
        options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
        break;
    }
    options.background_compaction = rng.Chance(0.5);
    LiveChunkDatabase live(m, options);

    {
      const ChunkDatabase full(&m);
      ASSERT_NO_FATAL_FAILURE(
          ExpectSnapshotMatchesFull(live.Acquire(), full, &rng, ctx + " initial"));
    }

    const int refreshes = static_cast<int>(rng.UniformInt(1, 6));
    for (int r = 0; r < refreshes; ++r) {
      const int appended = static_cast<int>(rng.UniformInt(1, 5));
      const ManifestRefresh refresh =
          RandomRefresh(&rng, m.num_video_tracks(), appended, &palette);
      ApplyToManifest(&m, refresh);
      const DbSnapshot snap = live.ApplyRefresh(refresh);
      const ChunkDatabase full(&m);
      const std::string step = ctx + " refresh " + std::to_string(r);
      // The snapshot the refresh returned matches a full build at this point
      // regardless of any compaction racing in the background.
      ASSERT_NO_FATAL_FAILURE(ExpectSnapshotMatchesFull(snap, full, &rng, step));
      if (rng.Chance(0.25)) {
        const DbSnapshot compacted = live.CompactNow();
        EXPECT_EQ(compacted.delta_chunks(), 0u) << step;
        ASSERT_NO_FATAL_FAILURE(
            ExpectSnapshotMatchesFull(compacted, full, &rng, step + " compacted"));
      }
      // After the (possibly background) compaction settles, the current
      // snapshot still matches the same ground truth.
      live.WaitForCompaction();
      ASSERT_NO_FATAL_FAILURE(
          ExpectSnapshotMatchesFull(live.Acquire(), full, &rng, step + " settled"));
    }
  }
}

TEST(LiveDatabaseTest, MergedQueriesAgreeAcrossSimdBackends) {
  const std::vector<simd::Backend> vector_backends = SupportedVectorBackends();
  if (vector_backends.empty()) {
    GTEST_SKIP() << "no vector backend on this build/CPU (scalar-only)";
  }
  BackendGuard guard;
  ThreadPool pool(2);
  for (uint64_t seed = 500; seed < 515; ++seed) {
    Rng rng(seed);
    std::vector<Bytes> palette;
    Manifest m = RandomUniformManifest(&rng, &palette);
    LiveChunkDatabase::Options options;
    options.pool = &pool;
    // Never auto-compact: keep a non-empty delta so the merged (base + delta)
    // query path is what the backends disagree on, if anything.
    options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
    LiveChunkDatabase live(m, options);
    for (int r = 0; r < 3; ++r) {
      const ManifestRefresh refresh =
          RandomRefresh(&rng, m.num_video_tracks(), 3, &palette);
      ApplyToManifest(&m, refresh);
      live.ApplyRefresh(refresh);
    }
    const DbSnapshot snap = live.Acquire();
    ASSERT_GT(snap.delta_chunks(), 0u);
    const ChunkDatabase full(&m);

    const Bytes max_size =
        full.flat_sizes().empty() ? 4'000'000 : full.flat_sizes().back();
    std::vector<std::pair<Bytes, double>> estimates;
    for (int i = 0; i < 16; ++i) {
      estimates.emplace_back(rng.UniformInt(1, max_size + 1000),
                             (i % 2 == 0) ? 0.05 : rng.Uniform(0.0, 0.2));
    }
    std::vector<std::pair<Bytes, Bytes>> windows;
    for (int i = 0; i < 8; ++i) {
      windows.emplace_back(rng.UniformInt(0, max_size), rng.UniformInt(0, max_size));
    }

    ASSERT_TRUE(simd::ForceBackend(simd::Backend::kScalar));
    std::vector<std::vector<ChunkRef>> scalar_by_estimate;
    std::vector<std::vector<ChunkRef>> scalar_by_window;
    for (const auto& [est, k] : estimates) {
      const auto got = snap.VideoCandidates(est, k);
      ASSERT_EQ(got, full.VideoCandidates(est, k))
          << "seed " << seed << " scalar estimate " << est << " k " << k;
      scalar_by_estimate.push_back(got);
    }
    for (const auto& [lo, hi] : windows) {
      const auto got = snap.VideoCandidatesInSizeRange(lo, hi);
      ASSERT_EQ(got, full.VideoCandidatesInSizeRange(lo, hi))
          << "seed " << seed << " scalar window [" << lo << ", " << hi << "]";
      scalar_by_window.push_back(got);
    }

    for (simd::Backend backend : vector_backends) {
      ASSERT_TRUE(simd::ForceBackend(backend));
      for (size_t i = 0; i < estimates.size(); ++i) {
        EXPECT_EQ(snap.VideoCandidates(estimates[i].first, estimates[i].second),
                  scalar_by_estimate[i])
            << "seed " << seed << " backend " << simd::BackendName(backend);
      }
      for (size_t i = 0; i < windows.size(); ++i) {
        EXPECT_EQ(snap.VideoCandidatesInSizeRange(windows[i].first, windows[i].second),
                  scalar_by_window[i])
            << "seed " << seed << " backend " << simd::BackendName(backend);
      }
    }
  }
}

// --- Snapshot pinning (RCU reader semantics) ------------------------------

TEST(LiveDatabaseTest, PinnedSnapshotsSurvivePublishesAndCompaction) {
  Rng rng(77);
  Manifest m = SmallManifest(8);
  LiveChunkDatabase::Options options;
  options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
  LiveChunkDatabase live(m, options);

  const DbSnapshot pinned0 = live.Acquire();
  const Manifest at0 = m;

  const ManifestRefresh r1 = FixedRefresh(2, 3, 5000);
  ApplyToManifest(&m, r1);
  const DbSnapshot pinned1 = live.ApplyRefresh(r1);
  const Manifest at1 = m;

  const ManifestRefresh r2 = FixedRefresh(2, 2, 9000);
  ApplyToManifest(&m, r2);
  live.ApplyRefresh(r2);
  live.CompactNow();

  // Every pinned handle still answers for exactly its version, even though
  // two publishes and a compaction happened after it was acquired.
  const ChunkDatabase full0(&at0);
  const ChunkDatabase full1(&at1);
  const ChunkDatabase full2(&m);
  ASSERT_NO_FATAL_FAILURE(ExpectSnapshotMatchesFull(pinned0, full0, &rng, "pinned epoch 0"));
  ASSERT_NO_FATAL_FAILURE(ExpectSnapshotMatchesFull(pinned1, full1, &rng, "pinned epoch 1"));
  ASSERT_NO_FATAL_FAILURE(ExpectSnapshotMatchesFull(live.Acquire(), full2, &rng, "current"));
  EXPECT_LT(pinned0.epoch(), pinned1.epoch());
  EXPECT_LT(pinned1.epoch(), live.Acquire().epoch());
}

TEST(LiveDatabaseTest, EpochAndDeltaAccounting) {
  Manifest m = SmallManifest(4);
  LiveChunkDatabase::Options options;
  options.compact_after_delta_chunks = std::numeric_limits<size_t>::max();
  LiveChunkDatabase live(m, options);
  EXPECT_EQ(live.epoch(), 0u);
  EXPECT_EQ(live.delta_chunks(), 0u);
  EXPECT_EQ(live.num_positions(), 4);

  const DbSnapshot s1 = live.ApplyRefresh(FixedRefresh(2, 3, 5000));
  EXPECT_EQ(s1.epoch(), 1u);
  EXPECT_EQ(s1.delta_chunks(), 6u);  // 3 positions x 2 tracks
  EXPECT_EQ(s1.num_positions(), 7);

  // A zero-append refresh publishes nothing: same epoch, same state.
  ManifestRefresh empty;
  empty.video_appends.assign(2, {});
  const DbSnapshot s_same = live.ApplyRefresh(empty);
  EXPECT_TRUE(s_same.SameStateAs(s1));
  EXPECT_EQ(live.epoch(), 1u);

  const DbSnapshot s2 = live.CompactNow();
  EXPECT_EQ(s2.delta_chunks(), 0u);
  EXPECT_EQ(s2.num_positions(), 7);
  EXPECT_GT(s2.epoch(), s1.epoch());

  // Compacting an already-compacted database is a no-op.
  const DbSnapshot s3 = live.CompactNow();
  EXPECT_TRUE(s3.SameStateAs(s2));
}

// --- Input validation ------------------------------------------------------

TEST(LiveDatabaseTest, RejectsRaggedInitialManifest) {
  Manifest m = SmallManifest(4);
  m.video_tracks[1].chunks.pop_back();  // 4 vs 3 positions
  EXPECT_THROW(LiveChunkDatabase{m}, std::invalid_argument);
}

TEST(LiveDatabaseTest, RejectsBadRefreshesAndStaysUnchanged) {
  Manifest m = SmallManifest(4);
  LiveChunkDatabase live(m);
  const DbSnapshot before = live.Acquire();

  ManifestRefresh wrong_tracks;
  wrong_tracks.video_appends.resize(3);  // database has 2 video tracks
  EXPECT_THROW(live.ApplyRefresh(wrong_tracks), std::invalid_argument);

  ManifestRefresh ragged;
  ragged.video_appends.resize(2);
  ragged.video_appends[0].push_back(Chunk{5000, 2'000'000});
  ragged.video_appends[0].push_back(Chunk{5001, 2'000'000});
  ragged.video_appends[1].push_back(Chunk{6000, 2'000'000});
  EXPECT_THROW(live.ApplyRefresh(ragged), std::invalid_argument);

  // A failed refresh must not have published or mutated anything.
  EXPECT_TRUE(live.Acquire().SameStateAs(before));
  EXPECT_EQ(live.epoch(), 0u);
  EXPECT_EQ(live.num_positions(), 4);
}

// --- Concurrent-reader hammer (TSan target) --------------------------------

TEST(LiveDatabaseTest, ConcurrentReadersHammerWriterAndCompactions) {
  ThreadPool pool(3);
  Manifest m = SmallManifest(8);
  LiveChunkDatabase::Options options;
  options.pool = &pool;
  options.compact_after_delta_chunks = 16;
  options.background_compaction = true;
  LiveChunkDatabase live(m, options);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&live, &stop, i] {
      Rng rng(static_cast<uint64_t>(1000 + i));
      while (!stop.load(std::memory_order_relaxed)) {
        const DbSnapshot snap = live.Acquire();
        const int positions = snap.num_positions();
        const int tracks = snap.num_video_tracks();
        // Invariants of one pinned version, checked while the writer keeps
        // publishing: per-position min/max bracket every track's size, and
        // every candidate a window query returns really has a size inside
        // the window at this version.
        const int p = static_cast<int>(rng.UniformInt(0, positions - 1));
        const Bytes mn = snap.MinSizeAt(p);
        const Bytes mx = snap.MaxSizeAt(p);
        EXPECT_LE(mn, mx);
        for (int t = 0; t < tracks; ++t) {
          const Bytes s = snap.VideoSize(t, p);
          EXPECT_GE(s, mn);
          EXPECT_LE(s, mx);
        }
        const Bytes lo = rng.UniformInt(0, 6000);
        const Bytes hi = lo + rng.UniformInt(0, 4000);
        for (const ChunkRef& c : snap.VideoCandidatesInSizeRange(lo, hi)) {
          const Bytes s = snap.VideoSize(c.track, c.index);
          EXPECT_GE(s, lo);
          EXPECT_LE(s, hi);
          EXPECT_LT(c.index, snap.num_positions());
        }
        EXPECT_EQ(snap.num_positions(), positions);  // the handle never moves
      }
    });
  }

  uint64_t expected_epoch_floor = 0;
  for (int r = 0; r < 120; ++r) {
    const DbSnapshot snap = live.ApplyRefresh(FixedRefresh(2, 2, 5000 + 10 * r));
    EXPECT_GT(snap.epoch(), expected_epoch_floor);
    expected_epoch_floor = snap.epoch();
    if (r % 37 == 36) {
      const DbSnapshot compacted = live.CompactNow();
      EXPECT_EQ(compacted.delta_chunks(), 0u);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) {
    t.join();
  }
  live.WaitForCompaction();

  // After the dust settles the result is still byte-identical to a full
  // build of the final manifest.
  Manifest final_manifest = SmallManifest(8);
  for (int r = 0; r < 120; ++r) {
    ApplyToManifest(&final_manifest, FixedRefresh(2, 2, 5000 + 10 * r));
  }
  const ChunkDatabase full(&final_manifest);
  Rng rng(4242);
  ASSERT_NO_FATAL_FAILURE(
      ExpectSnapshotMatchesFull(live.Acquire(), full, &rng, "post-hammer"));
}

}  // namespace
}  // namespace csi::infer
