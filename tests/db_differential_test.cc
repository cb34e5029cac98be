// Property-based differential tests for the ChunkDatabase build and the SIMD
// size-window scan.
//
// Two identities are locked in here:
//   1. Build identity: for any manifest the flat index equals an oracle
//      computed in the test: every (chunk size, PackRef(t, i)) pair read
//      straight from the manifest, std::sort-ed. The order (size, packed ref)
//      is a strict total order because packed refs are unique, so the oracle
//      pins every tie.
//   2. Query identity: for any (estimate, k) or [lo, hi] window — including
//      empty and INT64_MAX-adjacent ones — every SIMD backend returns the
//      same candidates as the scalar path.
//
// Both properties are exercised on ~200 seeded random VBR manifests plus a
// battery of hand-written edge cases (zero-chunk tracks, single-chunk videos,
// duplicate sizes across tracks).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/csi/chunk_database.h"
#include "src/csi/db_snapshot.h"
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

// A random VBR encoding ladder. Sizes are drawn to collide often (duplicate
// sizes within and across tracks) because ties are exactly where a sort
// without the packed-ref tiebreak would diverge from the oracle. Track/position counts stay far inside
// the PackRef limits (track < 4096, index < 2^20).
Manifest RandomManifest(Rng* rng) {
  Manifest m;
  m.asset_id = "fuzz";
  m.host = "cdn.fuzz.example";
  const int tracks = static_cast<int>(rng->UniformInt(1, 6));
  // Occasionally zero positions: a manifest with no chunks at all.
  const int positions =
      rng->Chance(0.05) ? 0 : static_cast<int>(rng->UniformInt(1, 40));
  std::vector<Bytes> palette;  // shared across tracks to force duplicates
  for (int t = 0; t < tracks; ++t) {
    Track track;
    track.name = "v" + std::to_string(t);
    track.type = MediaType::kVideo;
    track.nominal_bitrate = (t + 1) * 1'000'000;
    for (int i = 0; i < positions; ++i) {
      Bytes size;
      if (!palette.empty() && rng->Chance(0.35)) {
        size = palette[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(palette.size()) - 1))];
      } else {
        size = rng->UniformInt(1, 4'000'000);
        palette.push_back(size);
      }
      track.chunks.push_back(Chunk{size, 2'000'000});
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

// The flat index the build must produce, computed without the database:
// every video chunk's (size, PackRef(t, i)) read from the manifest, sorted.
void ExpectMatchesOracle(const Manifest& m, const ChunkDatabase& db,
                         const std::string& context) {
  std::vector<std::pair<Bytes, uint32_t>> oracle;
  for (size_t t = 0; t < m.video_tracks.size(); ++t) {
    const std::vector<Chunk>& chunks = m.video_tracks[t].chunks;
    for (size_t i = 0; i < chunks.size(); ++i) {
      oracle.emplace_back(chunks[i].size,
                          ChunkDatabase::PackRef(static_cast<int>(t), static_cast<int>(i)));
    }
  }
  std::sort(oracle.begin(), oracle.end());
  std::vector<Bytes> sizes;
  std::vector<uint32_t> refs;
  for (const auto& [size, ref] : oracle) {
    sizes.push_back(size);
    refs.push_back(ref);
  }
  ASSERT_EQ(db.flat_sizes(), sizes) << context;
  ASSERT_EQ(db.flat_packed_refs(), refs) << context;
}

// --- Build identity -------------------------------------------------------

TEST(DbDifferentialTest, BuildMatchesSortedOracleOn200RandomManifests) {
  const uint64_t schedules = testutil::ScheduleCount(200);
  for (uint64_t seed = 0; seed < schedules; ++seed) {
    Rng rng(seed);
    const Manifest m = RandomManifest(&rng);
    const ChunkDatabase db(&m);
    ExpectMatchesOracle(m, db, "seed " + std::to_string(seed));
  }
}

TEST(DbDifferentialTest, FlatIndexIsSortedWithUniqueRefs) {
  Rng rng(42);
  const Manifest m = RandomManifest(&rng);
  const ChunkDatabase db(&m);
  const auto& sizes = db.flat_sizes();
  const auto& refs = db.flat_packed_refs();
  ASSERT_EQ(sizes.size(), refs.size());
  for (size_t i = 1; i < sizes.size(); ++i) {
    ASSERT_LE(sizes[i - 1], sizes[i]);
    if (sizes[i - 1] == sizes[i]) {
      ASSERT_LT(refs[i - 1], refs[i]);  // strict: packed refs are unique
    }
  }
}

// --- Build edge cases -----------------------------------------------------

TEST(DbDifferentialTest, ZeroChunkTracksProduceEmptyIndex) {
  Manifest m;
  m.asset_id = "empty";
  Track t;
  t.name = "v0";
  t.type = MediaType::kVideo;
  m.video_tracks.push_back(t);
  m.video_tracks.push_back(t);
  const ChunkDatabase db(&m);
  ExpectMatchesOracle(m, db, "zero-chunk tracks");
  EXPECT_TRUE(db.flat_sizes().empty());
  EXPECT_TRUE(db.VideoCandidates(1000, 0.05).empty());
  EXPECT_FALSE(db.HasVideoCandidate(1000, 0.05));
}

TEST(DbDifferentialTest, SingleChunkVideo) {
  Manifest m;
  m.asset_id = "single";
  Track t;
  t.name = "v0";
  t.type = MediaType::kVideo;
  t.chunks.push_back(Chunk{1000, 2'000'000});
  m.video_tracks.push_back(t);
  const ChunkDatabase db(&m);
  ExpectMatchesOracle(m, db, "single chunk");
  ASSERT_EQ(db.flat_sizes().size(), 1u);
  EXPECT_TRUE(db.HasVideoCandidate(1000, 0.0));
  EXPECT_EQ(db.VideoCandidates(1000, 0.05),
            (std::vector<ChunkRef>{{MediaType::kVideo, 0, 0}}));
  EXPECT_TRUE(db.VideoCandidates(999, 0.0).empty());
}

TEST(DbDifferentialTest, DuplicateSizesAcrossTracksKeepDeterministicOrder) {
  // Every chunk has the same size: the index order is decided purely by the
  // packed-ref tiebreak.
  Manifest m;
  m.asset_id = "dups";
  for (int t = 0; t < 5; ++t) {
    Track track;
    track.name = "v" + std::to_string(t);
    track.type = MediaType::kVideo;
    for (int i = 0; i < 17; ++i) {
      track.chunks.push_back(Chunk{7777, 2'000'000});
    }
    m.video_tracks.push_back(std::move(track));
  }
  const ChunkDatabase db(&m);
  ExpectMatchesOracle(m, db, "all-duplicate");
  const auto& refs = db.flat_packed_refs();
  ASSERT_TRUE(std::is_sorted(refs.begin(), refs.end()));
  EXPECT_EQ(db.VideoCandidatesInSizeRange(7777, 7777).size(), 5u * 17u);
}

// --- Query identity: scalar vs SIMD ---------------------------------------

TEST(DbDifferentialTest, ScalarAndSimdQueriesAgreeOnRandomWindows) {
  const std::vector<simd::Backend> vector_backends = SupportedVectorBackends();
  if (vector_backends.empty()) {
    GTEST_SKIP() << "no vector backend on this build/CPU (scalar-only)";
  }
  BackendGuard guard;
  for (uint64_t seed = 1000; seed < 1060; ++seed) {
    Rng rng(seed);
    const Manifest m = RandomManifest(&rng);
    const ChunkDatabase db(&m);
    const Bytes max_size =
        db.flat_sizes().empty() ? 4'000'000 : db.flat_sizes().back();

    // Randomized probes: in-range estimates, the paper's k values, empty
    // windows (lo > hi), and INT64_MAX-adjacent estimates.
    std::vector<std::pair<Bytes, double>> estimates;
    for (int i = 0; i < 24; ++i) {
      const double k = (i % 3 == 0) ? 0.01 : (i % 3 == 1) ? 0.05 : rng.Uniform(0.0, 0.2);
      estimates.emplace_back(rng.UniformInt(1, max_size + 1000), k);
    }
    estimates.emplace_back(std::numeric_limits<Bytes>::max(), 0.05);
    estimates.emplace_back(std::numeric_limits<Bytes>::max() - 1, 0.01);
    std::vector<std::pair<Bytes, Bytes>> windows;
    for (int i = 0; i < 12; ++i) {
      windows.emplace_back(rng.UniformInt(0, max_size), rng.UniformInt(0, max_size));
    }
    windows.emplace_back(std::numeric_limits<Bytes>::max() - 1,
                         std::numeric_limits<Bytes>::max());
    windows.emplace_back(5, 1);  // deliberately empty

    ASSERT_TRUE(simd::ForceBackend(simd::Backend::kScalar));
    std::vector<std::vector<ChunkRef>> scalar_by_estimate;
    std::vector<bool> scalar_has;
    for (const auto& [est, k] : estimates) {
      scalar_by_estimate.push_back(db.VideoCandidates(est, k));
      scalar_has.push_back(db.HasVideoCandidate(est, k));
    }
    std::vector<std::vector<ChunkRef>> scalar_by_window;
    for (const auto& [lo, hi] : windows) {
      scalar_by_window.push_back(db.VideoCandidatesInSizeRange(lo, hi));
    }

    for (simd::Backend backend : vector_backends) {
      ASSERT_TRUE(simd::ForceBackend(backend));
      for (size_t i = 0; i < estimates.size(); ++i) {
        const auto& [est, k] = estimates[i];
        EXPECT_EQ(db.VideoCandidates(est, k), scalar_by_estimate[i])
            << "seed " << seed << " backend " << simd::BackendName(backend)
            << " estimate " << est << " k " << k;
        EXPECT_EQ(db.HasVideoCandidate(est, k), scalar_has[i])
            << "seed " << seed << " backend " << simd::BackendName(backend);
      }
      for (size_t i = 0; i < windows.size(); ++i) {
        EXPECT_EQ(db.VideoCandidatesInSizeRange(windows[i].first, windows[i].second),
                  scalar_by_window[i])
            << "seed " << seed << " backend " << simd::BackendName(backend)
            << " window [" << windows[i].first << ", " << windows[i].second << "]";
      }
    }
  }
}

// --- Count kernels vs scalar reference ------------------------------------

size_t RefCountBelow(const std::vector<int64_t>& v, int64_t bound) {
  return static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [&](int64_t x) { return x < bound; }));
}

size_t RefCountAtOrBelow(const std::vector<int64_t>& v, int64_t bound) {
  return static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [&](int64_t x) { return x <= bound; }));
}

TEST(DbDifferentialTest, CountKernelsMatchScalarReference) {
  BackendGuard guard;
  std::vector<simd::Backend> backends = SupportedVectorBackends();
  backends.push_back(simd::Backend::kScalar);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(7);
  // Lengths cover n = 0, sub-lane-width runs, and odd tails past every lane
  // width in use (2, 4).
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 17u, 33u, 64u, 67u}) {
    std::vector<int64_t> data(n);
    for (auto& x : data) {
      switch (rng.UniformInt(0, 4)) {
        case 0: x = kMin; break;
        case 1: x = kMax; break;
        case 2: x = rng.UniformInt(-5, 5); break;
        default: x = rng.NextU64() >> 1; break;  // large positive
      }
    }
    std::vector<int64_t> bounds = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
    for (int i = 0; i < 8; ++i) {
      bounds.push_back(static_cast<int64_t>(rng.NextU64()));
    }
    for (int64_t bound : bounds) {
      const size_t want_below = RefCountBelow(data, bound);
      const size_t want_at_or_below = RefCountAtOrBelow(data, bound);
      for (simd::Backend backend : backends) {
        ASSERT_TRUE(simd::ForceBackend(backend));
        EXPECT_EQ(simd::CountBelow(data.data(), n, bound), want_below)
            << simd::BackendName(backend) << " n=" << n << " bound=" << bound;
        EXPECT_EQ(simd::CountAtOrBelow(data.data(), n, bound), want_at_or_below)
            << simd::BackendName(backend) << " n=" << n << " bound=" << bound;
      }
    }
  }
}

TEST(DbDifferentialTest, CountKernelsOnSortedRunsMatchBinarySearch) {
  BackendGuard guard;
  std::vector<simd::Backend> backends = SupportedVectorBackends();
  backends.push_back(simd::Backend::kScalar);
  Rng rng(11);
  std::vector<int64_t> data(129);
  for (auto& x : data) {
    x = rng.UniformInt(0, 1000);
  }
  std::sort(data.begin(), data.end());
  for (int64_t bound : {-1, 0, 1, 499, 500, 501, 999, 1000, 1001}) {
    const auto lower = static_cast<size_t>(
        std::lower_bound(data.begin(), data.end(), bound) - data.begin());
    const auto upper = static_cast<size_t>(
        std::upper_bound(data.begin(), data.end(), bound) - data.begin());
    for (simd::Backend backend : backends) {
      ASSERT_TRUE(simd::ForceBackend(backend));
      EXPECT_EQ(simd::CountBelow(data.data(), data.size(), bound), lower);
      EXPECT_EQ(simd::CountAtOrBelow(data.data(), data.size(), bound), upper);
    }
  }
}

}  // namespace
}  // namespace csi::infer
