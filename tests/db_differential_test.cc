// Property-based differential tests for the ChunkDatabase build and its
// size-window queries.
//
// Two identities are locked in here:
//   1. Build identity: for any manifest the flat index equals an oracle
//      computed in the test: every (chunk size, PackRef(t, i)) pair read
//      straight from the manifest, std::sort-ed. The order (size, packed ref)
//      is a strict total order because packed refs are unique, so the oracle
//      pins every tie.
//   2. Query identity: for any (estimate, k) or [lo, hi] window — including
//      empty and INT64_MAX-adjacent ones — VideoCandidatesInSizeRange,
//      VideoCandidates and HasVideoCandidate equal a linear filter over the
//      manifest.
//
// Both properties are exercised on seeded random VBR manifests
// (CSI_TEST_SCHEDULES raises the counts) plus a battery of hand-written edge
// cases (zero-chunk tracks, single-chunk videos, duplicate sizes across
// tracks).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
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

// A random VBR encoding ladder. Sizes are drawn to collide often (duplicate
// sizes within and across tracks) because ties are exactly where a sort
// without the packed-ref tiebreak would diverge from the oracle.
// Track/position counts stay far inside the PackRef limits (track < 4096,
// index < 2^20).
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

// --- Query identity: database vs linear filter -----------------------------

// Every video chunk with size in [lo, hi], found by walking the manifest, in
// flat-index order: ascending size, ties by track then index.
std::vector<ChunkRef> LinearBySize(const Manifest& m, Bytes lo, Bytes hi) {
  std::vector<ChunkRef> out;
  for (size_t t = 0; t < m.video_tracks.size(); ++t) {
    const std::vector<Chunk>& chunks = m.video_tracks[t].chunks;
    for (size_t i = 0; i < chunks.size(); ++i) {
      if (chunks[i].size >= lo && chunks[i].size <= hi) {
        out.push_back(ChunkRef{MediaType::kVideo, static_cast<int>(t), static_cast<int>(i)});
      }
    }
  }
  std::sort(out.begin(), out.end(), [&m](const ChunkRef& a, const ChunkRef& b) {
    return std::make_tuple(m.SizeOf(a), a.track, a.index) <
           std::make_tuple(m.SizeOf(b), b.track, b.index);
  });
  return out;
}

// LinearBySize for Property (1) in VideoCandidates order: track, then size,
// then index. The lower bound is the documented ceil(S~ / (1 + k)).
std::vector<ChunkRef> LinearCandidates(const Manifest& m, Bytes estimated, double k) {
  std::vector<ChunkRef> out =
      LinearBySize(m, ChunkDatabase::AdmissibleLow(estimated, k), estimated);
  std::stable_sort(out.begin(), out.end(),
                   [](const ChunkRef& a, const ChunkRef& b) { return a.track < b.track; });
  return out;
}

TEST(DbDifferentialTest, QueriesMatchLinearFilterOnRandomManifests) {
  constexpr Bytes kMax = std::numeric_limits<Bytes>::max();
  const uint64_t schedules = testutil::ScheduleCount(60);
  for (uint64_t seed = 1000; seed < 1000 + schedules; ++seed) {
    Rng rng(seed);
    const Manifest m = RandomManifest(&rng);
    const ChunkDatabase db(&m);
    const std::vector<Bytes>& sizes = db.flat_sizes();
    const Bytes max_size = sizes.empty() ? 4'000'000 : sizes.back();
    auto some_size = [&]() {
      return sizes[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(sizes.size()) - 1))];
    };

    // Estimates: in range, exactly a chunk size (hi lands on an entry), and
    // INT64_MAX-adjacent; k cycles through the paper's 0.01, 0.05 and random.
    std::vector<std::pair<Bytes, double>> estimates;
    for (int i = 0; i < 24; ++i) {
      const double k = (i % 3 == 0) ? 0.01 : (i % 3 == 1) ? 0.05 : rng.Uniform(0.0, 0.2);
      const Bytes est =
          (!sizes.empty() && i % 2 == 0) ? some_size() : rng.UniformInt(1, max_size + 1000);
      estimates.emplace_back(est, k);
    }
    estimates.emplace_back(kMax, 0.05);
    estimates.emplace_back(kMax - 1, 0.01);

    // Windows: random (about half have lo > hi, so they are empty), both ends
    // on chunk sizes (duplicates included), INT64_MAX-adjacent, and empty.
    std::vector<std::pair<Bytes, Bytes>> windows;
    for (int i = 0; i < 12; ++i) {
      windows.emplace_back(rng.UniformInt(0, max_size), rng.UniformInt(0, max_size));
      if (!sizes.empty()) {
        windows.emplace_back(some_size(), some_size());
      }
    }
    windows.emplace_back(kMax - 1, kMax);
    windows.emplace_back(0, kMax);
    windows.emplace_back(5, 1);

    for (const auto& [est, k] : estimates) {
      const std::vector<ChunkRef> want = LinearCandidates(m, est, k);
      EXPECT_EQ(db.VideoCandidates(est, k), want)
          << "seed " << seed << " estimate " << est << " k " << k;
      EXPECT_EQ(db.HasVideoCandidate(est, k), !want.empty())
          << "seed " << seed << " estimate " << est << " k " << k;
    }
    for (const auto& [lo, hi] : windows) {
      EXPECT_EQ(db.VideoCandidatesInSizeRange(lo, hi), LinearBySize(m, lo, hi))
          << "seed " << seed << " window [" << lo << ", " << hi << "]";
    }
  }
}

}  // namespace
}  // namespace csi::infer
