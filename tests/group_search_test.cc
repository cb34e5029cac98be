#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/csi/audit.h"
#include "src/csi/group_search.h"
#include "src/media/manifest.h"
#include "tests/naive_chain_oracle.h"
#include "tests/test_env.h"

namespace csi::infer {
namespace {

// 3 video tracks x 8 positions, distinct sizes, 1 CBR audio track of 60000.
media::Manifest GroupManifest() {
  media::Manifest m;
  m.asset_id = "grp";
  m.host = "cdn.example";
  for (int t = 0; t < 3; ++t) {
    media::Track track;
    track.name = "T" + std::to_string(t);
    track.nominal_bitrate = (t + 1) * 600 * kKbps;
    for (int i = 0; i < 8; ++i) {
      // Non-linear spacing so distinct track combinations never sum equal.
      track.chunks.push_back(media::Chunk{100000 * (1 << (2 * t)) + 7919 * i + 997 * t * i,
                                          5 * kUsPerSec});
    }
    m.video_tracks.push_back(track);
  }
  media::Track audio;
  audio.type = media::MediaType::kAudio;
  audio.name = "audio";
  for (int i = 0; i < 8; ++i) {
    audio.chunks.push_back(media::Chunk{60000, 5 * kUsPerSec});
  }
  m.audio_tracks.push_back(audio);
  return m;
}

TrafficGroup MakeGroup(int requests, Bytes estimated, TimeUs start = 0) {
  TrafficGroup g;
  for (int i = 0; i < requests; ++i) {
    g.requests.push_back(DetectedRequest{start, false});
  }
  g.start_time = start;
  g.end_time = start + 5 * kUsPerSec;
  g.estimated_total = estimated;
  return g;
}

// Estimate with small overhead, inside the k = 5% window.
Bytes Est(Bytes true_total) { return true_total + true_total / 200; }  // +0.5%

GroupSearchConfig Config() {
  GroupSearchConfig config;
  config.k = 0.05;
  config.expected_overhead = 0.005;
  config.expected_fixed_overhead = 0;
  return config;
}

TEST(EnumerateGroupCandidates, SingleVideoPlusAudioPair) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  // Group: video (t1, i3) + one audio chunk.
  const Bytes truth = db.VideoSize(1, 3) + 60000;
  bool truncated = false;
  const auto candidates =
      EnumerateGroupCandidates(MakeGroup(2, Est(truth)), db, Config(), {}, 3, 3, &truncated);
  ASSERT_FALSE(candidates.empty());
  // The top-ranked candidate is the ground truth.
  EXPECT_EQ(candidates[0].video_start, 3);
  ASSERT_EQ(candidates[0].tracks.size(), 1u);
  EXPECT_EQ(candidates[0].tracks[0], 1);
  EXPECT_EQ(candidates[0].audio_count, 1);
}

TEST(EnumerateGroupCandidates, StartRangeConstrains) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  const Bytes truth = db.VideoSize(0, 5) + 60000;
  bool truncated = false;
  // Range [5,5] finds it; range [0,2] cannot.
  EXPECT_FALSE(
      EnumerateGroupCandidates(MakeGroup(2, Est(truth)), db, Config(), {}, 5, 5, &truncated)
          .empty());
  const auto wrong_range =
      EnumerateGroupCandidates(MakeGroup(2, Est(truth)), db, Config(), {}, 0, 2, &truncated);
  for (const auto& c : wrong_range) {
    EXPECT_TRUE(c.wildcard || c.video_start < 0 || (c.video_start >= 0 && c.video_start <= 2));
  }
}

TEST(EnumerateGroupCandidates, MultiChunkRun) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  // Videos (t0,i2),(t2,i3),(t1,i4) + 3 audio.
  const Bytes truth = db.VideoSize(0, 2) + db.VideoSize(2, 3) + db.VideoSize(1, 4) + 3 * 60000;
  bool truncated = false;
  const auto candidates =
      EnumerateGroupCandidates(MakeGroup(6, Est(truth)), db, Config(), {}, 2, 2, &truncated);
  ASSERT_FALSE(candidates.empty());
  bool found = false;
  for (const auto& c : candidates) {
    if (!c.wildcard && c.video_start == 2 && c.tracks == std::vector<int>{0, 2, 1} &&
        c.audio_count == 3) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EnumerateGroupCandidates, AudioOnlyGroup) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  bool truncated = false;
  const auto candidates =
      EnumerateGroupCandidates(MakeGroup(2, Est(120000)), db, Config(), {}, 0, 7, &truncated);
  bool found = false;
  for (const auto& c : candidates) {
    if (!c.wildcard && c.video_start < 0 && c.audio_count == 2) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EnumerateGroupCandidates, OversizedGroupBecomesWildcard) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  GroupSearchConfig config = Config();
  config.max_group_requests = 4;
  bool truncated = false;
  const auto candidates =
      EnumerateGroupCandidates(MakeGroup(8, 10 * kMB), db, config, {}, 0, 7, &truncated);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_TRUE(candidates[0].wildcard);
}

TEST(EnumerateGroupCandidates, UnexplainableGroupBecomesWildcard) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  bool truncated = false;
  const auto candidates =
      EnumerateGroupCandidates(MakeGroup(1, 33), db, Config(), {}, 0, 7, &truncated);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_TRUE(candidates[0].wildcard);
}

TEST(EnumerateGroupCandidates, PhantomRequestDeficit) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  // 3 requests but only 2 objects (one request was a retransmission).
  const Bytes truth = db.VideoSize(1, 0) + 60000;
  GroupSearchConfig config = Config();
  config.max_phantom_requests = 1;
  bool truncated = false;
  const auto candidates =
      EnumerateGroupCandidates(MakeGroup(3, Est(truth)), db, config, {}, 0, 0, &truncated);
  bool found = false;
  for (const auto& c : candidates) {
    if (!c.wildcard && c.video_start == 0 && c.tracks.size() == 1 && c.audio_count == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EnumerateGroupCandidates, KnownOtherObjectConsumed) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  GroupSearchConfig config = Config();
  config.other_object_sizes = {25000};  // e.g. the manifest
  const Bytes truth = db.VideoSize(0, 0) + 25000;
  bool truncated = false;
  const auto candidates =
      EnumerateGroupCandidates(MakeGroup(2, Est(truth)), db, config, {}, 0, 0, &truncated);
  bool found = false;
  for (const auto& c : candidates) {
    if (!c.wildcard && c.video_start == 0 && c.other_count == 1 && c.audio_count == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EnumerateGroupCandidates, DisplayConstraintPrunesTracks) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  const Bytes truth = db.VideoSize(1, 3) + 60000;
  DisplayConstraints display;
  display[3] = 2;  // screen says track 2 at index 3 -> truth (track 1) pruned
  bool truncated = false;
  const auto candidates = EnumerateGroupCandidates(MakeGroup(2, Est(truth)), db, Config(),
                                                   display, 3, 3, &truncated);
  for (const auto& c : candidates) {
    if (!c.wildcard && c.video_start == 3 && !c.tracks.empty()) {
      EXPECT_EQ(c.tracks[0], 2);
    }
  }
}

TEST(SearchGroupSequences, ChainsGroupsContiguously) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  std::vector<TrafficGroup> groups;
  // Group 0: video i0 (t0) + audio; group 1: video i1,i2 (t1,t1) + 2 audio.
  groups.push_back(MakeGroup(2, Est(db.VideoSize(0, 0) + 60000), 0));
  groups.push_back(MakeGroup(
      4, Est(db.VideoSize(1, 1) + db.VideoSize(1, 2) + 2 * 60000), 10 * kUsPerSec));
  const auto result = SearchGroupSequences(groups, db, Config());
  ASSERT_FALSE(result.sequences.empty());
  // Top sequence is the ground truth.
  const auto& slots = result.sequences[0].slots;
  std::vector<std::pair<int, int>> video;
  for (const auto& s : slots) {
    if (s.kind == SlotKind::kVideo) {
      video.emplace_back(s.chunk.track, s.chunk.index);
    }
  }
  ASSERT_EQ(video.size(), 3u);
  EXPECT_EQ(video[0], (std::pair<int, int>{0, 0}));
  EXPECT_EQ(video[1], (std::pair<int, int>{1, 1}));
  EXPECT_EQ(video[2], (std::pair<int, int>{1, 2}));
  EXPECT_EQ(result.group_sizes, (std::vector<int>{2, 4}));
}

TEST(SearchGroupSequences, WildcardGroupWidensButChainRecovers) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  std::vector<TrafficGroup> groups;
  groups.push_back(MakeGroup(2, Est(db.VideoSize(0, 0) + 60000), 0));
  groups.push_back(MakeGroup(2, 12345, 10 * kUsPerSec));  // unexplainable
  // After a 2-request wildcard the next video index is in [1, 3]; this group
  // pins it back to 2.
  groups.push_back(MakeGroup(2, Est(db.VideoSize(2, 2) + 60000), 20 * kUsPerSec));
  const auto result = SearchGroupSequences(groups, db, Config());
  ASSERT_FALSE(result.sequences.empty());
  bool found_recovery = false;
  for (const auto& seq : result.sequences) {
    for (const auto& s : seq.slots) {
      if (s.kind == SlotKind::kVideo && s.chunk.index == 2 && s.chunk.track == 2) {
        found_recovery = true;
      }
    }
  }
  EXPECT_TRUE(found_recovery);
}

TEST(EnumerateGroupCandidates, ParallelPartitioningIsBitIdenticalToSerial) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  ThreadPool pool(8);
  GroupSearchConfig serial_config = Config();
  GroupSearchConfig parallel_config = Config();
  parallel_config.pool = &pool;
  // Sweep group shapes: single video, multi-chunk runs, audio-only, phantom
  // deficits — all over the full (unconditioned) start range.
  const std::vector<TrafficGroup> groups = {
      MakeGroup(1, Est(db.VideoSize(1, 3))),
      MakeGroup(2, Est(db.VideoSize(0, 5) + 60000)),
      MakeGroup(6, Est(db.VideoSize(0, 2) + db.VideoSize(2, 3) + db.VideoSize(1, 4) + 3 * 60000)),
      MakeGroup(2, Est(2 * 60000)),
      MakeGroup(3, Est(db.VideoSize(1, 0) + 60000)),
      MakeGroup(1, 33),  // unexplainable -> wildcard
  };
  for (size_t g = 0; g < groups.size(); ++g) {
    bool serial_truncated = false;
    bool parallel_truncated = false;
    const auto serial =
        EnumerateGroupCandidates(groups[g], db, serial_config, {}, 0, 7, &serial_truncated);
    const auto parallel = EnumerateGroupCandidates(groups[g], db, parallel_config, {}, 0, 7,
                                                   &parallel_truncated);
    EXPECT_EQ(serial, parallel) << "group " << g;
    EXPECT_EQ(serial_truncated, parallel_truncated) << "group " << g;
  }
}

TEST(EnumerateGroupCandidates, CandidateCapKeepsBestRankedDeterministically) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  GroupSearchConfig config = Config();
  config.max_candidates_per_group = 3;
  const Bytes truth = db.VideoSize(1, 3) + 60000;
  bool truncated = false;
  const auto capped =
      EnumerateGroupCandidates(MakeGroup(2, Est(truth)), db, config, {}, 0, 7, &truncated);
  ASSERT_LE(capped.size(), 3u);
  // The cap drops the worst-ranked candidates, so the ground truth survives.
  ASSERT_FALSE(capped.empty());
  EXPECT_EQ(capped[0].video_start, 3);
  ASSERT_EQ(capped[0].tracks.size(), 1u);
  EXPECT_EQ(capped[0].tracks[0], 1);
}

TEST(CandidateCost, GroundTruthRanksAheadOfImpostors) {
  const media::Manifest m = GroupManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  GroupSearchConfig config = Config();
  GroupCandidate truth;
  truth.video_start = 0;
  truth.tracks = {1};
  truth.audio_count = 1;
  truth.implied_total = db.VideoSize(1, 0) + 60000;
  GroupCandidate impostor = truth;
  impostor.tracks = {0};
  impostor.implied_total = db.VideoSize(0, 0) + 60000;
  const Bytes estimate = Est(truth.implied_total);
  EXPECT_LT(CandidateCost(truth, estimate, 2, config),
            CandidateCost(impostor, estimate, 2, config));
}

// --- Single-request groups: the non-MUX designs (Fig. 9a) ------------------
//
// InferenceEngine::Analyze turns every estimated exchange of a CH/SH/CQ
// capture into its own single-request group, so the chain below is the
// Fig. 9a layered graph: one layer per exchange, Property (1) per layer and
// Property (2) between consecutive video layers.

// 3 video tracks x 6 positions with well-separated sizes, 1 audio track.
media::Manifest ExchangeManifest() {
  media::Manifest m;
  m.asset_id = "exchanges";
  m.host = "cdn.example";
  for (int t = 0; t < 3; ++t) {
    media::Track track;
    track.name = "T" + std::to_string(t);
    track.nominal_bitrate = (t + 1) * 500 * kKbps;
    for (int i = 0; i < 6; ++i) {
      // Distinct sizes everywhere: 100k*(t+1) + 3k*i.
      track.chunks.push_back(media::Chunk{100000 * (t + 1) + 3000 * i, 5 * kUsPerSec});
    }
    m.video_tracks.push_back(track);
  }
  media::Track audio;
  audio.type = media::MediaType::kAudio;
  audio.name = "audio";
  for (int i = 0; i < 6; ++i) {
    audio.chunks.push_back(media::Chunk{50000, 5 * kUsPerSec});
  }
  m.audio_tracks.push_back(audio);
  return m;
}

// One single-request group per exchange estimate, built as Analyze builds
// them from its EstimatedExchange list.
std::vector<TrafficGroup> ExchangeGroups(const std::vector<Bytes>& estimates) {
  std::vector<TrafficGroup> groups;
  TimeUs t = 0;
  for (const Bytes estimate : estimates) {
    TrafficGroup g;
    g.requests.push_back(DetectedRequest{t, false});
    g.start_time = t;
    g.end_time = t + kUsPerSec;
    g.estimated_total = estimate;
    groups.push_back(std::move(g));
    t += 2 * kUsPerSec;
  }
  return groups;
}

// The engine's HTTPS search config (InferenceConfig defaults).
GroupSearchConfig HttpsConfig() {
  GroupSearchConfig config;
  config.k = 0.01;
  config.expected_overhead = 0.0015;
  config.expected_fixed_overhead = 180;
  return config;
}

// HTTPS estimate of a true size: +0.2%, inside the k = 1% window.
Bytes HttpsEst(Bytes true_size) { return true_size + true_size / 500; }

std::vector<std::pair<int, int>> VideoSlots(const InferredSequence& seq) {
  std::vector<std::pair<int, int>> video;
  for (const InferredSlot& slot : seq.slots) {
    if (slot.kind == SlotKind::kVideo) {
      video.emplace_back(slot.chunk.track, slot.chunk.index);
    }
  }
  return video;
}

TEST(SearchGroupSequences, ExchangesRecoverContiguousRunAcrossTracks) {
  const media::Manifest m = ExchangeManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  // Video: (t0,i1), (t2,i2), (t1,i3).
  const auto result = SearchGroupSequences(
      ExchangeGroups({HttpsEst(103000), HttpsEst(306000), HttpsEst(209000)}), db,
      HttpsConfig());
  ASSERT_EQ(result.sequences.size(), 1u);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(VideoSlots(result.sequences[0]),
            (std::vector<std::pair<int, int>>{{0, 1}, {2, 2}, {1, 3}}));
  EXPECT_EQ(result.group_sizes, (std::vector<int>{1, 1, 1}));
}

TEST(SearchGroupSequences, AudioExchangeBetweenVideoExchanges) {
  const media::Manifest m = ExchangeManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  // video i0, audio, video i1: the audio layer keeps the index range, so
  // Property (2) still links i0 to i1.
  const auto result = SearchGroupSequences(
      ExchangeGroups({HttpsEst(100000), HttpsEst(50000), HttpsEst(103000)}), db,
      HttpsConfig());
  ASSERT_EQ(result.sequences.size(), 1u);
  const auto& slots = result.sequences[0].slots;
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].kind, SlotKind::kVideo);
  EXPECT_EQ(slots[1].kind, SlotKind::kAudio);
  EXPECT_EQ(slots[2].kind, SlotKind::kVideo);
  EXPECT_EQ(slots[0].chunk.index, 0);
  EXPECT_EQ(slots[2].chunk.index, 1);
  // The audio index is anchored alongside the video run.
  EXPECT_EQ(slots[1].chunk.index, 0);
}

TEST(SearchGroupSequences, NonContiguousExchangesYieldNoCleanSequence) {
  const media::Manifest m = ExchangeManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  // (t2,i0) then (t0,i2): no contiguous reading exists, and no single chunk
  // explains both exchanges as one phantom-split object. The second exchange
  // degrades to a wildcard (an unidentified slot) instead of emptying the
  // output.
  const auto result = SearchGroupSequences(
      ExchangeGroups({HttpsEst(300000), HttpsEst(106000)}), db, HttpsConfig());
  ASSERT_EQ(result.sequences.size(), 1u);
  const auto& slots = result.sequences[0].slots;
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(VideoSlots(result.sequences[0]), (std::vector<std::pair<int, int>>{{2, 0}}));
  EXPECT_EQ(slots[1].kind, SlotKind::kOther);
}

TEST(SearchGroupSequences, CollidingTracksYieldFourSequences) {
  media::Manifest m = ExchangeManifest();
  // Tracks 0 and 1 collide at every position: two readings per exchange.
  for (size_t i = 0; i < 6; ++i) {
    m.video_tracks[1].chunks[i].size = m.video_tracks[0].chunks[i].size;
  }
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  const auto result = SearchGroupSequences(
      ExchangeGroups({HttpsEst(100000), HttpsEst(103000)}), db, HttpsConfig());
  // 2 track choices per slot, indexes fixed by contiguity: 4 sequences.
  ASSERT_EQ(result.sequences.size(), 4u);
  EXPECT_FALSE(result.truncated);
  for (const InferredSequence& seq : result.sequences) {
    const auto video = VideoSlots(seq);
    ASSERT_EQ(video.size(), 2u);
    EXPECT_EQ(video[0].second, 0);
    EXPECT_EQ(video[1].second, 1);
  }
}

TEST(SearchGroupSequences, SequenceCapReturnsExactlyTheCapAndTruncates) {
  media::Manifest m = ExchangeManifest();
  for (size_t i = 0; i < 6; ++i) {
    m.video_tracks[1].chunks[i].size = m.video_tracks[0].chunks[i].size;
    m.video_tracks[2].chunks[i].size = m.video_tracks[0].chunks[i].size;
  }
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  std::vector<Bytes> estimates;
  for (int i = 0; i < 5; ++i) {
    estimates.push_back(HttpsEst(100000 + 3000 * i));
  }
  GroupSearchConfig config = HttpsConfig();
  config.max_sequences = 10;  // 3^5 = 243 readings exist
  const auto result = SearchGroupSequences(ExchangeGroups(estimates), db, config);
  EXPECT_EQ(result.sequences.size(), 10u);
  EXPECT_TRUE(result.truncated);
}

TEST(SearchGroupSequences, ExchangeRunNeedNotStartAtIndexZero) {
  const media::Manifest m = ExchangeManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  // Only indexes 4, 5 downloaded (resumed playback).
  const auto result = SearchGroupSequences(
      ExchangeGroups({HttpsEst(112000), HttpsEst(115000)}), db, HttpsConfig());
  ASSERT_EQ(result.sequences.size(), 1u);
  EXPECT_EQ(VideoSlots(result.sequences[0]),
            (std::vector<std::pair<int, int>>{{0, 4}, {0, 5}}));
}

TEST(SearchGroupSequences, UnmatchedExchangesBecomeUnidentifiedSlots) {
  const media::Manifest m = ExchangeManifest();
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&m));
  // Neither exchange matches a video or audio chunk: each becomes a wildcard,
  // so the one sequence holds only unidentified slots.
  const auto result = SearchGroupSequences(ExchangeGroups({999, 777}), db, HttpsConfig());
  ASSERT_EQ(result.sequences.size(), 1u);
  ASSERT_EQ(result.sequences[0].slots.size(), 2u);
  for (const InferredSlot& slot : result.sequences[0].slots) {
    EXPECT_EQ(slot.kind, SlotKind::kOther);
  }
}

// --- Chain differential: SearchGroupSequences against the full-arena beam ---
//
// Seeded MUX-style instances over a manifest whose tracks 0 and 1 have
// identical chunk sizes, so every reading through one has an equal-cost twin
// through the other: exact cost ties inside the beam and at its 2,048 cut.
// Loose size windows (k up to 0.3) push some parents past the 768-per-parent
// cap and layers past the beam width; split objects exercise the merge repair
// and junk groups the wildcards.

struct ChainInstance {
  media::Manifest manifest;
  std::vector<TrafficGroup> groups;
  GroupSearchConfig config;
};

ChainInstance RandomChainInstance(uint64_t seed) {
  Rng rng(seed);
  ChainInstance inst;
  media::Manifest& m = inst.manifest;
  m.asset_id = "chain";
  m.host = "cdn.example";
  const int tracks = static_cast<int>(rng.UniformInt(3, 5));
  const int positions = static_cast<int>(rng.UniformInt(10, 16));
  for (int t = 0; t < tracks; ++t) {
    media::Track track;
    track.name = "T" + std::to_string(t);
    track.nominal_bitrate = (t + 1) * 500 * kKbps;
    for (int i = 0; i < positions; ++i) {
      const Bytes size = t == 1 ? m.video_tracks[0].chunks[static_cast<size_t>(i)].size
                                : 100000 * (t + 1) + rng.UniformInt(0, 40000);
      track.chunks.push_back(media::Chunk{size, 5 * kUsPerSec});
    }
    m.video_tracks.push_back(track);
  }
  media::Track audio;
  audio.type = media::MediaType::kAudio;
  audio.name = "audio";
  for (int i = 0; i < positions; ++i) {
    audio.chunks.push_back(media::Chunk{60000, 5 * kUsPerSec});
  }
  m.audio_tracks.push_back(audio);

  GroupSearchConfig& config = inst.config;
  config.k = std::vector<double>{0.02, 0.1, 0.3}[static_cast<size_t>(rng.UniformInt(0, 2))];
  config.expected_overhead = 0.005;
  config.expected_fixed_overhead = 0;
  config.enable_merge_repair = rng.UniformInt(0, 3) != 0;
  config.enable_wildcards = rng.UniformInt(0, 3) != 0;
  config.max_sequences = rng.UniformInt(0, 1) == 0 ? 512 : 8;

  // Ground truth: a random track per position from a random start.
  int index = static_cast<int>(rng.UniformInt(0, 2));
  TimeUs t = 0;
  auto video = [&](int i) {
    const int track = static_cast<int>(rng.UniformInt(0, tracks - 1));
    return m.video_tracks[static_cast<size_t>(track)].chunks[static_cast<size_t>(i)].size;
  };
  auto add = [&](int requests, Bytes truth) {
    TrafficGroup g = MakeGroup(requests, truth + truth / 200, t);
    inst.groups.push_back(std::move(g));
    t += 5 * kUsPerSec;
  };
  const int groups = static_cast<int>(rng.UniformInt(4, 7));
  while (static_cast<int>(inst.groups.size()) < groups && index < positions) {
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind <= 4) {  // a MUX group: a video run plus optional audio
      const int v = static_cast<int>(std::min<int64_t>(rng.UniformInt(1, 3), positions - index));
      const int a = static_cast<int>(rng.UniformInt(0, 1));
      Bytes truth = a * 60000;
      for (int j = 0; j < v; ++j) {
        truth += video(index + j);
      }
      index += v;
      add(v + a, truth);
    } else if (kind <= 6) {  // one object split into two single-request groups
      const Bytes truth = video(index++);
      const Bytes first = truth * rng.UniformInt(30, 70) / 100;
      add(1, first);
      add(1, truth - first);
    } else if (kind == 7) {  // junk: explains nothing
      add(1, 999);
    } else {
      add(1, video(index++));
    }
  }
  return inst;
}

void ExpectChainMatchesOracle(const ChainInstance& inst,
                              oracle::NaiveChainSearch::Coverage* coverage) {
  const DbSnapshot db(std::make_shared<const ChunkDatabase>(&inst.manifest));
  InferenceAudit want_audit;
  InferenceResult want;
  {
    AuditScope scope(&want_audit);
    oracle::NaiveChainSearch naive(inst.groups, db, inst.config, {});
    want = naive.Run();
    const auto& c = naive.coverage();
    coverage->capped_parents += c.capped_parents;
    coverage->beam_cuts += c.beam_cuts;
    coverage->boundary_ties += c.boundary_ties;
    coverage->beam_ties += c.beam_ties;
    coverage->merged_nodes += c.merged_nodes;
    coverage->wildcard_nodes += c.wildcard_nodes;
  }
  InferenceAudit got_audit;
  InferenceResult got;
  {
    AuditScope scope(&got_audit);
    got = SearchGroupSequences(inst.groups, db, inst.config);
  }
  ASSERT_EQ(got.sequences.size(), want.sequences.size());
  for (size_t i = 0; i < want.sequences.size(); ++i) {
    ASSERT_EQ(got.sequences[i], want.sequences[i]) << "sequence " << i;
  }
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.group_sizes, want.group_sizes);
  EXPECT_EQ(got_audit.chain_nodes, want_audit.chain_nodes);
  EXPECT_EQ(got_audit.has_best_cost, want_audit.has_best_cost);
  EXPECT_EQ(got_audit.best_cost, want_audit.best_cost);
  EXPECT_EQ(got_audit.has_runner_up_cost, want_audit.has_runner_up_cost);
  EXPECT_EQ(got_audit.runner_up_cost, want_audit.runner_up_cost);
  EXPECT_EQ(got_audit.enumerations, want_audit.enumerations);
  EXPECT_EQ(got_audit.candidates, want_audit.candidates);
}

TEST(ChainDifferential, MatchesFullArenaOracleOnSeededInstances) {
  oracle::NaiveChainSearch::Coverage coverage;
  const uint64_t rounds = testutil::ScheduleCount(80);
  for (uint64_t seed = 1; seed <= rounds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectChainMatchesOracle(RandomChainInstance(seed), &coverage);
    if (HasFatalFailure()) {
      return;
    }
  }
  // The sweep reached every case it exists for.
  EXPECT_GT(coverage.capped_parents, 0);
  EXPECT_GT(coverage.beam_cuts, 0);
  EXPECT_GT(coverage.boundary_ties, 0);
  EXPECT_GT(coverage.beam_ties, 0);
  EXPECT_GT(coverage.merged_nodes, 0);
  EXPECT_GT(coverage.wildcard_nodes, 0);
}

}  // namespace
}  // namespace csi::infer
