#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/common/stats.h"

#include "src/common/rng.h"
#include "src/media/encoder.h"
#include "src/media/ladder.h"
#include "src/media/manifest.h"
#include "src/media/scene_model.h"
#include "src/media/service_profiles.h"

namespace csi::media {
namespace {

EncoderConfig BaseConfig() {
  EncoderConfig config;
  config.ladder = DefaultVideoLadder();
  config.chunk_duration = 5 * kUsPerSec;
  return config;
}

TEST(Ladder, DefaultHasSixAscendingRungs) {
  const Ladder ladder = DefaultVideoLadder();
  ASSERT_EQ(ladder.size(), 6u);
  for (size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i].bitrate, ladder[i - 1].bitrate);
  }
  EXPECT_EQ(ladder.front().name, "144p");
  EXPECT_EQ(ladder.back().name, "1080p");
}

TEST(Ladder, GeometricSpacing) {
  const Ladder ladder = GeometricLadder(5, 200 * kKbps, 3200 * kKbps);
  ASSERT_EQ(ladder.size(), 5u);
  EXPECT_NEAR(ladder[0].bitrate, 200 * kKbps, 1.0);
  EXPECT_NEAR(ladder[4].bitrate, 3200 * kKbps, 1.0);
  // Constant ratio between rungs.
  const double r = ladder[1].bitrate / ladder[0].bitrate;
  for (size_t i = 2; i < ladder.size(); ++i) {
    EXPECT_NEAR(ladder[i].bitrate / ladder[i - 1].bitrate, r, 1e-6);
  }
}

TEST(SceneModel, MeanIsNormalized) {
  Rng rng(1);
  const auto c = GenerateComplexity(500, SceneModelConfig{}, rng);
  ASSERT_EQ(c.size(), 500u);
  double sum = 0;
  for (double v : c) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 500.0, 1.0, 1e-9);
}

TEST(SceneModel, AdjacentChunksCorrelated) {
  Rng rng(2);
  SceneModelConfig config;
  config.scene_change_prob = 0.05;
  const auto c = GenerateComplexity(2000, config, rng);
  // Lag-1 autocorrelation should be clearly positive (scene persistence).
  double mean = 1.0;
  double num = 0;
  double den = 0;
  for (size_t i = 0; i + 1 < c.size(); ++i) {
    num += (c[i] - mean) * (c[i + 1] - mean);
    den += (c[i] - mean) * (c[i] - mean);
  }
  EXPECT_GT(num / den, 0.3);
}

TEST(Encoder, ChunkCountMatchesDuration) {
  Rng rng(3);
  const Manifest m = EncodeAsset("a", "h", 10 * 60 * kUsPerSec, BaseConfig(), rng);
  EXPECT_EQ(m.num_positions(), 120);
  EXPECT_EQ(m.num_video_tracks(), 6);
  EXPECT_EQ(m.TotalDuration(), 10 * 60 * kUsPerSec);
}

// Property sweep: the encoder hits the requested PASR for the paper's whole
// 1.1..2.0 range (Fig. 5 encodings).
class EncoderPasrTest : public ::testing::TestWithParam<double> {};

TEST_P(EncoderPasrTest, AchievesTargetPasr) {
  EncoderConfig config = BaseConfig();
  config.target_pasr = GetParam();
  config.per_track_sigma = 0.0;  // isolate the shared complexity shaping
  Rng rng(4);
  const Manifest m = EncodeAsset("a", "h", 20 * 60 * kUsPerSec, config, rng);
  for (const Track& t : m.video_tracks) {
    EXPECT_NEAR(t.Pasr(), GetParam(), 0.12) << t.name;
  }
}

INSTANTIATE_TEST_SUITE_P(PasrRange, EncoderPasrTest,
                         ::testing::Values(1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0));

TEST(Encoder, CbrWhenPasrIsOne) {
  EncoderConfig config = BaseConfig();
  config.target_pasr = 1.0;
  config.per_track_sigma = 0.0;
  Rng rng(5);
  const Manifest m = EncodeAsset("a", "h", 5 * 60 * kUsPerSec, config, rng);
  for (const Track& t : m.video_tracks) {
    EXPECT_NEAR(t.Pasr(), 1.0, 0.01) << t.name;
  }
}

TEST(Encoder, SizesScaleWithBitrate) {
  Rng rng(6);
  const Manifest m = EncodeAsset("a", "h", 10 * 60 * kUsPerSec, BaseConfig(), rng);
  for (int t = 1; t < m.num_video_tracks(); ++t) {
    EXPECT_GT(m.video_tracks[static_cast<size_t>(t)].TotalBytes(),
              m.video_tracks[static_cast<size_t>(t) - 1].TotalBytes());
  }
}

TEST(Encoder, CrossTrackCorrelationAtSamePosition) {
  // Fig. 4 structure: chunks at the same position are large/small across all
  // tracks simultaneously.
  EncoderConfig config = BaseConfig();
  config.target_pasr = 1.8;
  Rng rng(7);
  const Manifest m = EncodeAsset("a", "h", 20 * 60 * kUsPerSec, config, rng);
  const Track& lo = m.video_tracks.front();
  const Track& hi = m.video_tracks.back();
  double num = 0;
  double den_a = 0;
  double den_b = 0;
  const double mean_lo = lo.MeanChunkSize();
  const double mean_hi = hi.MeanChunkSize();
  for (int i = 0; i < m.num_positions(); ++i) {
    const double a = static_cast<double>(lo.chunks[static_cast<size_t>(i)].size) - mean_lo;
    const double b = static_cast<double>(hi.chunks[static_cast<size_t>(i)].size) - mean_hi;
    num += a * b;
    den_a += a * a;
    den_b += b * b;
  }
  EXPECT_GT(num / std::sqrt(den_a * den_b), 0.8);
}

TEST(Encoder, SeparateAudioIsCbrConstant) {
  EncoderConfig config = BaseConfig();
  config.audio_bitrates = {128 * kKbps};
  Rng rng(8);
  const Manifest m = EncodeAsset("a", "h", 10 * 60 * kUsPerSec, config, rng);
  ASSERT_EQ(m.num_audio_tracks(), 1);
  const Track& audio = m.audio_tracks[0];
  for (const Chunk& c : audio.chunks) {
    EXPECT_EQ(c.size, audio.chunks[0].size);  // §5.2: constant audio size
  }
  EXPECT_TRUE(m.has_separate_audio());
}

TEST(Encoder, MuxedAudioInflatesVideoChunks) {
  Rng rng_a(9);
  Rng rng_b(9);
  EncoderConfig combined = BaseConfig();
  EncoderConfig separate = BaseConfig();
  separate.audio_bitrates = {128 * kKbps};
  const Manifest mc = EncodeAsset("a", "h", 5 * 60 * kUsPerSec, combined, rng_a);
  const Manifest ms = EncodeAsset("a", "h", 5 * 60 * kUsPerSec, separate, rng_b);
  // The combined encoding muxes the audio bytes into every video chunk, so
  // per-track mean sizes shift up by about one audio chunk's bytes.
  const double audio_bytes_per_chunk = 128 * kKbps * 5 / 8;
  for (int t = 0; t < mc.num_video_tracks(); ++t) {
    EXPECT_NEAR(mc.video_tracks[static_cast<size_t>(t)].MeanChunkSize() -
                    ms.video_tracks[static_cast<size_t>(t)].MeanChunkSize(),
                audio_bytes_per_chunk, 0.15 * audio_bytes_per_chunk)
        << t;
  }
}

TEST(Encoder, ShotBasedHasVariableDurations) {
  EncoderConfig config = BaseConfig();
  config.shot_based = true;
  Rng rng(10);
  const Manifest m = EncodeAsset("a", "h", 10 * 60 * kUsPerSec, config, rng);
  const Track& t = m.video_tracks[0];
  bool varied = false;
  for (const Chunk& c : t.chunks) {
    if (c.duration != config.chunk_duration) {
      varied = true;
    }
  }
  EXPECT_TRUE(varied);
  EXPECT_EQ(t.TotalDuration(), 10 * 60 * kUsPerSec);
}

TEST(Encoder, MaxrateCapsChunks) {
  EncoderConfig config = BaseConfig();
  config.target_pasr = 2.0;
  config.maxrate_factor = 1.5;
  config.per_track_sigma = 0.0;
  Rng rng(11);
  const Manifest m = EncodeAsset("a", "h", 10 * 60 * kUsPerSec, config, rng);
  const double muxed_audio_bytes = 128 * kKbps * 5 / 8;
  for (const Track& t : m.video_tracks) {
    const double cap = t.nominal_bitrate * 5.0 / 8.0 * 1.5 + muxed_audio_bytes + 350 + 1;
    for (const Chunk& c : t.chunks) {
      EXPECT_LE(static_cast<double>(c.size), cap + 1);
    }
  }
}

TEST(Manifest, SerializeParseRoundTrip) {
  EncoderConfig config = BaseConfig();
  config.audio_bitrates = {128 * kKbps};
  Rng rng(12);
  const Manifest m = EncodeAsset("asset-1", "cdn.example", 3 * 60 * kUsPerSec, config, rng);
  const Manifest parsed = Manifest::Parse(m.Serialize());
  EXPECT_EQ(parsed.asset_id, m.asset_id);
  EXPECT_EQ(parsed.host, m.host);
  ASSERT_EQ(parsed.num_video_tracks(), m.num_video_tracks());
  ASSERT_EQ(parsed.num_audio_tracks(), m.num_audio_tracks());
  for (int t = 0; t < m.num_video_tracks(); ++t) {
    const Track& a = m.video_tracks[static_cast<size_t>(t)];
    const Track& b = parsed.video_tracks[static_cast<size_t>(t)];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.chunks.size(), b.chunks.size());
    for (size_t i = 0; i < a.chunks.size(); ++i) {
      EXPECT_EQ(a.chunks[i].size, b.chunks[i].size);
      EXPECT_EQ(a.chunks[i].duration, b.chunks[i].duration);
    }
  }
}

std::string ParseError(const std::string& text) {
  try {
    Manifest::Parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Manifest, ParseRejectsCutText) {
  Rng rng(12);
  const Manifest full = EncodeAsset("asset-1", "cdn.example", 60 * kUsPerSec, BaseConfig(), rng);
  ASSERT_GE(full.num_video_tracks(), 2);
  const std::string text = full.Serialize();
  // Every prefix that stops inside a line is refused with that line's number.
  // A prefix cut at a line boundary has no half line to give it away, but
  // whatever it parses to has every video track at full length: a cut after
  // the header or any chunk but the last of a video track after the first is
  // refused.
  int line_no = 1;
  int refused_at_boundary = 0;
  for (size_t cut = 1; cut < text.size(); ++cut) {
    if (text[cut - 1] == '\n') {
      ++line_no;
      const std::string prefix = text.substr(0, cut);
      if (!ParseError(prefix).empty()) {
        ++refused_at_boundary;
        continue;
      }
      const Manifest m = Manifest::Parse(prefix);
      for (const Track& t : m.video_tracks) {
        ASSERT_EQ(t.chunks.size(), m.video_tracks.front().chunks.size()) << "cut at " << cut;
      }
      continue;
    }
    ASSERT_EQ(ParseError(text.substr(0, cut)),
              "manifest: truncated line " + std::to_string(line_no))
        << "cut at " << cut;
  }
  EXPECT_GE(refused_at_boundary, (full.num_video_tracks() - 1) * full.num_positions());
  EXPECT_EQ(ParseError(text), "");
  EXPECT_EQ(ParseError("#CSI-MANIFEST v1"), "manifest: truncated line 1");
}


// An empty file, or a ladder with only audio, has nothing to match chunks
// against: it is refused rather than labelling every slot "other".
TEST(Manifest, ParseRejectsLadderWithoutVideo) {
  EXPECT_EQ(ParseError(""), "manifest: no video track");
  EXPECT_EQ(ParseError("#CSI-MANIFEST v1\nasset a\nhost cdn.example\n"),
            "manifest: no video track");
  EXPECT_EQ(ParseError("#CSI-MANIFEST v1\naudio-track a0 128000\nchunk 1000 4000000\n"),
            "manifest: no video track");
  EXPECT_EQ(ParseError("video-track v0 500000\nchunk 1000 4000000\n"), "");
}

TEST(Manifest, ParseRejectsMalformedFields) {
  const std::string head = "#CSI-MANIFEST v1\nasset a\nhost h\nvideo-track T0 300000\n";
  EXPECT_EQ(ParseError(head + "chunk 1000 5000000\n"), "");
  EXPECT_EQ(ParseError(head + "chunk 1000\n"), "manifest: malformed line 5");
  EXPECT_EQ(ParseError(head + "chunk 1000 5000000 7\n"), "manifest: malformed line 5");
  EXPECT_EQ(ParseError(head + "chunk 10x0 5000000\n"), "manifest: malformed line 5");
  EXPECT_EQ(ParseError(head + "chunk 1000 5e6\n"), "manifest: malformed line 5");
  EXPECT_EQ(ParseError(head + "chunk abc 5000000\n"), "manifest: malformed line 5");
  EXPECT_EQ(ParseError("video-track T0\n"), "manifest: malformed line 1");
  EXPECT_EQ(ParseError("video-track T0 3x\n"), "manifest: malformed line 1");
  EXPECT_EQ(ParseError("asset a b\n"), "manifest: malformed line 1");
  EXPECT_EQ(ParseError("host\n"), "manifest: malformed line 1");
  EXPECT_EQ(ParseError("# a comment may say anything\nasset a\nvideo-track T0 300000\n"), "");
  // Fields that parse but describe no real chunk or track.
  EXPECT_EQ(ParseError(head + "chunk 1000 0\n"), "manifest: value not positive on line 5");
  EXPECT_EQ(ParseError(head + "chunk 0 5000000\n"), "manifest: value not positive on line 5");
  EXPECT_EQ(ParseError(head + "chunk -115528 5000000\n"),
            "manifest: value not positive on line 5");
  EXPECT_EQ(ParseError(head + "chunk 1000 -5000000\n"), "manifest: value not positive on line 5");
  EXPECT_EQ(ParseError("video-track T0 0\n"), "manifest: value not positive on line 1");
  EXPECT_EQ(ParseError("video-track T0 -300000\n"), "manifest: value not positive on line 1");
  EXPECT_EQ(ParseError(head + "chunk 1000 5000000\naudio-track A0 0\n"),
            "manifest: value not positive on line 6");
  EXPECT_EQ(ParseError(head + "chunk 1000 5000000\naudio-track A0 128000\nchunk 100 0\n"),
            "manifest: value not positive on line 7");
  // Video tracks of unequal length leave positions without a chunk.
  EXPECT_EQ(ParseError(head + "chunk 1000 5000000\nchunk 1000 5000000\n"
                              "video-track T1 600000\nchunk 2000 5000000\n"),
            "manifest: video track 'T1' has 1 chunks, track 'T0' has 2");
  EXPECT_EQ(ParseError(head + "chunk 1000 5000000\nvideo-track T1 600000\n"),
            "manifest: video track 'T1' has 0 chunks, track 'T0' has 1");
  // Audio tracks may be shorter than the video ladder.
  EXPECT_EQ(ParseError(head + "chunk 1000 5000000\nchunk 1000 5000000\n"
                              "audio-track A0 128000\nchunk 100 5000000\n"),
            "");
}

TEST(Manifest, ChunkLookup) {
  Rng rng(13);
  EncoderConfig config = BaseConfig();
  config.audio_bitrates = {128 * kKbps};
  const Manifest m = EncodeAsset("a", "h", 60 * kUsPerSec, config, rng);
  const ChunkRef video{MediaType::kVideo, 2, 3};
  EXPECT_EQ(m.SizeOf(video), m.video_tracks[2].chunks[3].size);
  const ChunkRef audio{MediaType::kAudio, 0, 1};
  EXPECT_EQ(m.SizeOf(audio), m.audio_tracks[0].chunks[1].size);
}

TEST(ServiceProfiles, SixServicesWithPaperStats) {
  const auto services = Table3Services();
  ASSERT_EQ(services.size(), 6u);
  EXPECT_EQ(services[0].name, "Amazon");
  EXPECT_EQ(services[5].name, "Youtube");
  EXPECT_EQ(services[5].corpus_size, 1920);
  for (const auto& s : services) {
    EXPECT_GT(s.pasr_median, 1.0);
    EXPECT_GE(s.pasr_p95, s.pasr_median);
  }
}

TEST(ServiceProfiles, SampledPasrHitsCalibration) {
  const auto services = Table3Services();
  const ServiceProfile& youtube = services[5];
  Rng rng(14);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) {
    samples.push_back(SamplePasr(youtube, rng));
  }
  EXPECT_NEAR(csi::Percentile(samples, 50), youtube.pasr_median, 0.06);
  EXPECT_NEAR(csi::Percentile(samples, 95), youtube.pasr_p95, 0.15);
}

TEST(ServiceProfiles, CorpusGeneratesValidManifests) {
  const auto services = Table3Services();
  Rng rng(15);
  const auto corpus = GenerateCorpus(services[3], 4, rng);  // Hulu
  ASSERT_EQ(corpus.size(), 4u);
  for (const Manifest& m : corpus) {
    EXPECT_GE(m.num_video_tracks(), services[3].min_tracks);
    EXPECT_LE(m.num_video_tracks(), services[3].max_tracks);
    EXPECT_TRUE(m.has_separate_audio());
    EXPECT_GT(m.num_positions(), 0);
  }
}

}  // namespace
}  // namespace csi::media
