// Traffic-shaping study (paper §7): evaluate token-bucket policies against a
// Hulu-like player using only encrypted traffic.
//
// A mobile operator wants an SD-quality shaping policy. For each candidate
// (rate r, bucket N) this example streams a session through the shaper,
// runs CSI on the captured encrypted packets, and reports the delivered QoE
// and data usage — the information needed to pick a policy.
//
// Run: ./build/examples/shaping_study

#include <cstdio>

#include "src/capture/packet_columns.h"
#include "src/common/table.h"
#include "src/csi/inference.h"
#include "src/csi/qoe.h"
#include "src/testbed/experiment.h"

using namespace csi;

int main() {
  // Hulu-like service: 7 tracks, separate CBR audio, ~145 s buffer target.
  media::EncoderConfig encoder;
  encoder.ladder = media::GeometricLadder(7, 300 * kKbps, 5800 * kKbps);
  encoder.target_pasr = 1.35;
  encoder.audio_bitrates = {128 * kKbps};
  Rng rng(2024);
  const media::Manifest manifest =
      media::EncodeAsset("hulu-show", "cdn.hulu.example", 12 * 60 * kUsPerSec, encoder, rng);

  const infer::InferenceEngine engine(&manifest, [] {
    infer::InferenceConfig config;
    config.design = infer::DesignType::kSH;
    return config;
  }());

  std::printf("Token-bucket policy study for a Hulu-like service (QoE inferred by CSI)\n\n");
  TextTable table;
  table.SetHeader({"policy", "avg kbps", "SD+ time %", "HD time %", "stalls", "switches",
                   "data / 10 min"});

  const int sd_track = 3;  // T4+ counts as "good SD or better"
  const int hd_track = 5;  // T6+ counts as HD
  uint64_t seed = 77;
  for (double r : {0.8, 1.5, 2.5}) {
    for (Bytes n : {50 * kKB, 2 * kMB}) {
      testbed::SessionConfig session;
      session.design = infer::DesignType::kSH;
      session.manifest = &manifest;
      session.downlink = nettrace::ConditionB2();  // 10 Mbps with 1 Mbps dips
      session.adaptation = "hulu-like";
      session.player.max_buffer = 145 * kUsPerSec;
      session.duration = 10 * 60 * kUsPerSec;
      session.seed = ++seed;
      net::TokenBucketConfig shaper;
      shaper.rate = r * kMbps;
      shaper.bucket_size = n;
      session.shaper = shaper;

      const auto result = RunStreamingSession(session);
      const auto inference = engine.Analyze(capture::PacketColumns::Build(result.capture));
      if (inference.sequences.empty()) {
        continue;
      }
      const infer::QoeReport qoe = infer::AnalyzeQoe(inference.sequences[0], manifest);
      double sd = 0;
      double hd = 0;
      for (int t = 0; t < manifest.num_video_tracks(); ++t) {
        if (t >= sd_track) {
          sd += qoe.track_time_fraction[static_cast<size_t>(t)];
        }
        if (t >= hd_track) {
          hd += qoe.track_time_fraction[static_cast<size_t>(t)];
        }
      }
      table.AddRow({"r=" + FormatDouble(r, 1) + "Mbps N=" + FormatBytes(static_cast<double>(n)),
                    FormatDouble(qoe.avg_bitrate / 1000.0, 0), FormatDouble(100 * sd, 1),
                    FormatDouble(100 * hd, 1), std::to_string(qoe.stall_count),
                    std::to_string(qoe.track_switches),
                    FormatBytes(static_cast<double>(qoe.data_usage))});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Reading the table like the paper's §7: raise r for more quality at more\n"
      "data; a big bucket N lets the player burst to high tracks but causes\n"
      "quality oscillation. A policy around r=1.5 Mbps with a small bucket keeps\n"
      "the player on stable SD tracks at a fraction of the unshaped data usage.\n");
  return 0;
}
