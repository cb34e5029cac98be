// Figure 11 (+ §7 behavioural findings): time series of the Hulu-like
// player's selected track, throughput, and inferred buffer under
//   (a) stable 2 Mbps,
//   (b) condition B2 shaped by r=1.5 Mbps / N=50 KB,
//   (c) condition B2 shaped by r=1.5 Mbps / N=5 MB.
// Everything shown is computed from the encrypted capture by CSI.
//
// Also verifies the §7 findings: startup on the lowest track, convergence to
// a track with bitrate <= bandwidth/2, and the ON-OFF pattern at ~145 s of
// buffer.

#include <cstdio>
#include <optional>

#include "src/capture/packet_columns.h"
#include "src/common/table.h"
#include "src/csi/inference.h"
#include "src/csi/qoe.h"
#include "src/testbed/experiment.h"

using namespace csi;

namespace {

media::Manifest MakeHuluAsset() {
  media::EncoderConfig config;
  config.ladder = media::GeometricLadder(7, 300 * kKbps, 5800 * kKbps);
  config.target_pasr = 1.35;
  config.audio_bitrates = {128 * kKbps};
  Rng rng(0x47);
  return media::EncodeAsset("hulu-asset", "cdn.hulu.example", 12 * 60 * kUsPerSec, config,
                            rng);
}

void RunCase(const char* title, const media::Manifest& manifest,
             const nettrace::BandwidthTrace& bw, std::optional<net::TokenBucketConfig> shaper,
             uint64_t seed) {
  testbed::SessionConfig session;
  session.design = infer::DesignType::kSH;
  session.manifest = &manifest;
  session.downlink = bw;
  session.adaptation = "hulu-like";
  session.player.max_buffer = 145 * kUsPerSec;
  session.duration = 6 * 60 * kUsPerSec;
  session.seed = seed;
  session.shaper = shaper;
  const auto result = RunStreamingSession(session);

  infer::InferenceConfig config;
  config.design = infer::DesignType::kSH;
  const infer::InferenceEngine engine(&manifest, config);
  const auto inference = engine.Analyze(capture::PacketColumns::Build(result.capture));
  std::printf("%s\n", title);
  if (inference.sequences.empty()) {
    std::printf("  (no inferred sequence)\n\n");
    return;
  }
  const auto& seq = inference.sequences[0];
  const infer::QoeReport qoe = infer::AnalyzeQoe(seq, manifest);

  TextTable table;
  table.SetHeader({"t (s)", "track", "chunk idx", "dl rate (Mbps)", "buffer (s)"});
  size_t buffer_cursor = 0;
  for (const auto& slot : seq.slots) {
    if (slot.kind != infer::SlotKind::kVideo || slot.chunk.index % 4 != 0) {
      continue;
    }
    const double seconds = UsToSeconds(slot.request_time);
    const double dl_time = UsToSeconds(std::max<TimeUs>(slot.done_time - slot.request_time, 1));
    const double rate = static_cast<double>(manifest.SizeOf(slot.chunk)) * 8.0 / dl_time / 1e6;
    while (buffer_cursor + 1 < qoe.buffer_curve.size() &&
           qoe.buffer_curve[buffer_cursor].time < slot.request_time) {
      ++buffer_cursor;
    }
    const double buffer =
        UsToSeconds(qoe.buffer_curve.empty() ? 0 : qoe.buffer_curve[buffer_cursor].level);
    table.AddRow({FormatDouble(seconds, 1), "T" + std::to_string(slot.chunk.track + 1),
                  std::to_string(slot.chunk.index), FormatDouble(rate, 2),
                  FormatDouble(buffer, 1)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("  avg bitrate %.0f kbps, switches %d, stalls %d, data %s\n\n",
              qoe.avg_bitrate / 1000.0, qoe.track_switches, qoe.stall_count,
              FormatBytes(static_cast<double>(qoe.data_usage)).c_str());
}

}  // namespace

int main() {
  const media::Manifest manifest = MakeHuluAsset();
  std::printf("Figure 11 — Hulu-like player behaviour (from CSI-inferred sequences)\n\n");

  // §7 basic behaviour: stable bandwidth sweeps. The client starts on T1 and
  // converges to the highest track with bitrate <= bandwidth/2.
  std::printf("§7 — convergence track vs stable bandwidth (paper: bitrate <= bw/2)\n");
  TextTable conv;
  conv.SetHeader({"bandwidth", "converged track", "track bitrate (kbps)", "<= bw/2"});
  uint64_t seed = 100;
  for (double bw : {1.0, 2.0, 3.0, 4.0}) {
    testbed::SessionConfig session;
    session.design = infer::DesignType::kSH;
    session.manifest = &manifest;
    session.downlink = nettrace::StableTrace("stable", bw * kMbps);
    session.adaptation = "hulu-like";
    session.player.max_buffer = 145 * kUsPerSec;
    session.duration = 5 * 60 * kUsPerSec;
    session.seed = ++seed;
    const auto result = RunStreamingSession(session);
    // Converged track = mode of the second half of downloads.
    std::vector<int> counts(static_cast<size_t>(manifest.num_video_tracks()), 0);
    for (const auto& d : result.downloads) {
      if (d.chunk.type == media::MediaType::kVideo &&
          d.request_time > 2 * 60 * kUsPerSec) {
        ++counts[static_cast<size_t>(d.chunk.track)];
      }
    }
    int track = 0;
    for (int t = 0; t < manifest.num_video_tracks(); ++t) {
      if (counts[static_cast<size_t>(t)] > counts[static_cast<size_t>(track)]) {
        track = t;
      }
    }
    const double track_rate = manifest.video_tracks[static_cast<size_t>(track)].nominal_bitrate;
    conv.AddRow({FormatDouble(bw, 1) + " Mbps", "T" + std::to_string(track + 1),
                 FormatDouble(track_rate / 1000.0, 0),
                 track_rate <= bw * kMbps / 2 ? "yes" : "no"});
  }
  std::printf("%s\n", conv.Render().c_str());

  RunCase("(a) stable 2 Mbps, unshaped", manifest, nettrace::StableTrace("2mbps", 2 * kMbps),
          std::nullopt, 11);
  net::TokenBucketConfig small_bucket;
  small_bucket.rate = 1.5 * kMbps;
  small_bucket.bucket_size = 50 * kKB;
  RunCase("(b) B2, token bucket r=1.5 Mbps N=50 KB", manifest, nettrace::ConditionB2(),
          small_bucket, 12);
  net::TokenBucketConfig big_bucket;
  big_bucket.rate = 1.5 * kMbps;
  big_bucket.bucket_size = 5 * kMB;
  RunCase("(c) B2, token bucket r=1.5 Mbps N=5 MB", manifest, nettrace::ConditionB2(),
          big_bucket, 13);
  return 0;
}
