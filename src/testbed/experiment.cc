#include "src/testbed/experiment.h"

#include <algorithm>
#include <chrono>

#include "src/capture/packet_columns.h"
#include "src/csi/displayed_info.h"

namespace csi::testbed {

media::Manifest MakeAssetForDesign(infer::DesignType design, int genre_seed,
                                   TimeUs duration, double target_pasr) {
  media::EncoderConfig config;
  config.target_pasr = target_pasr;
  // Genres differ in scene dynamics: faster cuts and higher variance for
  // action-like content, flatter for talking heads.
  config.scene.scene_change_prob = 0.08 + 0.05 * (genre_seed % 4);
  config.scene.scene_sigma = 0.35 + 0.1 * (genre_seed % 3);
  if (infer::HasSeparateAudio(design)) {
    config.audio_bitrates = {128 * kKbps};
  }
  Rng rng(0xC0FFEE00 + static_cast<uint64_t>(genre_seed));
  return media::EncodeAsset("asset-" + std::to_string(genre_seed), "cdn.example", duration,
                            config, rng);
}

EvalRun RunAndScore(const SessionConfig& session_config) {
  EvalRun run;
  const SessionResult session = RunStreamingSession(session_config);

  infer::InferenceConfig inference_config;
  inference_config.design = session_config.design;
  const infer::InferenceEngine engine(session_config.manifest, inference_config);

  // The timed window covers the column build: analysis_time_us is capture ->
  // result, as the paper's per-session computation time (§6.2.3) is.
  const auto t0 = std::chrono::steady_clock::now();
  const capture::PacketColumns columns = capture::PacketColumns::Build(session.capture);
  const infer::InferenceResult plain = engine.Analyze(columns);
  const auto t1 = std::chrono::steady_clock::now();
  run.analysis_time_us =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
  run.without_display = ScoreInference(plain, session.downloads);
  run.group_sizes = plain.group_sizes;

  Rng ocr_rng(session_config.seed ^ 0x5eed);
  const infer::DisplayConstraints display = infer::SampleDisplayedChunks(
      session.displays, session.duration, infer::OcrConfig{}, ocr_rng);
  const infer::InferenceResult constrained = engine.Analyze(columns, display);
  run.with_display = ScoreInference(constrained, session.downloads);
  return run;
}

AccuracyAggregate Aggregate(const std::vector<AccuracyResult>& runs, bool best) {
  AccuracyAggregate agg;
  if (runs.empty()) {
    return agg;
  }
  std::vector<double> values;
  int full = 0;
  int above95 = 0;
  for (const auto& r : runs) {
    const double a = best ? r.best : r.worst;
    values.push_back(a);
    if (a >= 1.0 - 1e-9) {
      ++full;
    }
    if (a > 0.95) {
      ++above95;
    }
  }
  const double n = static_cast<double>(runs.size());
  agg.pct_100_match = 100.0 * full / n;
  agg.pct_above_95 = 100.0 * above95 / n;
  agg.pct5_accuracy = 100.0 * Percentile(values, 5.0);
  return agg;
}

}  // namespace csi::testbed
